import contextlib
import io
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import blockembed
from blockembed import blocks, cli, lp_coarse, metric, proper
from blockembed.cli import RunConfig, main, run_report
from blockembed.io import (
    ParseError,
    UnknownFormat,
    atomic_write_text,
    dumps_report,
    parse_space,
    space_to_payload,
    write_space,
)
from blockembed.fixtures import path_metric, random_graph_metric, random_lp_cloud
from blockembed.lp_coarse import LpPointSet
from blockembed.metric import FiniteMetricSpace, PointedSpace, TooFewPoints, TriangleViolation

import oracles


class TestParseSpace:
    def test_json_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"points":["a","b"],"dist":[[0,1],[1,0]]}')
        space = parse_space(path, "json")
        assert isinstance(space, FiniteMetricSpace)
        assert space.labels == ("a", "b")
        assert space.dist[0, 1] == 1.0

    def test_json_cloud_three_four_five(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"p":2,"points":[[0,0],[3,4]]}')
        cloud = parse_space(path, "json")
        assert isinstance(cloud, LpPointSet)
        assert cloud.metric_space.dist[0, 1] == 5.0

    def test_json_cloud_inf_exponent(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"p":"inf","points":[[0,0],[3,4]]}')
        cloud = parse_space(path, "json")
        assert math.isinf(cloud.p)
        assert cloud.metric_space.dist[0, 1] == 4.0

    def test_triangle_violation_names_triple(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dist":[[0,1,5],[1,0,1],[5,1,0]]}')
        with pytest.raises(TriangleViolation) as err:
            parse_space(path, "json")
        assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)

    def test_csv_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        space = parse_space(path, "csv")
        assert space.dist[0, 1] == 1.0

    def test_csv_parse_error_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,zebra\n")
        with pytest.raises(ParseError) as err:
            parse_space(path, "csv")
        assert err.value.line == 2

    def test_csv_ragged_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(ParseError) as err:
            parse_space(path, "csv")
        assert err.value.line == 2

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "m.xml"
        path.write_text("<dist/>")
        with pytest.raises(UnknownFormat):
            parse_space(path, "xml")

    def test_json_missing_keys(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": []}')
        with pytest.raises(ParseError):
            parse_space(path, "json")

    @pytest.mark.parametrize("basepoint", ["1.7", "true", "false", '"1"'])
    def test_non_integer_basepoint_rejected(self, tmp_path, basepoint):
        path = tmp_path / "c.json"
        path.write_text('{"p":2,"points":[[0,0],[3,4],[6,8]],"basepoint":%s}' % basepoint)
        with pytest.raises(ParseError, match="basepoint"):
            parse_space(path, "json")

    def test_integral_float_basepoint_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"p":2,"points":[[0,0],[3,4],[6,8]],"basepoint":2.0}')
        assert parse_space(path, "json").basepoint == 2


class TestReportSerialization:
    def test_float_formatting(self):
        text = dumps_report({"x": 0.1, "y": 4.0, "n": 3, "flag": True, "none": None})
        assert '"x": 0.10000000000000001' in text
        assert '"y": 4' in text
        assert '"flag": true' in text
        parsed = json.loads(text)
        assert parsed["x"] == 0.1

    def test_infinity_marker(self):
        assert json.loads(dumps_report({"rho": math.inf}))["rho"] == "unbounded"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps_report({"x": math.nan})

    # signed zeros, the least subnormal, one third of the least normal, the
    # largest magnitudes, infinities and integer-valued floats
    EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.0**-1022 / 3, 1e308, -1e308, math.inf, -math.inf)
    EDGE_FLOATS += (1.0, -7.0, 2.0**53, 3e16)

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
            elements=st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_float_arrays_render_as_the_per_value_renderer(self, a):
        # the payloads write_space renders for a matrix and for a cloud
        matrix = {"schema": "blockembed-space/1", "points": [f"p{i}" for i in range(len(a))]}
        matrix["dist"] = a
        cloud = {"schema": "blockembed-space/1", "p": 2.0, "points": a, "basepoint": 0}
        for payload, key in ((matrix, "dist"), (cloud, "points")):
            text = dumps_report(payload)
            assert text == oracles.render_report(payload)
            assert text == dumps_report({**payload, key: a.tolist()})

    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_nan_in_an_array_rejected(self, where):
        a = np.ones((2, 3))
        a[where] = math.nan
        with pytest.raises(ValueError, match="NaN is not representable"):
            dumps_report({"points": a})

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "sub" / "report.json"
        atomic_write_text(target, "{}\n")
        assert target.read_text() == "{}\n"
        assert list(target.parent.iterdir()) == [target]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_written_files_take_the_umask(self, tmp_path):
        # as a plain open() would create them: 0o666 less the umask
        for umask in (0o022, 0o077):
            space, report = tmp_path / f"p{umask}.json", tmp_path / f"r{umask}.json"
            old = os.umask(umask)
            try:
                assert run_cli("gen", "--kind", "path", "--n", 5, "--out", space) == 0
                assert run_cli("embed-proper", "--input", space, "--out", report) == 0
                atomic_write_text(report, "{}\n")  # over an existing file as well
            finally:
                os.umask(old)
            for path in (space, report):
                assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_space_file_written_a_row_at_a_time(self, tmp_path):
        # no whole copy of the text is held: rendering it whole and then
        # writing it took about three times the file's size
        space, target = path_metric(600), tmp_path / "path.json"
        tracemalloc.start()
        try:
            write_space(space, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert target.read_text() == dumps_report(space_to_payload(space)) + "\n"
        assert list(target.parent.iterdir()) == [target]
        assert peak < 2 * target.stat().st_size


def run_cli(*args):
    return main([str(a) for a in args])


CLOUD_MODES = ("validate", "net", "embed-proper", "embed-lp", "coarse", "moduli")

# zeros, a subnormal, tiny, unit, huge and overflowing magnitudes, NaN and inf
CONTRACT_COORDS = (0.0, 1e-320, -1e-320, 1e-300, 1.0, -1.0, 3.5, 1e150, -1e150, 1e300)
CONTRACT_COORDS += (1.7e308, -1.7e308, math.nan, math.inf)


# an integer past the double range in each numeric field of a space file
HUGE = "1" + "0" * 400
HUGE_SPACES = {
    "p": '{"p":%s,"points":[[0,0],[3,4]]}' % HUGE,
    "points": '{"p":2,"points":[[0,0],[3,%s]]}' % HUGE,
    "dist": '{"dist":[[0,%s],[%s,0]]}' % (HUGE, HUGE),
}
ONE_POINT = {"cloud": '{"p":2,"points":[[1.5,2.0]]}', "matrix": '{"dist":[[0]]}'}


class TestCliModes:
    def test_gen_and_embed_proper_path(self, tmp_path, capsys):
        fixture = tmp_path / "p4.json"
        report = tmp_path / "rep.json"
        assert run_cli("gen", "--kind", "path", "--n", 4, "--out", fixture) == 0
        parsed = parse_space(fixture, "json")
        assert parsed.dist[0, 3] == 3.0
        assert run_cli("embed-proper", "--input", fixture, "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["pass"] is True
        assert payload["checks"]["pairs_total"] == 6
        assert payload["constants"]["c_trunc"] <= payload["constants"]["weight_series_sum"]

    def test_embed_lp_cloud(self, tmp_path):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4]]}')
        report = tmp_path / "rep.json"
        assert run_cli("embed-lp", "--input", fixture, "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["pass"] is True
        assert payload["constants"]["lower_denominator"] == pytest.approx(20.402)
        assert payload["constants"]["upper_factor"] == 9

    def test_coarse_constants(self, tmp_path):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[2,1],[5,3],[9,0]]}')
        report = tmp_path / "rep.json"
        assert run_cli("coarse", "--input", fixture, "--epsilon", 1, "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["constants"]["c_a"] == 9
        assert payload["constants"]["c_d"] == pytest.approx(20.402)
        assert payload["rounding"]["pass"] is True

    def test_net_mode(self, tmp_path):
        fixture = tmp_path / "p5.json"
        run_cli("gen", "--kind", "path", "--n", 5, "--out", fixture)
        report = tmp_path / "net.json"
        assert run_cli("net", "--input", fixture, "--epsilon", 3, "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["net_size"] == len(payload["members"])
        assert payload["rounding"]["pass"] is True

    def test_moduli_mode(self, tmp_path):
        fixture = tmp_path / "p4.json"
        run_cli("gen", "--kind", "path", "--n", 4, "--out", fixture)
        report = tmp_path / "mod.json"
        assert run_cli("moduli", "--input", fixture, "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["map"] == "proper"
        assert payload["monotone"] is True
        assert len(payload["moduli"]["thresholds"]) == 32

    @pytest.mark.parametrize("mode", ["embed-lp", "coarse", "moduli"])
    def test_moduli_grid_ends_at_the_largest_double(self, tmp_path, mode):
        # the diameter is 1.6e308, so twice it is inf: the grid ends at the
        # largest double, and the numpy warnings count as errors here
        fixture = tmp_path / "wide.json"
        fixture.write_text('{"p": 1, "points": [[0], [8e307], [-8e307]]}')
        report = tmp_path / "rep.json"
        assert run_cli(mode, "--input", fixture, "--out", report) == 0
        ts = json.loads(report.read_text())["moduli"]["thresholds"]  # inf reads "unbounded"
        assert len(ts) == 32 and ts[0] == 4e307 and ts[-1] == sys.float_info.max
        assert all(isinstance(t, float) and a < t for a, t in zip(ts, ts[1:]))

    def test_validate_failure_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dist":[[0,1,5],[1,0,1],[5,1,0]]}')
        report = tmp_path / "rep.json"
        assert run_cli("validate", "--input", bad, "--out", report) == 1
        payload = json.loads(report.read_text())
        assert payload["pass"] is False
        assert payload["error_type"] == "TriangleViolation"

    def test_validate_non_numeric_matrix_reports_invalid(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dist":[[0,"a"],["a",0]]}')
        report = tmp_path / "rep.json"
        assert run_cli("validate", "--input", bad, "--out", report) == 1
        payload = json.loads(report.read_text())
        assert payload["valid"] is False
        assert payload["error_type"] == "MetricError"

    def test_fractional_basepoint_exits_two(self, tmp_path, capsys):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[6,8]],"basepoint":1.7}')
        assert run_cli("embed-lp", "--input", fixture) == 2
        assert "basepoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, kind",
        [
            ("embed-proper", "path"),
            ("moduli", "path"),
            ("embed-lp", "random-lp-cloud"),
            ("coarse", "random-lp-cloud"),
            ("moduli", "random-lp-cloud"),
        ],
    )
    def test_pairwise_kernel_runs_once_per_certificate(self, tmp_path, monkeypatch, mode, kind):
        fixture = tmp_path / "f.json"
        assert run_cli("gen", "--kind", kind, "--n", 12, "--seed", 3, "--out", fixture) == 0
        # the proper embedding of a matrix has its own image distance kernel;
        # the l_p and coarse ones fold the shell-sorted points once
        original = proper._image_distances if kind == "path" else blocks._fold
        calls = []

        def counting(*args, **kwargs):
            calls.append(mode)
            return original(*args, **kwargs)

        # every blockembed module that holds the kernel under any name
        for name, module in list(sys.modules.items()):
            if name == "blockembed" or name.startswith("blockembed."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        assert run_cli(mode, "--input", fixture, "--out", tmp_path / "rep.json") == 0
        assert calls == [mode]

    @pytest.mark.parametrize(
        "mode, kind",
        [
            ("embed-proper", "random-graph-metric"),
            ("embed-proper", "random-lp-cloud"),
            ("moduli", "random-graph-metric"),
            ("moduli", "random-lp-cloud"),
            ("embed-lp", "random-lp-cloud"),
            ("coarse", "random-lp-cloud"),
        ],
    )
    def test_shell_layout_derived_once_per_certificate(self, tmp_path, monkeypatch, mode, kind):
        # the proper params keep the runs they were cut from, and an l_p
        # embedding derives its factor rows once, for every reader
        fixture = tmp_path / "f.json"
        assert run_cli("gen", "--kind", kind, "--n", 24, "--seed", 4, "--out", fixture) == 0
        original, calls = proper.shell_runs, []

        def counting(norms):
            calls.append(mode)
            return original(norms)

        for module in (proper, lp_coarse):
            monkeypatch.setattr(module, "shell_runs", counting)
        assert run_cli(mode, "--input", fixture, "--out", tmp_path / "rep.json") == 0
        assert calls == [mode]

    @pytest.mark.parametrize(
        "mode, flags, expected",
        [
            ("embed-proper", ("--basepoint", 2), 1),
            ("embed-proper", ("--p", 1), 1),
            ("net", ("--p", "inf", "--basepoint", 3), 1),
            # embed-lp and moduli check only the normalized copy they certify
            ("embed-lp", ("--p", 1), 1),
            ("moduli", ("--p", 1, "--basepoint", 2), 1),
            ("coarse", ("--basepoint", 2), 1),
        ],
    )
    def test_cloud_validated_once_after_overrides(
        self, tmp_path, monkeypatch, mode, flags, expected
    ):
        fixture = tmp_path / "c.json"
        code = run_cli("gen", "--kind", "random-lp-cloud", "--n", 12, "--seed", 3, "--out", fixture)
        assert code == 0
        original = metric._checked_entries
        calls = []

        def counting(*args, **kwargs):
            calls.append(mode)
            return original(*args, **kwargs)

        # every metric a cloud builds, with its triangles proved or scanned,
        # runs the entry checks once; LpPointSet.metric_space looks them up on call
        monkeypatch.setattr(metric, "_checked_entries", counting)
        assert run_cli(mode, "--input", fixture, *flags, "--out", tmp_path / "rep.json") == 0
        assert len(calls) == expected

    @pytest.mark.parametrize("flags", [("--basepoint", 2), ("--p", 3, "--basepoint", 2)])
    def test_cloud_distances_formed_once_after_a_basepoint_override(
        self, tmp_path, monkeypatch, flags
    ):
        fixture = tmp_path / "c.json"
        code = run_cli("gen", "--kind", "random-lp-cloud", "--n", 12, "--seed", 3, "--out", fixture)
        assert code == 0
        original = lp_coarse.lp_distance_matrix
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        # LpPointSet.metric_space is the one caller under this name: each mode
        # reads the input cloud's metric or, for embed-lp and moduli, only the
        # normalized cloud's (coarse also reads it for the rounding deviation)
        monkeypatch.setattr(lp_coarse, "lp_distance_matrix", counting)
        for mode in CLOUD_MODES:
            calls.clear()
            args = (mode, "--input", fixture, "--epsilon", 1, *flags)
            assert run_cli(*args, "--out", tmp_path / "rep.json") == 0
            assert calls == [12], mode

    @pytest.mark.parametrize("mode", ["embed-lp", "coarse", "moduli"])
    @pytest.mark.parametrize(
        "p, dim, scale, scanned",
        [
            (1.0, 3, 1.0, False),
            (2.0, 3, 1.0, False),
            (math.inf, 3, 1.0, False),
            (2.0, 1024, 1.0, False),
            (3.0, 3, 1.0, True),  # no rounding bound for general p
            (2.0, 1025, 1.0, True),  # above the dim cap
            (1.0, 1025, 1.0, True),
            (2.0, 3, 1e300, True),  # l_2 entries above 2^480
            # l_2 entries below 2^-480, scanned by coarse only: embed-lp and
            # moduli certify only the normalized cloud, whose entries lie in range
            (2.0, 3, 1e-300, "coarse"),
        ],
    )
    def test_triangle_scan_runs_only_where_unproved(
        self, tmp_path, monkeypatch, mode, p, dim, scale, scanned
    ):
        if isinstance(scanned, str):
            scanned = mode == scanned
        rng = np.random.default_rng(dim)
        fixture = tmp_path / "c.json"
        write_space(LpPointSet(p, rng.uniform(0.0, 8.0, size=(12, dim)) * scale), fixture)
        calls = {"validate_metric": 0, "_scan_triangles": 0}
        for name in calls:
            original = getattr(metric, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(metric, name, counting)
        assert run_cli(mode, "--input", fixture, "--out", tmp_path / "rep.json") == 0
        if scanned:
            assert calls["validate_metric"] >= 1
        else:
            assert calls == {"validate_metric": 0, "_scan_triangles": 0}

    @pytest.mark.parametrize(
        "mode, kind",
        [
            ("embed-proper", "random-graph-metric"),
            ("moduli", "random-graph-metric"),
            ("verify_proper", "random-graph-metric"),
            ("embed-lp", "random-lp-cloud"),
            ("coarse", "random-lp-cloud"),
            ("moduli", "random-lp-cloud"),
        ],
    )
    def test_image_vectors_built_only_off_the_proper_path(self, tmp_path, monkeypatch, mode, kind):
        # no mode builds image vectors, on the proper path or off it: every
        # embedding computes its image distances from its factors
        fixture = tmp_path / "f.json"
        assert run_cli("gen", "--kind", kind, "--n", 16, "--seed", 5, "--out", fixture) == 0
        # the per-point l_p image and the coarse and proper images are gone
        # from the package; LpEmbedding.images stays (perfbench/sweep.py
        # reads it), and no mode reads it
        assert not hasattr(lp_coarse, "embed_point_lp")
        assert not hasattr(blockembed, "embed_point_lp")
        assert not hasattr(lp_coarse.CoarseEmbedding, "images")
        assert not hasattr(proper.ProperEmbedding, "images")
        originals = {
            "embed_point_proper": proper.embed_point_proper,
            "pairwise_distance_matrix": blocks.pairwise_distance_matrix,
        }
        calls = dict.fromkeys(originals, 0)
        images = lp_coarse.LpEmbedding.images
        calls["LpEmbedding.images"] = 0

        def counting_images(emb):
            calls["LpEmbedding.images"] += 1
            return images.__get__(emb, type(emb))

        monkeypatch.setattr(lp_coarse.LpEmbedding, "images", property(counting_images))
        for name, original in originals.items():

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # every blockembed module that holds the function under any name
            for modname, module in list(sys.modules.items()):
                if modname == "blockembed" or modname.startswith("blockembed."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counting)
        if mode == "verify_proper":
            emb = proper.embed_space_proper(PointedSpace(parse_space(fixture, "json"), 0))
            assert proper.verify_proper(emb).passed
        else:
            assert run_cli(mode, "--input", fixture, "--out", tmp_path / "rep.json") == 0
        assert calls == dict.fromkeys([*originals, "LpEmbedding.images"], 0)

    @pytest.mark.parametrize("flags", [(), ("--p", 1), ("--basepoint", 1)])
    def test_validate_invalid_cloud_reports_invalid(self, tmp_path, flags):
        fixture = tmp_path / "dup.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[3,4]]}')
        report = tmp_path / "rep.json"
        assert run_cli("validate", "--input", fixture, *flags, "--out", report) == 1
        payload = json.loads(report.read_text())
        assert payload["valid"] is False
        assert payload["error_type"] == "ZeroOffDiagonal"

    @pytest.mark.parametrize("kind", ["cloud", "matrix"])
    @pytest.mark.parametrize("mode", ["embed-proper", "embed-lp", "coarse", "moduli"])
    def test_one_point_input_exits_two_in_embedding_modes(self, tmp_path, capsys, mode, kind):
        fixture = tmp_path / "one.json"
        fixture.write_text(ONE_POINT[kind])
        with pytest.raises(TooFewPoints):
            run_report(RunConfig(mode=mode, input=str(fixture)))
        assert run_cli(mode, "--input", fixture) == 2
        assert "at least two points" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["cloud", "matrix"])
    @pytest.mark.parametrize("mode", ["validate", "net"])
    def test_one_point_input_accepted_by_validate_and_net(self, tmp_path, mode, kind):
        fixture = tmp_path / "one.json"
        fixture.write_text(ONE_POINT[kind])
        assert run_cli(mode, "--input", fixture) == 0

    def test_coarse_passes_when_the_net_has_one_member(self, tmp_path):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[2,1],[5,3]]}')
        report = tmp_path / "rep.json"
        assert run_cli("coarse", "--input", fixture, "--epsilon", 1000, "--out", report) == 0
        assert json.loads(report.read_text())["net_size"] == 1

    def test_validate_success(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text('{"dist":[[0,2],[2,0]]}')
        assert run_cli("validate", "--input", good) == 0

    def test_usage_error_exits_two(self, capsys):
        assert run_cli("embed-proper") == 2
        assert "requires --input" in capsys.readouterr().err

    def test_matrix_input_rejected_for_lp(self, tmp_path, capsys):
        fixture = tmp_path / "m.json"
        fixture.write_text('{"dist":[[0,1],[1,0]]}')
        assert run_cli("embed-lp", "--input", fixture) == 2
        assert "point-cloud" in capsys.readouterr().err

    def test_gen_requires_out(self, capsys):
        assert run_cli("gen", "--kind", "path", "--n", 4) == 2

    @pytest.mark.parametrize("kind", ["random-graph-metric", "random-lp-cloud", "path", "star"])
    def test_gen_requires_n(self, tmp_path, capsys, kind):
        assert run_cli("gen", "--kind", kind, "--out", tmp_path / "f.json") == 2
        assert capsys.readouterr().err == f"blockembed: error: {kind} requires --n\n"

    def test_gen_path_digest(self, tmp_path):
        import hashlib

        out = tmp_path / "path.json"
        assert run_cli("gen", "--kind", "path", "--n", 300, "--out", out) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "39f70c74d9e69c60303c4320a809fbf1600c10027b66c0ce74ae5804abb89e78"

    # sha256 of fixture files from the per-source BFS and the per-value
    # renderer; the edge probability 0.017 connects only the 13th draw
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ("random-graph-metric", "--n", 300, "--seed", 0),
                "9e6636261507a9e25532933c34a89719bb7c3680eb4efa86801ef437f83674b6",
            ),
            (
                ("random-graph-metric", "--n", 300, "--seed", 7),
                "c8d315a92c7bed83b072be01996226e1fc29310fc6d58d34eff6853c6487eb2d",
            ),
            (
                ("random-graph-metric", "--n", 300, "--edge-prob", 0.017, "--seed", 0),
                "83843a407f49ff46bc2bada0cdd6e0a27b1009fa7eaba42886efe71ecf5aeca3",
            ),
            (
                ("random-lp-cloud", "--n", 300, "--p", 2, "--seed", 3),
                "630b99e91e7b5e9398a44f9dff21e8a4c892f5f7724f8c3a201410c230bc17e7",
            ),
            (
                ("random-lp-cloud", "--n", 300, "--p", "inf", "--seed", 3),
                "b2beda2327b990a18dd9788976fcb6e219ae99a4522adf4bdf398af365be0be5",
            ),
            (
                ("grid-net", "--dim", 2, "--k", 3),
                "182614acf7cc5f64f251a4c9e28c2ab4b4b935ef12bd25014213a4c6436ad650",
            ),
        ],
        ids=["graph-seed0", "graph-seed7", "graph-sparse", "cloud-l2", "cloud-linf", "grid"],
    )
    def test_gen_digest(self, tmp_path, args, digest):
        import hashlib

        out = tmp_path / "fixture.json"
        assert run_cli("gen", "--kind", *args, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["path", "star"])
    def test_gen_past_the_size_cap_exits_two_unallocated(self, tmp_path, capsys, monkeypatch, kind):
        from blockembed import fixtures

        monkeypatch.setattr(fixtures, "np", None)  # an allocation would fail on it
        out = tmp_path / "big.json"
        assert run_cli("gen", "--kind", kind, "--n", 100_000, "--out", out) == 2
        assert "cap is" in capsys.readouterr().err and not out.exists()

    def test_gen_grid_fixture(self, tmp_path):
        fixture = tmp_path / "g.json"
        assert run_cli("gen", "--kind", "grid-net", "--dim", 1, "--k", 2, "--out", fixture) == 0
        cloud = parse_space(fixture, "json")
        assert cloud.n_points == 9

    def test_cloud_basepoint_respected_unless_overridden(self, tmp_path):
        fixture = tmp_path / "g.json"
        run_cli("gen", "--kind", "grid-net", "--dim", 1, "--k", 2, "--out", fixture)
        assert parse_space(fixture, "json").basepoint == 4  # the origin's index
        report = tmp_path / "rep.json"
        assert run_cli("embed-lp", "--input", fixture, "--out", report) == 0
        assert json.loads(report.read_text())["config"]["basepoint"] is None
        assert run_cli("embed-lp", "--input", fixture, "--basepoint", 0, "--out", report) == 0
        assert json.loads(report.read_text())["config"]["basepoint"] == 0

    def test_gen_star_fixture(self, tmp_path):
        fixture = tmp_path / "s.json"
        assert run_cli("gen", "--kind", "star", "--n", 3, "--out", fixture) == 0
        space = parse_space(fixture, "json")
        assert space.dist[1, 2] == 2.0

    def test_csv_input_end_to_end(self, tmp_path):
        fixture = tmp_path / "m.csv"
        fixture.write_text("0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n")
        report = tmp_path / "rep.json"
        code = run_cli("embed-proper", "--input", fixture, "--format", "csv", "--out", report)
        assert code == 0
        assert json.loads(report.read_text())["checks"]["pairs_total"] == 6

    def test_p_override_reinterprets_cloud(self, tmp_path):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[8,1]]}')
        report = tmp_path / "rep.json"
        assert run_cli("embed-lp", "--input", fixture, "--p", "inf", "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["constants"]["p"] == "inf"
        assert payload["pass"] is True

    def test_outer_norm_flag_rejected(self, tmp_path, capsys):
        # each codomain has one exponent, so there is no outer norm to override
        fixture = tmp_path / "p5.json"
        run_cli("gen", "--kind", "path", "--n", 5, "--out", fixture)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("moduli", "--input", fixture, "--outer-norm", 2)
        assert exit_info.value.code == 2
        assert "--outer-norm" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["net", "embed-proper"])
    def test_cloud_basepoint_used_without_the_flag(self, tmp_path, mode):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[1,1],[6,8],[-2,5]],"basepoint":2}')
        payloads = []
        for extra in ((), ("--basepoint", 2)):
            report = tmp_path / "rep.json"
            assert run_cli(mode, "--input", fixture, *extra, "--out", report) == 0
            payload = json.loads(report.read_text())
            del payload["config"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        if mode == "net":
            assert payloads[0]["members"][0] == 2

    @pytest.mark.parametrize(
        "mode, flag",
        [
            ("embed-lp", "--lambda-sim"),
            ("coarse", "--lambda-sim"),
            ("embed-lp", "--delta"),
            ("embed-proper", "--tolerance"),
        ],
    )
    def test_nan_parameter_exits_two(self, tmp_path, capsys, mode, flag):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[6,8]]}')
        assert run_cli(mode, "--input", fixture, flag, "nan") == 2
        err = capsys.readouterr().err
        assert err.startswith("blockembed: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "mode", ["validate", "net", "embed-proper", "embed-lp", "coarse", "moduli", "gen"]
    )
    def test_non_finite_tolerance_exits_two_in_every_mode(self, tmp_path, capsys, mode, value):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[6,8]]}')
        out = tmp_path / "out.json"
        where = ("--kind", "path", "--n", 4) if mode == "gen" else ("--input", fixture)
        assert run_cli(mode, *where, f"--tolerance={value}", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("blockembed: error:") and err.count("\n") == 1
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize(
        "mode", ["validate", "net", "embed-proper", "embed-lp", "coarse", "moduli"]
    )
    def test_unwritable_out_exits_two(self, tmp_path, capsys, mode):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[6,8]]}')
        out = fixture / "r.json"  # under a regular file: no directory to write in
        assert run_cli(mode, "--input", fixture, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("blockembed: error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "mode, flag",
        [("validate", "--lambda-sim"), ("net", "--delta"), ("moduli", "--epsilon")],
    )
    def test_nan_setting_a_mode_ignores_exits_two(self, tmp_path, capsys, mode, flag):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[6,8]]}')
        assert run_cli(mode, "--input", fixture, flag, "nan") == 2
        err = capsys.readouterr().err
        assert err.startswith("blockembed: error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # 20 * lambda_sim^2 * (1 + delta)^2 overflows, or is infinite
            ("embed-lp", "--lambda-sim", "1e200"),
            ("coarse", "--lambda-sim", "1e200"),
            ("moduli", "--lambda-sim", "1e200"),
            ("embed-lp", "--delta", "inf"),
            ("gen", "--kind", "random-lp-cloud", "--box", "inf"),
            ("gen", "--kind", "random-lp-cloud", "--box", "nan"),
            ("gen", "--kind", "random-graph-metric", "--edge-prob", "0"),
            ("gen", "--kind", "random-graph-metric", "--edge-prob", "-1"),
            ("gen", "--kind", "random-graph-metric", "--edge-prob", "nan"),
            ("gen", "--kind", "random-graph-metric", "--edge-prob", "1.5"),
            # an infinite tolerance or net radius would pass every pair
            ("embed-proper", "--tolerance", "inf"),
            ("net", "--epsilon", "inf"),
            ("coarse", "--epsilon", "inf"),
            ("coarse", "--epsilon", "1e308"),  # finite, but C_a = 9 eps is not
        ],
    )
    def test_bad_parameter_exits_two(self, tmp_path, capsys, argv):
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3,4],[6,8]]}')
        if argv[0] == "gen":
            where = ("--n", 8, "--out", tmp_path / "g.json")
        else:
            where = ("--input", fixture)
        assert run_cli(*argv, *where) == 2
        err = capsys.readouterr().err
        assert err.startswith("blockembed: error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mode, space",
        [
            *[
                (mode, '{"p":"inf","points":[[0,0],[1e308,0],[5e307,1e307]]}')
                for mode in ("embed-lp", "coarse", "moduli", "embed-proper")
            ],
            # a norm at or past 2^1023: 2^(n+1) of its shell is no double
            ("embed-proper", '{"dist":[[0,1e308],[1e308,0]]}'),
            ("moduli", '{"dist":[[0,1e308],[1e308,0]]}'),
            # shell 1022: its level-1 net radius 2^1024 is no double
            ("embed-proper", '{"dist":[[0,3e307,3e307],[3e307,0,3e307],[3e307,3e307,0]]}'),
        ],
    )
    def test_norm_past_the_last_dyadic_shell_exits_two(self, tmp_path, capsys, mode, space):
        fixture = tmp_path / "s.json"
        fixture.write_text(space)
        out = tmp_path / "out.json"
        assert run_cli(mode, "--input", fixture, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("blockembed: error:") and err.count("\n") == 1
        assert "shell" in err and not out.exists()

    @pytest.mark.parametrize(
        "mode, space, field",
        [
            ("embed-lp", '{"p":null,"points":[[0,0],[3,4]]}', "p"),
            ("embed-lp", '{"p":[2],"points":[[0,0],[3,4]]}', "p"),
            ("embed-lp", '{"p":true,"points":[[0,0],[3,4]]}', "p"),  # not p = 1
            ("embed-proper", '{"points":3,"dist":[[0,1],[1,0]]}', '"points"'),
            ("embed-proper", '{"points":"ab","dist":[[0,1],[1,0]]}', '"points"'),  # not labels a, b
            # integers past the double range, where float() overflows
            pytest.param("embed-lp", HUGE_SPACES["p"], "p", id="huge-p"),
            pytest.param("embed-lp", HUGE_SPACES["points"], '"points"', id="huge-points"),
            pytest.param("embed-proper", HUGE_SPACES["dist"], '"dist"', id="huge-dist"),
        ],
    )
    def test_malformed_space_field_exits_two(self, tmp_path, capsys, mode, space, field):
        fixture = tmp_path / "s.json"
        fixture.write_text(space)
        assert run_cli(mode, "--input", fixture) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"blockembed: error: {field} ") and err.count("\n") == 1
        with pytest.raises(ParseError, match=field):
            parse_space(fixture)

    @pytest.mark.parametrize("key, field", [("p", "p"), ("points", '"points"'), ("dist", '"dist"')])
    def test_validate_reports_an_integer_past_the_double_range(self, tmp_path, key, field):
        fixture = tmp_path / "s.json"
        fixture.write_text(HUGE_SPACES[key])
        report = tmp_path / "rep.json"
        assert run_cli("validate", "--input", fixture, "--out", report) == 1
        payload = json.loads(report.read_text())
        assert payload["error_type"] == "ParseError"
        assert payload["error"].startswith(f"{field} holds an integer too large")

    @pytest.mark.parametrize("exponent", ["-300", "300"])
    def test_validate_l2_cloud_at_extreme_scale(self, tmp_path, exponent):
        # the squares of these coordinates under- or overflow a double
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3e%s,4e%s]]}' % (exponent, exponent))
        report = tmp_path / "rep.json"
        assert run_cli("validate", "--input", fixture, "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["valid"] is True
        expected = float("5e" + exponent)
        assert payload["min_positive_distance"] == pytest.approx(expected, rel=1e-15)

    def test_validate_cloud_at_an_exponent_past_1022(self, tmp_path):
        # 2^1100 overflows, and 0.5^1100, the power-of-two redo's, is 0
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p": 1100, "points": [[0], [2], [5]]}')
        report = tmp_path / "rep.json"
        assert run_cli("validate", "--input", fixture, "--out", report) == 0
        payload = json.loads(report.read_text())
        assert payload["valid"] is True
        assert (payload["diameter"], payload["min_positive_distance"]) == (5, 2)
        cloud = tmp_path / "g.json"
        assert run_cli("gen", "--kind", "random-lp-cloud", "--n", 64, "--p", 1100, "--out", cloud) == 0
        assert run_cli("validate", "--input", cloud, "--out", report) == 0

    @pytest.mark.parametrize("scale, shift", [(1e200, -1000), (1e-200, 1000)])
    def test_validate_l3_cloud_past_the_range_of_its_cubes(self, tmp_path, capsys, scale, shift):
        # the cubes of these coordinates over- or underflow a double
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]) * scale
        fixture = tmp_path / "c.json"
        write_space(LpPointSet(3.0, pts), fixture)
        report = tmp_path / "rep.json"
        assert run_cli("validate", "--input", fixture, "--out", report) == 0
        assert json.loads(report.read_text())["valid"] is True
        # the l_p embedding normalizes by the same norms
        assert run_cli("embed-lp", "--input", fixture, "--out", report) == 0
        assert "Warning" not in capsys.readouterr().err
        scaled = np.ldexp(pts, shift)
        brute = [[oracles.brute_lp_dist(x, y, 3.0) for y in scaled] for x in scaled]
        dist = LpPointSet(3.0, pts).metric_space.dist
        np.testing.assert_allclose(dist, np.ldexp(brute, -shift), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode", ["embed-lp", "coarse"])
    def test_cloud_with_overflowing_squares_certifies(self, tmp_path, mode):
        # the squares of the image distances overflow a double; the scaled fold does not
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3e300,4e300],[6e300,1e300]]}')
        report = tmp_path / "rep.json"
        assert run_cli(mode, "--input", fixture, "--out", report) == 0
        checks = json.loads(report.read_text())["checks"]
        assert checks["pairs_passed"] == checks["pairs_total"] == 3

    @pytest.mark.parametrize("gap", ["1e-170", "1e-300"])
    def test_cloud_with_underflowing_squares_certifies(self, tmp_path, gap):
        # the squares of the (1, 2) image distance underflow a double; the
        # scaled fold's do not
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[1,0],[1,%s]]}' % gap)
        report = tmp_path / "rep.json"
        assert run_cli("embed-lp", "--input", fixture, "--out", report) == 0
        checks = json.loads(report.read_text())["checks"]
        assert checks["pairs_passed"] == checks["pairs_total"] == 3

    @pytest.mark.parametrize("p", [380, 400, 1000, 1100])
    def test_large_p_clouds_certify(self, tmp_path, monkeypatch, p):
        # the p-th powers of these image distances over- and underflow a
        # double, each pair's redo scales them by its own power of two
        built = []

        def recording(build):
            def wrapper(*args, **kwargs):
                built.append(build(*args, **kwargs))
                return built[-1]

            return wrapper

        monkeypatch.setattr(cli, "embed_set_lp", recording(cli.embed_set_lp))
        monkeypatch.setattr(cli, "coarse_embed", recording(cli.coarse_embed))
        cloud = tmp_path / "c.json"
        assert run_cli("gen", "--kind", "random-lp-cloud", "--n", 32, "--p", p, "--out", cloud) == 0
        for mode in ("embed-lp", "coarse"):
            assert run_cli(mode, "--input", cloud, "--out", tmp_path / "rep.json") == 0
        assert len(built) == 2
        for emb in built:
            distances = emb.image_distances
            assert np.isfinite(distances).all() and np.array_equal(distances, distances.T)

    @pytest.mark.parametrize("mode", ["embed-lp", "coarse", "moduli"])
    def test_overflowing_coordinate_differences_exit_two(self, tmp_path, capsys, mode):
        clouds = [
            # 1.7e308 - (-1.7e308) overflows, so the cloud's distances are not finite
            '{"p":2,"points":[[-1.7e308,0],[1.7e308,0],[0,1]]}',
            # normalizing by 1/1e-300 overflows the far point
            '{"p":2,"points":[[0],[1e-300],[1e10]]}',
            # the least norm, 1e-320, has no finite reciprocal to normalize by
            '{"p":2,"points":[[0,0],[1,0],[1e-320,0]]}',
        ]
        fixture = tmp_path / "c.json"
        for cloud in clouds:
            fixture.write_text(cloud)
            # coarse's net keeps every point at this epsilon
            assert run_cli(mode, "--input", fixture, "--epsilon", "1e-323") == 2
            err = capsys.readouterr().err
            assert err.startswith("blockembed: error:")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", CLOUD_MODES)
    @pytest.mark.parametrize(
        "cloud",
        [
            # finite, but the l_1 sum of a row of eight overflows
            '{"p":1,"points":[[1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308],[0,0,0,0,0,0,0,0]]}',
            # a NaN row that also overflows when squared
            '{"p":2,"points":[[1.7e308,NaN,0,0,0,0,0,0],[0,0,0,0,0,0,0,0]]}',
            # inf - inf on the coordinate-plane path
            '{"p":3,"points":[[Infinity],[0]]}',
        ],
    )
    def test_non_finite_distances_fail_without_a_warning(self, tmp_path, capsys, mode, cloud):
        fixture = tmp_path / "c.json"
        fixture.write_text(cloud)
        assert run_cli(mode, "--input", fixture, "--out", tmp_path / "rep.json") == (
            1 if mode == "validate" else 2
        )
        err = capsys.readouterr().err
        assert "Warning" not in err
        if mode == "validate":
            assert err == ""
            assert json.loads((tmp_path / "rep.json").read_text())["valid"] is False
        else:
            assert err == "blockembed: error: matrix entries must be finite\n"

    @given(
        st.sampled_from([1.0, 2.0, 3.0, math.inf]),
        st.sampled_from([1, 2, 8, 9]).flatmap(
            lambda dim: st.lists(
                st.lists(st.sampled_from(CONTRACT_COORDS), min_size=dim, max_size=dim),
                min_size=2,
                max_size=5,
            )
        ),
    )
    # pair (1, 2) has d = 1 and an image distance of 9.97e-321: d / v overflows
    @example(p=1.0, points=[[1e150, 0.0], [0.0, 0.0], [1.0, 1e-320]])
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_cloud_modes_keep_the_error_contract(self, tmp_path, p, points):
        fixture = tmp_path / "c.json"
        fixture.write_text(json.dumps({"p": "inf" if math.isinf(p) else p, "points": points}))
        for mode in CLOUD_MODES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(mode, "--input", fixture)
            if code == 2:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("blockembed: error:")
                assert err.getvalue().count("\n") == 1
            else:
                assert code in (0, 1)
                assert err.getvalue() == ""
                assert json.loads(out.getvalue())["mode"] == mode

    def test_wide_cloud_builds_only_the_shells_it_carries(self, tmp_path, monkeypatch, capsys):
        # norms from 1e-320 to 1e300: 2,062 shells from the first tier to the
        # last, of which 8 carry a point
        built = []

        def recording(*args, **kwargs):
            built.append(proper.embed_space_proper(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "embed_space_proper", recording)
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[1e-320,0],[1e300,0],[1,1],[-1e150,3.5]]}')
        assert run_cli("embed-proper", "--input", fixture) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["constants"] == {
            "weight_series_sum": 3.153348094937162,
            "c_trunc": 3.1514113122886465,
            "upper_factor": 28.36270181059782,
            "lower_envelope": "t / (24 * max(log_growth(t), log_growth(t / 128)))",
            "log_base": 2,
            "n_min": -1064,
            "n_max": 997,
            "k_slack": 4,
            "theta_mode": "exact",
            "theta_interval": [1, 1],
        }
        assert payload["checks"] == {
            "pairs_total": 10,
            "pairs_passed": 9,
            "pairs_failed": 1,
            "worst_lower_slack": -5e-324,
            "worst_upper_slack": 2.83623e-319,
            "empirical_distortion": "unbounded",
            "tolerance": 1e-09,
        }
        (emb,) = built
        # the basepoint and the point 1e-320 from it get the same image
        assert np.argwhere(np.triu(emb.image_distances == 0, 1)).tolist() == [[0, 1]]
        tiers = [run[0] for run in proper.shell_runs(emb.pspace.norms())[1]]
        assert len(emb.hierarchy.nets) <= sum(emb.params.k_max[n] for n in tiers)

    # 5e-324 / 2 rounds to 0, and so does t / 128 up to 2^-1068; the proper
    # map sends both points to 0, which its lower envelope, floored at
    # 2^-1074, fails
    @pytest.mark.parametrize("d", [5e-324, 1e-323, 2.0**-1068])
    @pytest.mark.parametrize("mode", ["embed-proper", "moduli"])
    def test_subnormal_distances_are_valid_input(self, tmp_path, capsys, mode, d):
        fixture = tmp_path / "s.json"
        fixture.write_text(json.dumps({"dist": [[0, d], [d, 0]]}))
        collapsed = mode == "embed-proper"
        assert run_cli(mode, "--input", fixture) == (1 if collapsed else 0)
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        assert payload["pass"] is not collapsed
        if collapsed:
            assert payload["checks"]["pairs_failed"] == 1
            assert payload["checks"]["worst_lower_slack"] == -5e-324
        thresholds = payload["moduli"]["thresholds"]
        assert min(thresholds) == max(d / 2, 5e-324)
        assert thresholds[-1] == 2 * d

    def test_collapsed_cloud_pair_fails_embed_lp(self, tmp_path, capsys):
        # the pair of test_a_collapsed_pair_fails_at_subnormal_scale, through the CLI
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p": "inf", "points": [[0, 0], [1, 1e-323], [1, 1.5e-323]]}')
        assert run_cli("embed-lp", "--input", fixture, "--lambda-sim", "2") == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert (checks["pairs_failed"], checks["worst_lower_slack"]) == (1, -5e-324)

    def test_overflowing_upper_envelope_stays_silent(self, tmp_path, monkeypatch, capsys):
        # c_d * d overflows to inf, silently as in float arithmetic: the report
        # (pinned by its digest) and the empty stderr are those of a per-pair loop
        import hashlib

        from blockembed.fixtures import random_lp_cloud

        monkeypatch.chdir(tmp_path)  # the report echoes the input path
        pts = random_lp_cloud(30, 3, 2.0, seed=3).points * 1e200
        write_space(LpPointSet(2.0, pts), "c.json")
        argv = ("coarse", "--input", "c.json", "--lambda-sim", "1e100", "--epsilon", "1e199")
        assert run_cli(*argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["checks"]["worst_upper_slack"] == "unbounded"
        digest = "140efe8a5303a3086f67abdb5a76740b079cc4eb58a7b0568e3d7dab84cba418"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_theta_random_flag(self, tmp_path):
        fixture = tmp_path / "p6.json"
        run_cli("gen", "--kind", "path", "--n", 6, "--out", fixture)
        report = tmp_path / "rep.json"
        code = run_cli(
            "embed-proper", "--input", fixture, "--theta", "random", "--seed", 13,
            "--out", report,
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["constants"]["theta_mode"] == "seeded-random"
        assert payload["constants"]["theta_interval"] == [0.5, 1]


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch):
    # every blockembed line of the README's CLI example block, in its order
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in text.split("```sh")[1:] if "# make a fixture" in b).split("```")[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("blockembed ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == 0, argv


class TestParserReuse:
    """``main`` builds its parser once per process and parses every call with it."""

    GOOD = [
        ["embed-proper", "--input", "g.json", "--theta", "random", "--seed", "3"],
        ["gen", "--kind", "path", "--n", "5", "--out", "p.json"],
        ["validate", "--input", "m.csv", "--format", "csv"],
        ["embed-lp", "--input", "c.json", "--p", "inf", "--lambda-sim", "2"],
        ["gen", "--kind", "random-lp-cloud", "--n", "9", "--dim", "2", "--out", "c.json"],
        ["coarse", "--input", "c.json", "--epsilon", "0.5", "--tolerance", "0"],
        ["moduli", "--input", "g.json", "--basepoint", "2", "--moduli-points", "4"],
        ["net", "--input", "g.json"],
        ["embed-proper", "--input", "g.json"],
    ]
    BAD = [
        ["embed-proper", "--theta", "sideways"],
        ["gen", "--n", "5"],  # no --kind
        ["nosuchmode"],
        ["embed-lp", "--p", "0.5"],
        ["validate", "--basepoint", "x"],
        [],
    ]

    def test_calls_parse_as_with_a_fresh_parser(self, monkeypatch, capsys):
        assert cli._build_parser() is cli._build_parser()
        fresh = cli._build_parser.__wrapped__  # an uncached build
        seen = []

        def record(config):
            seen.append(config)
            raise cli.UsageError("recorded")

        monkeypatch.setattr(cli, "run_report", record)
        for _ in range(2):
            for good, bad in zip(self.GOOD, self.BAD + self.BAD):
                assert main(good) == 2  # the recorded run's usage error
                assert seen.pop() == cli.RunConfig(**vars(fresh().parse_args(good)))
                with pytest.raises(SystemExit) as err:
                    main(bad)
                assert err.value.code == 2
                with pytest.raises(SystemExit) as err:
                    fresh().parse_args(bad)
                assert err.value.code == 2
        assert not seen
        capsys.readouterr()


NO_MA_SCRIPT = """
import sys
from blockembed.cli import main
kinds = ["random-graph-metric", "random-lp-cloud", "grid-net", "path", "star"]
modes = ["validate", "net", "embed-proper", "embed-lp", "coarse", "moduli"]
for kind in kinds:
    assert main(["gen", "--kind", kind, "--n", "12", "--dim", "2", "--k", "1", "--out", kind]) == 0
codes = {kind: [main([mode, "--input", kind, "--out", "rep.json"]) for mode in modes] for kind in kinds}
print(codes, "numpy.ma" in sys.modules)
"""


def test_no_mode_imports_numpy_ma(tmp_path):
    # numpy.ma, which some numpy set routines import, adds about 1 MB and
    # 20-40 ms to a run; a fresh interpreter runs gen for every kind and
    # every other mode on each output, and never loads it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blockembed.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", NO_MA_SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    matrix, cloud = [0, 0, 0, 2, 2, 0], [0] * 6  # embed-lp and coarse need a cloud
    codes = {"random-graph-metric": matrix, "random-lp-cloud": cloud, "grid-net": cloud}
    assert proc.stdout.splitlines()[-1] == f"{codes | dict(path=matrix, star=matrix)} False"


class TestDeterminism:
    def test_gen_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("gen", "--kind", "random-graph-metric", "--n", 18, "--seed", 7, "--out", a)
        run_cli("gen", "--kind", "random-graph-metric", "--n", 18, "--seed", 7, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_byte_identical(self, tmp_path):
        fixture = tmp_path / "c.json"
        run_cli(
            "gen", "--kind", "random-lp-cloud", "--n", 20, "--dim", 3,
            "--seed", 5, "--out", fixture,
        )
        report = tmp_path / "rep.json"
        run_cli(
            "embed-lp", "--input", fixture, "--theta", "random", "--seed", 3,
            "--out", report,
        )
        first = report.read_bytes()
        run_cli(
            "embed-lp", "--input", fixture, "--theta", "random", "--seed", 3,
            "--out", report,
        )
        assert report.read_bytes() == first

    # sha256 of reports whose numbers a change of kernel or hierarchy must not
    # move; the cloud has m > 256, so its kernel runs in several chunks
    GOLDEN = [
        ("graph", ("embed-proper", "--theta", "random", "--seed", "7"),
         "998ac7d0c10e98fc125e7a1fe7578d6e1cffa84b054af8cee55bb19459d97732"),
        ("graph", ("moduli", "--theta", "random", "--seed", "7"),
         "e022cc67077dc1739c0cc486df395bc2ba2c38245d9064177491c3a607cddaa5"),
        ("path", ("embed-proper",),
         "f18b6404eb2c0cbe1db8887a5be2529af1e054d88b8c12d70fe01286c45ae2f6"),
        ("path", ("moduli",),
         "937d79d4685da7588120666a0a5527aa3f80ece91f8cdf139be597168b94a202"),
        ("cloud", ("embed-lp",),
         "bb93bcc7f48db74919c32e5903b914851fea6c70d50c308459486beb82207e2f"),
        ("cloud", ("coarse",),
         "018ad2a8c46279692a5780c971d059c9d534400165448eee2acbfba3d8920704"),
        # embed-proper across the screen of _image_distances
        ("graph-exact", ("embed-proper",),
         "5ac4e3901c97844245634a5853b0add03741d1ba2bdead64f5811f49ad9601c7"),
        ("star", ("embed-proper",),
         "f0423e2e13a099b5d615f65f540cf6842e043a75c890014a63253b9ea9c4d77b"),
        ("l1", ("embed-proper",),
         "43730b41ebd94588b08e7426c39baf6f7be9815db66eeeee08aa74a24f262365"),
        ("cloud", ("embed-proper",),
         "f1d2694133404452b8ff975d194d3980318b1496883952fb09f94d75d7f01f56"),
        ("linf", ("embed-proper",),
         "cd0c6cec14b573a678064111f7bfe9448ddf98dd70fb98e780053e8c99b61fb0"),
        # the l_p certificates on l_1 and l_inf clouds
        ("l1", ("embed-lp",),
         "d29e15f44037b985e9d87bb863828787ac25495e6b83fc38540960b503f11c67"),
        ("l1", ("coarse",),
         "fbc71f46bcea6abe6188cdef7e085a68ffa5900413557cc4e17e8bfa39df44a7"),
        ("linf", ("embed-lp",),
         "90a2e192503a8e98fa1fdb759b4000a8def304e00771584327c45c3998950c70"),
        ("linf", ("coarse",),
         "3a7d176c478a2cb011c836441f9d40f75e438c10f5d94076aa6a659c87be43f5"),
        # a coarse net many points round onto, so beta and the deviation
        # read rows of non-members
        ("cloud-eps6", ("coarse", "--epsilon", "6"),
         "a274fc334e2698d8ea64431a5e5218eefd254033d529044a587bfb80ee112783"),
        ("cloud", ("net",),
         "9f7b0c6910e0979155fba00550f38e2b0f50b65767ef9d5b72e345db8801bcc2"),
    ]

    @pytest.mark.parametrize(
        "name, argv, digest", GOLDEN, ids=[f"{name}-{argv[0]}" for name, argv, _ in GOLDEN]
    )
    def test_golden_report_digests(self, name, argv, digest, tmp_path, monkeypatch, capsys):
        import hashlib

        from blockembed.fixtures import star_metric

        monkeypatch.chdir(tmp_path)  # the report echoes the input path
        space = {
            "graph": lambda: random_graph_metric(96, None, 7),
            "graph-exact": lambda: random_graph_metric(96, None, 7),
            "path": lambda: path_metric(64),
            "cloud": lambda: random_lp_cloud(300, 3, 2.0, 7),
            "cloud-eps6": lambda: random_lp_cloud(300, 3, 2.0, 7),
            "star": lambda: star_metric(40),
            "l1": lambda: random_lp_cloud(150, 3, 1.0, 7),
            "linf": lambda: random_lp_cloud(150, 3, math.inf, 7),
        }[name]()
        write_space(space, f"{name}.json")
        assert run_cli(argv[0], "--input", f"{name}.json", *argv[1:]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _perfbench_module(name):
    """perfbench/<name>.py, loaded by path and left out of sys.modules once
    loaded (a dataclass looks its module up there while it is built)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_request_passes_its_correctness_gate(tmp_path):
    # one seed of each workload of perfbench/, every request run twice: each
    # report must hold up against the benchmark's own reference values, and
    # the repeat must write the same bytes
    workloads, gate, reference = map(_perfbench_module, ("workloads", "gate", "reference"))
    for workload in workloads.WORKLOADS:
        for request in workloads.prepare(workload, 1, tmp_path / workload):
            out = tmp_path / workload / f"{request.key}.json"
            codes, reports = [], []
            for _ in range(2):
                codes.append(main(request.argv(str(out))))
                reports.append(out.read_bytes())
            want = reference.reference_fields(request.mode, request.input, request.flags)
            reasons = gate.check_report(reports[0].decode(), request.n, want)
            failures = gate.certificate_failures(max(codes), reports[0] == reports[1], reasons)
            assert failures == [], f"{workload} {request.key}"


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/spans.py swaps these functions for timing wrappers (--trace
    # 1), looked up by name in each blockembed.<layer>
    import importlib

    wrapped = _perfbench_module("spans").WRAPPED
    assert sum(map(len, wrapped.values())) > 0
    for module, names in wrapped.items():
        layer = importlib.import_module(f"blockembed.{module}")
        for name in names:
            assert callable(getattr(layer, name, None)), f"blockembed.{module}.{name}"


def test_the_benchmark_tracer_counts_what_it_reads():
    # spans.Tracer reads NetHierarchy.nets, Net.members and BlockVector.blocks
    # from the results and arguments of the functions it wraps, then restores them
    tracer = _perfbench_module("spans").Tracer()
    pspace = PointedSpace(random_graph_metric(16), 0)

    def wrapped():
        return proper.build_hierarchy, proper.embed_point_proper, blocks.pairwise_distance_matrix

    originals = wrapped()
    with tracer.active():
        params = proper.make_proper_params(pspace)
        hierarchy = proper.build_hierarchy(pspace, params)
        images = [proper.embed_point_proper(t, pspace, params, hierarchy) for t in range(16)]
        blocks.pairwise_distance_matrix(images, math.inf)
    assert wrapped() == originals
    assert tracer.counts["proper.nets"] == len(hierarchy.nets) > 0
    assert tracer.counts["proper.image_coords"] > 0 and tracer.counts["blocks.blocks"] > 0


@pytest.mark.parametrize("fixture", ["l2-cloud", "random-graph"])
def test_the_scale_sweep_predicts_block_sizes(fixture):
    # perfbench/sweep.py reads the block sizes of LpEmbedding.images
    space = random_lp_cloud(16, 3, 2.0, 1) if fixture == "l2-cloud" else random_graph_metric(16)
    predicted = _perfbench_module("sweep").predict(fixture, space)
    assert predicted["blocks"] > 0 and predicted["pairwise_bytes_computed"] > 0
