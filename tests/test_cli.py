import json
import math
import sys

import numpy as np
import pytest

from blockembed import blocks, lp_coarse, metric, proper
from blockembed.cli import RunConfig, main, run_report
from blockembed.io import (
    ParseError,
    UnknownFormat,
    atomic_write_text,
    dumps_report,
    parse_space,
    write_space,
)
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
        assert space.d(0, 1) == 1.0

    def test_json_cloud_three_four_five(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"p":2,"points":[[0,0],[3,4]]}')
        cloud = parse_space(path, "json")
        assert isinstance(cloud, LpPointSet)
        assert cloud.distance_matrix[0, 1] == 5.0

    def test_json_cloud_inf_exponent(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"p":"inf","points":[[0,0],[3,4]]}')
        cloud = parse_space(path, "json")
        assert math.isinf(cloud.p)
        assert cloud.distance_matrix[0, 1] == 4.0

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
        assert space.d(0, 1) == 1.0

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

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "sub" / "report.json"
        atomic_write_text(target, "{}\n")
        assert target.read_text() == "{}\n"
        assert list(target.parent.iterdir()) == [target]


def run_cli(*args):
    return main([str(a) for a in args])


ONE_POINT = {"cloud": '{"p":2,"points":[[1.5,2.0]]}', "matrix": '{"dist":[[0]]}'}


class TestCliModes:
    def test_gen_and_embed_proper_path(self, tmp_path, capsys):
        fixture = tmp_path / "p4.json"
        report = tmp_path / "rep.json"
        assert run_cli("gen", "--kind", "path", "--n", 4, "--out", fixture) == 0
        parsed = parse_space(fixture, "json")
        assert parsed.d(0, 3) == 3.0
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
        "mode, flags, expected",
        [
            ("embed-proper", ("--basepoint", 2), 1),
            ("embed-proper", ("--p", 1), 1),
            ("net", ("--p", "inf", "--basepoint", 3), 1),
            # embed-lp also validates the normalized copy it certifies
            ("embed-lp", ("--p", 1), 2),
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
            (2.0, 3, 1e-300, True),  # l_2 entries below 2^-480
        ],
    )
    def test_triangle_scan_runs_only_where_unproved(
        self, tmp_path, monkeypatch, mode, p, dim, scale, scanned
    ):
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
        originals = {
            "embed_point_proper": proper.embed_point_proper,
            "embed_point_lp": lp_coarse.embed_point_lp,
            "pairwise_distance_matrix": blocks.pairwise_distance_matrix,
        }
        calls = dict.fromkeys(originals, 0)
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
        assert calls == dict.fromkeys(originals, 0)

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
        assert space.d(1, 2) == 2.0

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

    @pytest.mark.parametrize("mode", ["embed-lp", "coarse"])
    def test_overflowing_coordinate_differences_exit_two(self, tmp_path, capsys, mode):
        # 1.7e308 - (-1.7e308) overflows, so the cloud's distances are not finite
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[-1.7e308,0],[1.7e308,0],[0,1]]}')
        assert run_cli(mode, "--input", fixture) == 2
        err = capsys.readouterr().err
        assert err.startswith("blockembed: error:")
        assert "Traceback" not in err

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
