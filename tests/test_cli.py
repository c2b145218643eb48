import json
import math
import sys

import pytest

from blockembed import blocks
from blockembed.cli import RunConfig, main, run_report
from blockembed.io import ParseError, UnknownFormat, atomic_write_text, dumps_report, parse_space
from blockembed.lp_coarse import LpPointSet
from blockembed.metric import FiniteMetricSpace, TooFewPoints, TriangleViolation


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
        [("embed-proper", "path"), ("embed-lp", "random-lp-cloud"), ("coarse", "random-lp-cloud")],
    )
    def test_pairwise_kernel_runs_once_per_certificate(self, tmp_path, monkeypatch, mode, kind):
        fixture = tmp_path / "f.json"
        assert run_cli("gen", "--kind", kind, "--n", 12, "--seed", 3, "--out", fixture) == 0
        original = blocks.pairwise_distance_matrix
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

    @pytest.mark.parametrize("mode", ["embed-lp", "coarse"])
    def test_overflowing_image_distances_exit_two(self, tmp_path, capsys, mode):
        # the cloud validates, but the l_2 fold of its image distances overflows
        fixture = tmp_path / "c.json"
        fixture.write_text('{"p":2,"points":[[0,0],[3e300,4e300],[6e300,1e300]]}')
        assert run_cli(mode, "--input", fixture) == 2
        err = capsys.readouterr().err
        assert err.startswith("blockembed: error:")
        assert "Traceback" not in err

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
