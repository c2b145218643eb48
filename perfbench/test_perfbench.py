"""Tests of the benchmark itself: the gate, the reference and the tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from blockembed import cli  # noqa: E402
from blockembed.fixtures import path_metric, random_graph_metric, random_lp_cloud  # noqa: E402
from blockembed.io import write_space  # noqa: E402

from gate import certificate_failures, check_report  # noqa: E402
from reference import reference_fields  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
from workloads import Request  # noqa: E402

CASES = [
    ("graph", lambda: random_graph_metric(40, None, 3), "embed-proper",
     ("--theta", "random", "--seed", "3")),
    ("path", lambda: path_metric(33), "embed-proper", ()),
    ("lp", lambda: random_lp_cloud(30, 3, 2.0, 4), "embed-lp",
     ("--lambda-sim", "2", "--delta", "0.01", "--seed", "4")),
    ("coarse-l1", lambda: random_lp_cloud(30, 3, 1.0, 5), "coarse", ("--epsilon", "1")),
    ("coarse-linf", lambda: random_lp_cloud(30, 3, float("inf"), 6), "coarse",
     ("--epsilon", "1")),
]


def _certify(tmp_path, name, make, mode, flags):
    space = make()
    path = tmp_path / f"{name}.json"
    write_space(space, path)
    request = Request(name, mode, str(path), flags, space.n_points)
    out = tmp_path / f"{name}.report.json"
    assert cli.main(request.argv(str(out))) == 0
    return request, out.read_text()


@pytest.mark.parametrize("name,make,mode,flags", CASES, ids=[c[0] for c in CASES])
def test_reference_agrees_with_program(tmp_path, name, make, mode, flags):
    request, text = _certify(tmp_path, name, make, mode, flags)
    ref = reference_fields(mode, request.input, flags)
    assert "checks.worst_lower_slack" in ref and "moduli.compression" in ref
    assert check_report(text, request.n, ref) == []


def _altered(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


ALTERATIONS = {
    "slack": lambda r: r["checks"].__setitem__(
        "worst_lower_slack", r["checks"]["worst_lower_slack"] * (1 + 1e-9)
    ),
    "distortion": lambda r: r["checks"].__setitem__("empirical_distortion", 1.0),
    "constant": lambda r: r["constants"].__setitem__("c_trunc", 3.0),
    "moduli": lambda r: r["moduli"]["expansion"].pop(),
    "pass": lambda r: r.__setitem__("pass", False),
    "pairs_total": lambda r: r["checks"].__setitem__("pairs_total", 1),
    "missing_field": lambda r: r["checks"].pop("worst_upper_slack"),
}


@pytest.mark.parametrize("alteration", sorted(ALTERATIONS))
def test_gate_rejects_altered_report(tmp_path, alteration):
    name, make, mode, flags = CASES[0]
    request, text = _certify(tmp_path, name, make, mode, flags)
    ref = reference_fields(mode, request.input, flags)
    reasons = check_report(_altered(text, ALTERATIONS[alteration]), request.n, ref)
    assert reasons, f"gate accepted a report with an altered {alteration}"


def test_gate_rejects_bad_exit_and_non_identical_repeat():
    assert certificate_failures(0, True, []) == []
    assert certificate_failures(1, True, [])
    assert certificate_failures(0, False, [])
    assert check_report("not json", 2, {})


def test_tracer_covers_a_certificate_and_restores_the_program(tmp_path):
    import blockembed.blocks as blocks

    original = blocks.pairwise_distance_matrix
    tracer = Tracer()
    name, make, mode, flags = CASES[0]
    space = make()
    path = tmp_path / "g.json"
    write_space(space, path)
    request = Request(name, mode, str(path), flags, space.n_points)
    with tracer.active():
        assert cli.pairwise_distance_matrix is not original
        assert cli.main(request.argv(str(tmp_path / "r.json"))) == 0
    assert blocks.pairwise_distance_matrix is original
    assert cli.pairwise_distance_matrix is original

    layers = tracer.layer_metrics(1, untraced_s=tracer.stage_sum)
    assert set(layers) == {name for name, _ in LAYER_METRICS}
    n = space.n_points
    assert layers["metric.pairs_checked"] == n * (n - 1) // 2
    assert layers["metric.validate_triples"] == n**3
    assert layers["blocks.pairwise_s"] > 0 and layers["proper.nets"] > 0
    assert 0 < layers["blocks.carried_pair_frac"] <= 1
    assert layers["trace.unaccounted_frac"] == pytest.approx(0.0, abs=1e-12)
    parts = sum(v for k, v in layers.items() if k.endswith("_s") and k != "trace.stage_sum_s")
    assert parts <= layers["trace.stage_sum_s"] * (1 + 1e-9)


def test_end_to_end_takes_each_requests_fastest_repeat_on_the_chosen_clock():
    from run import end_to_end

    def cert(key, wall, cpu):
        return {"key": key, "exit": 0, "identical": True, "wall_s": wall, "cpu_s": cpu}

    result = {
        "requests": [{"key": "a", "n": 3}, {"key": "b", "n": 5}],
        "certificates": [
            cert("a", None, None),  # a warm-up pass is not timed
            cert("a", 2.0, 1.5),
            cert("b", 4.0, 3.0),
            cert("a", 1.8, 1.6),
            cert("b", 5.0, 2.5),
        ],
        "maxrss_mb": 64.0,
    }
    setups = [{"setup_wall_s": w, "setup_cpu_s": c} for w, c in ((1.0, 0.9), (3.0, 0.7), (2.0, 0.8))]
    cpu = {k: m["value"] for k, m in end_to_end(result, setups, "cpu").items()}
    assert cpu == {
        "setup_s": 0.8,
        "cert_p50_s": 2.0,
        "pairs_per_s": (3 + 10) / 4.0,
        "peak_rss_mb": 64.0,
    }
    wall = {k: m["value"] for k, m in end_to_end(result, setups, "wall").items()}
    assert wall["setup_s"] == 2.0 and wall["cert_p50_s"] == pytest.approx(2.9)


def test_end_to_end_scales_certificate_times_by_the_fastest_probe():
    from run import PROBE_NOMINAL_S, end_to_end, host_scale

    probes = [{"cpu_s": 4 * PROBE_NOMINAL_S}, {"cpu_s": 2 * PROBE_NOMINAL_S}]
    scale = host_scale(probes, "cpu")
    assert scale == 0.5
    result = {
        "requests": [{"key": "a", "n": 3}],
        "certificates": [{"key": "a", "exit": 0, "identical": True, "wall_s": 1.0, "cpu_s": 4.0}],
        "maxrss_mb": 64.0,
    }
    setups = [{"setup_wall_s": 1.0, "setup_cpu_s": 0.9}]
    metrics = {k: m["value"] for k, m in end_to_end(result, setups, "cpu", scale).items()}
    assert metrics == {
        "setup_s": 0.9,
        "cert_p50_s": 2.0,
        "pairs_per_s": 3 / 2.0,
        "peak_rss_mb": 64.0,
    }
