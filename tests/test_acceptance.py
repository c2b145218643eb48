"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured runtimes.  Criteria:

1. proper-embedding bound suite over 100 seeded fixtures, both theta modes
2. lp-embedding bound suite over 60 seeded clouds x 12 parameter combos
3. coarse composition suite (net rounding + lp embedding), both epsilons
4. oracle equivalence against independent brute-force loops
5. structural invariants (coordinates, boundaries, pairing, recovery)
6. constants (series total, envelope values, report echoes)
7. byte-identical reports for identical configs and seeds
"""

import json
import math
import time

import numpy as np
import pytest

from blockembed.blocks import BlockIsoModel, pair_index, pairwise_distance_matrix
from blockembed.cli import main as cli_main
from blockembed.fixtures import (
    grid_net_cloud,
    path_metric,
    random_graph_metric,
    random_lp_cloud,
    star_metric,
)
from blockembed.lp_coarse import (
    LpParams,
    coarse_embed,
    embed_set_lp,
    max_rounding_deviation,
    net_round,
    verify_coarse,
    verify_lp,
)
from blockembed.metric import (
    PointedSpace,
    TriangleViolation,
    moduli_profile,
    validate_metric,
    verify_bounds,
)
from blockembed.proper import (
    CODOMAIN_P,
    WEIGHT_SERIES_SUM,
    annulus_index,
    embed_point_proper,
    embed_space_proper,
    separation_envelope,
    tier_weight,
    verify_proper,
)

import oracles
from oracles import (
    frechet_coords,
    lp_images,
    net_coords,
    project_block,
    proper_images,
    scale_block,
    unpair_index,
)

TOL = 1e-9


def report_line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def proper_fixture_metrics():
    """50 connected random graphs + 50 random l_2 clouds, up to 64 points."""
    spaces = []
    sizes = [8 + (i * 56) // 49 for i in range(50)]
    for i, n in enumerate(sizes):
        spaces.append((f"graph-{n}-s{i}", random_graph_metric(n, seed=1000 + i), 1000 + i))
    for i, n in enumerate(sizes):
        cloud = random_lp_cloud(n, 2 + i % 5, p=2.0, seed=2000 + i)
        spaces.append((f"cloud-{n}-s{i}", cloud.metric_space, 2000 + i))
    return spaces


def test_criterion_1_proper_bound_suite():
    started = time.perf_counter()
    fixtures = proper_fixture_metrics()
    assert len(fixtures) >= 100
    checked = 0
    worst_lower = math.inf
    worst_upper = math.inf
    for name, space, seed in fixtures:
        pspace = PointedSpace(space, 0)
        for iso in (BlockIsoModel.exact(), BlockIsoModel.seeded(0.5, 1.0, seed)):
            emb = embed_space_proper(pspace, iso=iso)
            rep = verify_proper(emb, tolerance=TOL)
            assert rep.passed, (name, iso.mode, rep.worst_lower_slack, rep.worst_upper_slack)
            # the stated inequality, asserted directly on every pair
            images = pairwise_distance_matrix(proper_images(emb), CODOMAIN_P)
            for i, j in zip(*np.triu_indices(space.n_points, k=1)):
                d, v = float(space.dist[i, j]), float(images[i, j])
                assert separation_envelope(d) - TOL <= v <= 9.0 * emb.params.c_trunc * d + TOL
            worst_lower = min(worst_lower, rep.worst_lower_slack)
            worst_upper = min(worst_upper, rep.worst_upper_slack)
            checked += rep.n_pairs
    elapsed = time.perf_counter() - started
    report_line(
        "1 proper-embedding bound suite",
        elapsed <= 60.0,
        f"({len(fixtures)} fixtures x 2 theta modes, {checked} pair checks, "
        f"worst slacks {worst_lower:.3g}/{worst_upper:.3g}, {elapsed:.1f}s)",
    )


def test_criterion_2_lp_bound_suite():
    started = time.perf_counter()
    combos = [
        (p, lam, delta)
        for p in (1.0, 2.0, math.inf)
        for lam in (1.0, 2.0)
        for delta in (0.0, 0.01)
    ]
    sizes = [16, 32, 64, 96, 128]
    dims = [1, 2, 3, 4, 5, 6, 7, 8]
    clouds = 0
    checked = 0
    for ci, (p, lam, delta) in enumerate(combos):
        for r in range(5):
            i = ci * 5 + r
            cloud = random_lp_cloud(sizes[i % 5], dims[i % 8], p=p, seed=3000 + i)
            params = LpParams(
                delta=delta,
                lambda_sim=lam,
                seed=3000 + i,
                theta_mode="exact" if delta == 0 else "seeded-random",
            )
            emb = embed_set_lp(cloud, params)
            rep = verify_lp(emb, tolerance=TOL)
            assert rep.passed, (p, lam, delta, i)
            # relative reading of the tolerance, per envelope value
            space = emb.pointset.metric_space
            images = pairwise_distance_matrix(lp_images(emb), p)
            denom = params.lower_denominator()
            for i, j in zip(*np.triu_indices(space.n_points, k=1)):
                d, v = float(space.dist[i, j]), float(images[i, j])
                assert d / denom * (1.0 - TOL) <= v <= 9.0 * d * (1.0 + TOL)
            clouds += 1
            checked += rep.n_pairs
    elapsed = time.perf_counter() - started
    report_line(
        "2 lp-embedding bound suite",
        clouds >= 50 and elapsed <= 60.0,
        f"({clouds} clouds over {len(combos)} parameter combos, "
        f"{checked} pair checks, {elapsed:.1f}s)",
    )


def test_criterion_3_coarse_suite():
    started = time.perf_counter()
    combos = [
        (p, lam, delta)
        for p in (1.0, 2.0, math.inf)
        for lam in (1.0, 2.0)
        for delta in (0.0, 0.01)
    ]
    checked = 0
    for ci, (p, lam, delta) in enumerate(combos):
        cloud = random_lp_cloud(48, 3, p=p, seed=4000 + ci)
        params = LpParams(
            delta=delta,
            lambda_sim=lam,
            seed=4000 + ci,
            theta_mode="exact" if delta == 0 else "seeded-random",
        )
        for eps in (0.1, 1.0):
            ce = coarse_embed(cloud, eps, params)
            assert ce.constants.c_d == max(9.0, 20.0 * lam**2 * (1 + delta) ** 2)
            assert ce.constants.c_a == 9.0 * eps
            rep = verify_coarse(ce, tolerance=0.0)
            assert rep.passed, (p, lam, delta, eps, rep.worst_lower_slack)
            deviation = max_rounding_deviation(cloud.metric_space, ce.beta)
            assert deviation <= eps + 1e-12
            checked += rep.n_pairs
    elapsed = time.perf_counter() - started
    report_line(
        "3 coarse composition suite",
        elapsed <= 60.0,
        f"({len(combos)} combos x eps in {{0.1, 1}}, {checked} pair checks, {elapsed:.1f}s)",
    )


def oracle_battery():
    """Named fixtures of at most 64 points, one of every kind."""
    battery = []
    for i, n in enumerate((16, 24, 32, 48)):
        battery.append((f"graph-{n}", random_graph_metric(n, seed=5000 + i), None))
    for i, (n, dim) in enumerate(((16, 2), (24, 3), (40, 4), (56, 2))):
        cloud = random_lp_cloud(n, dim, p=2.0, seed=5100 + i)
        battery.append((f"cloud2-{n}", cloud.metric_space, cloud))
    one = random_lp_cloud(24, 3, p=1.0, seed=5200)
    sup = random_lp_cloud(24, 3, p=math.inf, seed=5201)
    battery.append(("cloud1-24", one.metric_space, one))
    battery.append(("cloudinf-24", sup.metric_space, sup))
    battery.append(("path-12", path_metric(12), None))
    battery.append(("star-9", star_metric(9), None))
    grid = grid_net_cloud(1, 3)
    battery.append(("grid-1-3", grid.metric_space, grid))
    return battery


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    fixtures = oracle_battery()
    checks = 0
    for name, space, cloud in fixtures:
        assert space.n_points <= 64
        matrix = space.dist.tolist()
        tol = 1e-12 * max(1.0, float(space.dist.max()))

        # validation agrees with the triple loop, on the fixture and on a
        # deliberately broken copy of it
        assert oracles.brute_triangle_violation(matrix, tol) is None
        broken = space.dist.copy()
        broken[0, 1] = broken[1, 0] = 3.0 * space.diameter() + 1.0
        expected = oracles.brute_triangle_violation(broken.tolist(), tol)
        assert expected is not None
        with pytest.raises(TriangleViolation) as err:
            validate_metric(broken)
        assert (err.value.i, err.value.j, err.value.k) == expected

        # proper embedding distances, moduli, distortion, report extremes
        pspace = PointedSpace(space, 0)
        emb = embed_space_proper(pspace)
        images = proper_images(emb)
        dmat = pairwise_distance_matrix(images, CODOMAIN_P)
        brute = oracles.brute_pair_distances(images, CODOMAIN_P, CODOMAIN_P)
        assert np.allclose(dmat, np.array(brute), atol=1e-12, rtol=1e-12)

        thresholds = [float(t) for t in np.geomspace(0.25, 2 * space.diameter(), 8)]
        prof = moduli_profile(space, thresholds, image_distances=dmat)
        comp, expa = oracles.brute_moduli(matrix, brute, thresholds)
        for a, b in zip(prof.compression, comp):
            assert a == b or abs(a - b) < 1e-12
        for a, b in zip(prof.expansion, expa):
            assert abs(a - b) < 1e-12

        dist = verify_bounds(
            space, np.zeros_like, np.zeros_like, image_distances=dmat
        ).empirical_distortion
        assert dist == pytest.approx(oracles.brute_distortion(matrix, brute), rel=1e-12)

        rep = verify_proper(emb, tolerance=TOL)
        upper_factor = 9.0 * emb.params.c_trunc
        lo, hi = oracles.brute_worst_slacks(
            matrix, brute, separation_envelope, lambda d: upper_factor * d
        )
        assert abs(rep.worst_lower_slack - lo) < 1e-12
        assert abs(rep.worst_upper_slack - hi) < 1e-12

        # every hierarchy net is separated, maximal, and seeded
        for net in emb.hierarchy.nets.values():
            flags = oracles.brute_net_check(
                matrix, net.members, net.center, net.ball_radius, net.radius, 0
            )
            assert flags == (True, True, True), name

        # lp pipeline on the cloud fixtures
        if cloud is not None:
            params = LpParams(delta=0.01, lambda_sim=2.0, seed=5300)
            lp_emb = embed_set_lp(cloud, params)
            lp_rep = verify_lp(lp_emb, tolerance=TOL)
            lp_brute = oracles.brute_pair_distances(lp_images(lp_emb), cloud.p, cloud.p)
            denom = params.lower_denominator()
            lo, hi = oracles.brute_worst_slacks(
                lp_emb.pointset.metric_space.dist.tolist(),
                lp_brute,
                lambda d: d / denom,
                lambda d: 9 * d,
            )
            assert abs(lp_rep.worst_lower_slack - lo) < 1e-12
            assert abs(lp_rep.worst_upper_slack - hi) < 1e-12

            members, beta = net_round(cloud.metric_space, 1.0, cloud.basepoint)
            flags = oracles.brute_net_check(
                cloud.metric_space.dist.tolist(),
                members,
                cloud.basepoint,
                float(cloud.metric_space.dist.max()),
                0.5,
                cloud.basepoint,
            )
            assert flags == (True, True, True)
        checks += 1
    elapsed = time.perf_counter() - started
    report_line(
        "4 oracle equivalence",
        checks == len(fixtures),
        f"({checks} fixtures cross-checked to 1e-12, {elapsed:.1f}s)",
    )


def test_criterion_5_structural_invariants():
    started = time.perf_counter()

    # pairing bijectivity, exhaustive
    seen = set()
    for n in range(-64, 65):
        for k in range(1, 65):
            j = pair_index(n, k)
            assert j not in seen
            seen.add(j)
            assert unpair_index(j) == (n, k)

    fixtures = [
        PointedSpace(path_metric(9), 0),
        PointedSpace(random_graph_metric(24, seed=6000), 0),
        PointedSpace(random_lp_cloud(24, 3, p=2.0, seed=6001).metric_space, 0),
    ]
    for pspace in fixtures:
        space = pspace.space
        d = space.dist
        for iso in (BlockIsoModel.exact(), BlockIsoModel.seeded(0.5, 1.0, 6002)):
            emb = embed_space_proper(pspace, iso=iso)
            params, hierarchy, images = emb.params, emb.hierarchy, proper_images(emb)

            # basepoint coordinates vanish; coordinates are 1-Lipschitz
            for (n, k), net in hierarchy.nets.items():
                assert np.all(net_coords(0, net, pspace) == 0.0)
                ball = np.flatnonzero(pspace.norms() <= 2.0 ** (n + 1))
                coords = {t: net_coords(t, net, pspace) for t in ball}
                for a in ball:
                    for b in ball:
                        if a < b:
                            gap = float(np.abs(coords[a] - coords[b]).max())
                            assert gap <= d[a, b] + 1e-12

            norms = pspace.norms()
            for t in range(1, space.n_points):
                n, lam = annulus_index(float(norms[t]))
                image = images[t]

                # dyadic boundary: both shell assignments give the same image
                if lam == 1.0:
                    upper_side = embed_point_proper(t, pspace, params, hierarchy, annulus=(n, 1.0))
                    lower_side = embed_point_proper(t, pspace, params, hierarchy, annulus=(n - 1, 0.0))
                    assert image == upper_side == lower_side

                # block recovery: projection over theta and weight returns
                # the blended coordinates
                for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
                    if blend == 0.0:
                        continue
                    for k in range(1, params.k_max[tier] + 1):
                        j = pair_index(tier, k)
                        recovered = scale_block(
                            1.0 / (params.iso.factor(j) * tier_weight(tier, k)),
                            project_block(image, j),
                        ).blocks.get(j)
                        expected = blend * frechet_coords(t, hierarchy.nets[(tier, k)], pspace)
                        assert recovered is not None
                        assert np.allclose(recovered, expected, atol=1e-12, rtol=1e-12)

    elapsed = time.perf_counter() - started
    report_line(
        "5 structural invariants",
        True,
        f"(pairing 129x64 exhaustive, {len(fixtures)} fixtures x 2 theta modes, {elapsed:.1f}s)",
    )


def test_criterion_6_constants(tmp_path):
    total, half_width = oracles.weight_series_partial(1_000_000)
    series_ok = abs(total - WEIGHT_SERIES_SUM) < 1e-9 and half_width < 1e-10
    envelope_ok = abs(separation_envelope(128.0) - 128.0 / 1200.0) <= 1e-12

    # reports echo the truncated constant below the series total
    fixture = tmp_path / "p6.json"
    report = tmp_path / "rep.json"
    cli_main(["gen", "--kind", "path", "--n", "6", "--out", str(fixture)])
    cli_main(["embed-proper", "--input", str(fixture), "--out", str(report)])
    payload = json.loads(report.read_text())
    echo_ok = (
        payload["constants"]["c_trunc"] <= payload["constants"]["weight_series_sum"]
        and payload["constants"]["weight_series_sum"] == pytest.approx(3.153348, abs=1e-6)
    )
    report_line(
        "6 constants",
        series_ok and envelope_ok and echo_ok,
        f"(series sum {total:.12f} vs {WEIGHT_SERIES_SUM:.12f}, "
        f"envelope(2^7) = {separation_envelope(128.0):.12f})",
    )


def test_criterion_7_determinism(tmp_path):
    cases = []
    graph = tmp_path / "g.json"
    cloud = tmp_path / "c.json"
    cli_main(["gen", "--kind", "random-graph-metric", "--n", "20", "--seed", "7", "--out", str(graph)])
    cli_main(["gen", "--kind", "random-lp-cloud", "--n", "24", "--dim", "3", "--seed", "8", "--out", str(cloud)])

    second = tmp_path / "g2.json"
    cli_main(["gen", "--kind", "random-graph-metric", "--n", "20", "--seed", "7", "--out", str(second)])
    cases.append(("gen", graph.read_bytes() == second.read_bytes()))

    runs = [
        ("embed-proper", ["embed-proper", "--input", str(graph), "--theta", "random", "--seed", "3"]),
        ("embed-lp", ["embed-lp", "--input", str(cloud), "--theta", "random", "--seed", "3"]),
        ("coarse", ["coarse", "--input", str(cloud), "--epsilon", "0.5", "--seed", "3"]),
        ("moduli", ["moduli", "--input", str(cloud), "--seed", "3"]),
    ]
    out = tmp_path / "rep.json"
    for name, argv in runs:
        code_a = cli_main(argv + ["--out", str(out)])
        first = out.read_bytes()
        code_b = cli_main(argv + ["--out", str(out)])
        cases.append((name, code_a == code_b and out.read_bytes() == first))

    # fresh interpreters with different hash seeds must agree byte for byte
    import os
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "blockembed",
        "embed-proper", "--input", str(graph), "--theta", "random", "--seed", "3",
        "--out", str(out),
    ]
    payloads = []
    for hash_seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(argv, env=env, capture_output=True)
        payloads.append((proc.returncode, out.read_bytes()))
    cases.append(("cross-process", payloads[0] == payloads[1]))

    ok = all(flag for _, flag in cases)
    report_line(
        "7 determinism",
        ok,
        "(" + ", ".join(f"{name}: {'ok' if flag else 'DIFF'}" for name, flag in cases) + ")",
    )
