import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from blockembed import proper
from blockembed.blocks import (
    BlockIsoModel,
    BlockVector,
    lp_distance_matrix,
    pair_index,
    pairwise_distance_matrix,
)
from blockembed.fixtures import path_metric, random_graph_metric, random_lp_cloud, star_metric
from blockembed.lp_coarse import LpEmbedding, LpParams, LpPointSet
from blockembed.metric import (
    FiniteMetricSpace,
    MetricError,
    Net,
    PointedSpace,
    greedy_maximal_net,
    validate_metric,
)
from blockembed.proper import (
    CODOMAIN_P,
    WEIGHT_SERIES_SUM,
    AnnulusOutOfRange,
    NegativeRadius,
    NonpositiveArgument,
    PointOutsideBall,
    ProperEmbedding,
    annulus_index,
    build_hierarchy,
    embed_point_proper,
    embed_space_proper,
    log_growth,
    make_proper_params,
    separation_envelope,
    tier_weight,
    verify_proper,
)

import oracles
from oracles import (
    frechet_coords,
    net_coords,
    outer_norm,
    project_block,
    proper_images,
    scale_block,
)


def two_point_space(d=4.0):
    return PointedSpace(validate_metric([[0, d], [d, 0]]), 0)


def path_space(n=4):
    idx = np.arange(n)
    return PointedSpace(validate_metric(np.abs(idx[:, None] - idx[None, :]).astype(float)), 0)


class TestAnnulus:
    def test_examples(self):
        assert annulus_index(4.0) == (2, 1.0)
        assert annulus_index(6.0) == (2, 0.5)
        assert annulus_index(0.75) == (-1, 0.5)

    def test_basepoint_marker(self):
        assert annulus_index(0.0) is None

    def test_negative_radius(self):
        with pytest.raises(NegativeRadius):
            annulus_index(-1.0)

    @given(st.floats(min_value=1e-30, max_value=1e30, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_shell_membership_and_blend(self, r):
        n, lam = annulus_index(r)
        assert math.ldexp(1.0, n) <= r <= math.ldexp(1.0, n + 1)
        assert 0.0 < lam <= 1.0
        assert lam == (math.ldexp(1.0, n + 1) - r) / math.ldexp(1.0, n)

    @pytest.mark.parametrize("r", [2.0**1023, 1e308, np.finfo(float).max])
    def test_radius_past_the_last_shell(self, r):
        # 2^(n+1) would overflow for shell n = 1023
        with pytest.raises(AnnulusOutOfRange):
            annulus_index(r)
        assert annulus_index(np.nextafter(2.0**1023, 0.0))[0] == 1022

    @given(st.integers(-40, 40))
    @settings(max_examples=81, deadline=None)
    def test_dyadic_radius_gets_blend_one(self, e):
        assert annulus_index(math.ldexp(1.0, e)) == (e, 1.0)


TOP = float(np.nextafter(2.0**1023, 0.0))  # the largest norm of a shell


def annulus_tiers(r):
    """The (tier, blend) pairs of non-zero blend annulus_index gives norm r."""
    if r == 0:
        return []
    n, lam = annulus_index(r)
    return [(tier, b) for tier, b in ((n, lam), (n + 1, 1.0 - lam)) if b != 0.0]


def first_rejected(norms):
    """The AnnulusOutOfRange message of a point-by-point annulus_index scan of
    the smallest positive norm and then every norm in input order, or None."""
    positive = [r for r in norms if r > 0]
    for r in (min(positive), *positive):
        try:
            annulus_index(r)
        except AnnulusOutOfRange as err:
            return str(err)
    return None


NORMS = st.lists(
    st.one_of(
        st.just(0.0),
        st.integers(-1074, 1022).map(lambda e: math.ldexp(1.0, e)),  # dyadic
        st.sampled_from([5e-324, 1e-310, 2.0**-1022, 1.0, 3.0, TOP, 2.0**1022 * 1.5]),
        st.integers(-1074, 1022).map(lambda e: math.nextafter(math.ldexp(1.0, e), math.inf)),
        st.floats(min_value=5e-324, max_value=TOP),
    ),
    max_size=40,
)


class TestShellRuns:
    """proper.shell_runs, the layout of both constructions, against annulus_index."""

    @given(NORMS)
    @settings(max_examples=300, deadline=None)
    def test_runs_are_annulus_index_point_by_point(self, norms):
        norms = np.array(norms, dtype=float)
        order, runs = proper.shell_runs(norms)
        assert np.array_equal(order, np.argsort(norms, kind="stable"))
        got: dict[int, list] = {}
        tiers = [tier for tier, *_ in runs]
        assert tiers == sorted(set(tiers))
        for tier, lo, hi, blend in runs:
            assert 0 <= lo < hi <= len(norms) and len(blend) == hi - lo
            for t, b in zip(order[lo:hi].tolist(), blend.tolist()):
                got.setdefault(t, []).append((tier, b))
        for t, r in enumerate(norms.tolist()):
            assert got.get(t, []) == annulus_tiers(r)

    def test_zero_blends_are_the_prefix_left_out(self):
        # norm 1 = 2^0 has blend 0 on tier 1 and 2 = 2^1 blend 0 on tier 2:
        # sorted, each sits at the front of the run it would otherwise open
        norms = np.array([3.0, 0.0, 2.0, 1.0, 6.0, 2.0, 1.5, 4.0])
        order, runs = proper.shell_runs(norms)
        carried = {tier: norms[order[lo:hi]].tolist() for tier, lo, hi, _ in runs}
        assert carried == {0: [1.0, 1.5], 1: [1.5, 2.0, 2.0, 3.0], 2: [3.0, 4.0, 6.0], 3: [6.0]}
        assert all(np.all(blend > 0) for *_, blend in runs)
        order, runs = proper.shell_runs(np.array([0.0, 0.0]))
        assert runs == [] and order.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "norms",
        [
            [0.0, 1e308, 1.5e308],  # the smallest norm is past: it is named
            [0.0, 1.5e308, 1e308],
            [0.0, 3.0, 1.5e308, 1e308],  # else the first past in input order
            [0.0, 2.0**1023, 5e-324],
            [0.0, np.finfo(float).max, 2.0, 2.0**1023],
        ],
    )
    def test_norm_past_the_last_shell_names_what_each_caller_named(self, norms):
        expected = first_rejected(norms)
        assert expected is not None
        with pytest.raises(AnnulusOutOfRange) as err:
            proper.shell_runs(np.array(norms))
        assert str(err.value) == expected
        # an ultrametric with these norms: d(i,j) = max(|i|, |j|) off the diagonal
        r = np.array(norms)
        d = np.maximum(r[:, None], r)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(AnnulusOutOfRange) as err:
            make_proper_params(PointedSpace(validate_metric(d), 0))
        assert str(err.value) == expected
        # the l_p fold, which takes norms of 1 or more, names the largest norm
        if not any(0 < r < 1 for r in norms):
            cloud = LpPointSet(math.inf, np.array(norms)[:, None])
            with pytest.raises(AnnulusOutOfRange) as err:
                LpEmbedding(cloud, LpParams(), np.zeros(1), 1.0).image_distances
            assert str(err.value) == f"point norm {max(norms)} lies past the last dyadic shell"

    def test_top_norm_reaches_a_shell_without_a_net_radius(self):
        order, runs = proper.shell_runs(np.array([0.0, TOP]))
        assert [tier for tier, *_ in runs] == [1022, 1023]
        d = np.array([[0.0, TOP], [TOP, 0.0]])
        with pytest.raises(AnnulusOutOfRange, match="shell 1023 lies past the last shell"):
            make_proper_params(PointedSpace(validate_metric(d), 0))


class TestEnvelopeFunctions:
    def test_log_growth(self):
        assert log_growth(128.0) == 50.0
        assert log_growth(1.0) == 1.0
        with pytest.raises(NonpositiveArgument):
            log_growth(0.0)

    def test_separation_envelope_values(self):
        assert separation_envelope(128.0) == pytest.approx(128 / 1200, abs=1e-15)
        assert separation_envelope(1.0) == pytest.approx(1 / 1200, abs=1e-15)
        assert separation_envelope(2.0**14) == pytest.approx(16384 / 4728, abs=1e-12)
        with pytest.raises(NonpositiveArgument):
            separation_envelope(0.0)

    def test_an_underflowing_t_over_128_gives_zero(self):
        # t / 128 is 0 for t <= 2^-1068; just above, it is 2^-1074
        for t in (5e-324, 2.0**-1070, 2.0**-1068):
            assert separation_envelope(t) == 0.0
        t = np.array([5e-324, 2.0**-1068, math.nextafter(2.0**-1068, 1.0), 1.0])
        assert separation_envelope(t).tolist() == [0.0, 0.0, 0.0, separation_envelope(1.0)]

    # positive doubles from 1e-300 to 1e300, exact powers of two, and 128 * 2^k,
    # whose t / 128 is an exact power of two
    ARGS = st.one_of(
        st.floats(1e-300, 1e300),
        st.integers(-990, 1000).map(lambda k: 2.0**k),
        st.integers(-990, 1000).map(lambda k: 128.0 * 2.0**k),
    )

    @given(st.lists(ARGS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_arrays_give_the_float_results_bit_for_bit(self, ts):
        t = np.array(ts)
        for f in (log_growth, separation_envelope):
            floats = [f(x) for x in ts]
            assert all(type(y) is float for y in floats)
            out = f(t)
            assert out.dtype == np.float64 and out.shape == t.shape
            assert out.tobytes() == np.array(floats).tobytes()
            assert f(t.reshape(1, -1)).tobytes() == out.tobytes()

    # mantissas over 2^-1000 .. 2^1000, a few ulps around 8, 2^3.5 and 32
    # (the band where both sides of the max are taken, and its crossing),
    # and subnormals, whose t / 128 rounds or underflows to 0
    SPREAD = st.one_of(
        st.tuples(st.floats(1.0, 2.0, exclude_max=True), st.integers(-1000, 1000)).map(
            lambda mk: math.ldexp(*mk)
        ),
        st.tuples(st.sampled_from([8.0, 2.0**3.5, 32.0]), st.integers(-3, 3)).map(
            lambda xk: float(xk[0] + xk[1] * np.spacing(xk[0]))
        ),
        st.floats(8.0, 32.0),
        st.floats(5e-324, 2.0**-1000, allow_subnormal=True),
    )

    @given(st.lists(SPREAD, min_size=1, max_size=40), st.sampled_from([None, 0.0, -1.0]))
    @settings(max_examples=300, deadline=None)
    def test_one_sided_envelope_matches_the_two_sided_formula(self, ts, bad):
        ts = ts if bad is None else [*ts, bad]
        for t in (np.array(ts), *ts):
            # t <= 2^-1068, where t / 128 underflows and the formula raises:
            # the exact envelope is below 2^-1092 there, so it rounds to 0.0
            under = (np.asarray(t) > 0) & (np.asarray(t) / 128.0 == 0)
            try:
                expected = oracles.two_sided_separation_envelope(
                    np.where(under, 1.0, t) if isinstance(t, np.ndarray) else 1.0 if under else t
                )
            except NonpositiveArgument as err:  # a t <= 0
                with pytest.raises(NonpositiveArgument) as got:
                    separation_envelope(t)
                assert str(got.value) == str(err)
                continue
            if isinstance(t, np.ndarray):
                expected[under] = 0.0
            elif under:
                expected = 0.0
            out = separation_envelope(t)
            assert type(out) is type(expected)
            assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()

    @given(
        st.lists(ARGS, max_size=20),
        st.sampled_from([0.0, -0.0, -1e-300, -1.0, -math.inf]),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_a_nonpositive_entry_anywhere_raises(self, ts, bad, data):
        i = data.draw(st.integers(0, len(ts)))
        t = np.array([*ts[:i], bad, *ts[i:]])
        for f in (log_growth, separation_envelope):
            with pytest.raises(NonpositiveArgument):
                f(t)

    def test_series_total_matches_independent_sum(self):
        total, half_width = oracles.weight_series_partial(1_000_000)
        assert half_width < 1e-10
        assert abs(total - WEIGHT_SERIES_SUM) < 1e-9

    def test_tier_weight(self):
        assert tier_weight(2, 2) == 1.0
        assert tier_weight(2, 1) == 0.5
        assert tier_weight(2, 4) == 0.2


class TestParams:
    def test_two_point_ranges(self):
        params = make_proper_params(two_point_space())
        assert params.k_max == {2: 7}
        expected = sum(1.0 / (m * m + 1.0) for m in range(-5, 2))
        assert params.c_trunc == pytest.approx(expected, abs=1e-15)
        assert params.c_trunc <= WEIGHT_SERIES_SUM

    def test_path_ranges_cover_every_tier_used(self):
        pspace = path_space(4)
        params = make_proper_params(pspace)
        assert list(params.k_max) == [0, 1, 2]
        # embedding every point must never look up a missing shell
        hierarchy = build_hierarchy(pspace, params)
        for t in range(4):
            embed_point_proper(t, pspace, params, hierarchy)

    def test_k_slack_extends_caps(self):
        base = make_proper_params(two_point_space(), k_slack=4)
        wide = make_proper_params(two_point_space(), k_slack=6)
        assert wide.k_max[2] == base.k_max[2] + 2
        assert wide.c_trunc >= base.c_trunc

    def test_needs_two_points(self):
        space = validate_metric([[0.0]])
        with pytest.raises(ValueError):
            make_proper_params(PointedSpace(space, 0))


class TestHierarchy:
    def test_two_point_nets(self):
        pspace = two_point_space()
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        assert h.nets[(2, 1)].members == (0,)  # radius 16 swallows the other point
        assert h.nets[(2, 2)].members == (0,)
        assert h.nets[(2, 3)].members == (0, 1)  # tie at exact radius 4 admitted

    def test_radii_halve(self):
        pspace = path_space(6)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        for n in params.k_max:
            for k in range(1, params.k_max[n]):
                assert h.nets[(n, k + 1)].radius == h.nets[(n, k)].radius / 2
            assert h.nets[(n, 1)].radius == math.ldexp(1.0, n + 2)

    def test_every_net_passes_brute_check(self):
        pspace = path_space(7)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        mat = pspace.space.dist.tolist()
        for net in h.nets.values():
            flags = oracles.brute_net_check(
                mat, net.members, net.center, net.ball_radius, net.radius, 0
            )
            assert flags == (True, True, True)

    @staticmethod
    def _counting_scans(pspace, params):
        """The hierarchy, and the greedy_maximal_net calls it made."""
        scans = []
        greedy = proper.greedy_maximal_net

        def counting(*args):
            scans.append(args)
            return greedy(*args)

        proper.greedy_maximal_net = counting
        try:
            return build_hierarchy(pspace, params), scans
        finally:
            proper.greedy_maximal_net = greedy

    @given(
        st.sampled_from(["graph", "path", "cloud"]),
        st.integers(2, 40),
        st.integers(0, 2**16),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_net_is_its_greedy_scan(self, kind, n, seed, k_slack):
        # a level after the first whole-ball net reuses it unscanned, yet
        # equals the scan it skips in members, radii and center
        space = {
            "graph": lambda: random_graph_metric(n, None, seed),
            "path": lambda: path_metric(n),
            "cloud": lambda: random_lp_cloud(n, 2, 2.0, seed).metric_space,
        }[kind]()
        pspace = PointedSpace(space, seed % n)
        params = make_proper_params(pspace, k_slack=k_slack)
        h, scans = self._counting_scans(pspace, params)
        expected_scans = 0
        for shell in params.k_max:
            ball = (pspace.basepoint, math.ldexp(1.0, shell + 1))
            ball_size = np.count_nonzero(pspace.norms() <= ball[1])
            whole = False
            for k in range(1, params.k_max[shell] + 1):
                net = greedy_maximal_net(space, ball, math.ldexp(1.0, shell + 3 - k))
                assert h.nets[(shell, k)] == net
                expected_scans += not whole
                whole = len(net) == ball_size
        assert len(scans) == expected_scans

    def test_whole_ball_levels_of_a_graph_are_scanned_once(self):
        pspace = PointedSpace(random_graph_metric(256, None, 7), 0)
        params = make_proper_params(pspace)
        h, scans = self._counting_scans(pspace, params)
        assert (len(scans), len(h.nets)) == (12, 24)


class TestFrechetCoords:
    # the coordinates embed_point_proper writes into one net's block
    def test_basepoint_is_zero(self):
        pspace = path_space(5)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        for n in params.k_max:
            assert embed_point_proper(0, pspace, params, h, annulus=(n, 1.0)) == BlockVector()
        for net in h.nets.values():
            assert np.all(net_coords(0, net, pspace) == 0.0)

    def test_three_point_example(self):
        space = validate_metric([[0, 2, 3], [2, 0, 2], [3, 2, 0]])
        pspace = PointedSpace(space, 0)
        net = Net(members=(0, 1), radius=1.0, center=0, ball_radius=4.0)
        assert list(net_coords(2, net, pspace)) == [3.0, 0.0]

    def test_two_point_example(self):
        pspace = two_point_space()
        net = Net(members=(0, 1), radius=4.0, center=0, ball_radius=8.0)
        assert list(net_coords(1, net, pspace)) == [4.0, -4.0]

    def test_point_outside_ball(self):
        pspace = two_point_space()
        net = Net(members=(0,), radius=1.0, center=0, ball_radius=2.0)
        with pytest.raises(PointOutsideBall):
            net_coords(1, net, pspace)

    def test_one_lipschitz_into_sup_norm(self):
        pspace = path_space(8)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        d = pspace.space.dist
        for (n, k), net in h.nets.items():
            ball = np.flatnonzero(pspace.norms() <= 2.0 ** (n + 1))
            coords = {t: net_coords(t, net, pspace) for t in ball}
            for a in ball:
                assert np.array_equal(coords[a], frechet_coords(a, net, pspace))
                for b in ball:
                    gap = float(np.abs(coords[a] - coords[b]).max())
                    assert gap <= d[a, b] + 1e-12


class TestEmbedPoint:
    def test_two_point_block_values(self):
        emb = embed_space_proper(two_point_space())
        image = proper_images(emb)[1]
        expected_sups = {1: 2.0, 2: 4.0, 3: 2.0, 4: 0.8}
        for k, sup in expected_sups.items():
            blk = image.blocks.get(pair_index(2, k))
            assert blk is not None
            assert float(np.abs(blk).max()) == pytest.approx(sup, abs=1e-15)
        assert outer_norm(image, CODOMAIN_P) == 4.0
        assert image.blocks.get(pair_index(2, 3)) is not None
        assert list(image.blocks.get(pair_index(2, 3))) == [2.0, -2.0]

    def test_basepoint_maps_to_empty(self):
        emb = embed_space_proper(path_space(5))
        assert not proper_images(emb)[0].blocks

    def test_dyadic_boundary_consistency(self):
        # point 2 of the unit path has norm exactly 2 = 2^1
        pspace = path_space(4)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        default = embed_point_proper(2, pspace, params, h)
        upper_side = embed_point_proper(2, pspace, params, h, annulus=(1, 1.0))
        lower_side = embed_point_proper(2, pspace, params, h, annulus=(0, 0.0))
        assert default == upper_side == lower_side

    def test_tiers_never_collide(self):
        pspace = path_space(4)
        emb = embed_space_proper(pspace)
        image = proper_images(emb)[3]  # norm 3: blend strictly inside (0, 1)
        n, lam = annulus_index(3.0)
        assert 0 < lam < 1
        tier_n = {pair_index(n, k) for k in range(1, emb.params.k_max[n] + 1)}
        tier_n1 = {pair_index(n + 1, k) for k in range(1, emb.params.k_max[n + 1] + 1)}
        assert not tier_n & tier_n1
        assert set(image.blocks) <= tier_n | tier_n1
        assert set(image.blocks) & tier_n and set(image.blocks) & tier_n1

    def test_annulus_out_of_range(self):
        pspace = two_point_space()
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        with pytest.raises(AnnulusOutOfRange):
            embed_point_proper(1, pspace, params, h, annulus=(5, 0.5))

    def test_shell_between_the_carrier_tiers_is_out_of_range(self):
        # norms 1 and 2^10: tiers 0 and 10 only, none of the shells between
        pspace = PointedSpace(validate_metric([[0, 1, 1024], [1, 0, 1023], [1024, 1023, 0]]), 0)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        assert list(params.k_max) == [0, 10]
        assert {n for n, _ in h.nets} == {0, 10}
        assert verify_proper(ProperEmbedding(pspace, params, h)).constants["n_max"] == 10
        with pytest.raises(AnnulusOutOfRange, match="needs shell 5"):
            embed_point_proper(1, pspace, params, h, annulus=(5, 0.5))

    @pytest.mark.parametrize("iso", [BlockIsoModel.exact(), BlockIsoModel.seeded(0.5, 1.0, 11)])
    def test_block_recovery(self, iso):
        pspace = path_space(6)
        emb = embed_space_proper(pspace, iso=iso)
        params, h = emb.params, emb.hierarchy
        norms, images = pspace.norms(), proper_images(emb)
        for t in range(1, 6):
            n, lam = annulus_index(float(norms[t]))
            image = images[t]
            for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
                if blend == 0.0:
                    continue
                for k in range(1, params.k_max[tier] + 1):
                    j = pair_index(tier, k)
                    recovered = scale_block(
                        1.0 / (params.iso.factor(j) * tier_weight(tier, k)),
                        project_block(image, j),
                    )
                    expected = blend * frechet_coords(t, h.nets[(tier, k)], pspace)
                    got = recovered.blocks.get(j)
                    assert got is not None
                    assert np.allclose(got, expected, atol=1e-12, rtol=1e-12)


class TestVerifyProper:
    def test_two_point_pass(self):
        emb = embed_space_proper(two_point_space())
        rep = verify_proper(emb)
        assert rep.passed
        # the one pair's image distance is 4
        assert emb.image_distances[0, 1] == 4.0
        assert rep.worst_lower_slack == pytest.approx(4 - 4 / 624, abs=1e-15)
        assert rep.worst_upper_slack == pytest.approx(9 * emb.params.c_trunc * 4 - 4, abs=1e-12)

    def test_path_all_pairs_pass(self):
        emb = embed_space_proper(path_space(4))
        rep = verify_proper(emb)
        assert rep.passed
        assert rep.n_pairs == 6
        assert rep.constants["c_trunc"] <= rep.constants["weight_series_sum"]

    def test_seeded_theta_still_passes(self):
        emb = embed_space_proper(path_space(6), iso=BlockIsoModel.seeded(0.5, 1.0, 3))
        rep = verify_proper(emb)
        assert rep.passed

    def test_worst_case_fixed_theta_still_passes(self):
        # every block scaled by the interval floor, the weakest admissible model
        iso = BlockIsoModel.seeded(0.5, 0.5, 0)
        for pspace in (path_space(8), two_point_space(), path_space(16)):
            rep = verify_proper(embed_space_proper(pspace, iso=iso))
            assert rep.passed
            assert rep.worst_lower_slack > 0

    def test_near_dyadic_norms_are_stable(self):
        # norms one ulp on either side of a shell boundary exercise the
        # tiny-blend branch without degenerating
        below = math.nextafter(4.0, 0.0)
        above = math.nextafter(4.0, 8.0)
        d = np.array(
            [
                [0.0, below, above, 2.0],
                [below, 0.0, 1.0, 2.5],
                [above, 1.0, 0.0, 3.0],
                [2.0, 2.5, 3.0, 0.0],
            ]
        )
        pspace = PointedSpace(validate_metric(d), 0)
        emb = embed_space_proper(pspace)
        n_lo, lam_lo = annulus_index(below)
        assert n_lo == 1 and 0 < lam_lo < 1e-15
        assert verify_proper(emb).passed

    def test_shell_lipschitz_bound(self):
        # per-shell maps stretch by at most the truncated weight total
        pspace = path_space(8)
        emb = embed_space_proper(pspace)
        params, h = emb.params, emb.hierarchy
        d = pspace.space.dist
        for n in params.k_max:
            ball = np.flatnonzero(pspace.norms() <= 2.0 ** (n + 1))
            for a in ball:
                for b in ball:
                    if a == b:
                        continue
                    sup = max(
                        tier_weight(n, k)
                        * params.iso.factor(pair_index(n, k))
                        * float(
                            np.abs(
                                frechet_coords(a, h.nets[(n, k)], pspace)
                                - frechet_coords(b, h.nets[(n, k)], pspace)
                            ).max()
                        )
                        for k in range(1, params.k_max[n] + 1)
                    )
                    assert sup <= params.c_trunc * d[a, b] + 1e-12


def eager_distances(emb):
    """Image distances the long way: every point's block vector, then the kernel."""
    return pairwise_distance_matrix(proper_images(emb), CODOMAIN_P)


@dataclass(frozen=True)
class TwoLevels(BlockIsoModel):
    """Factors theta_1, theta_2 on levels 1 and 2 of one shell, times
    ``scale``; every other block is scaled down far enough not to matter."""

    shell: int = 1
    thetas: tuple[float, float] = (1.0, 1.0)
    scale: float = 1.0

    def factor(self, j):
        for k, theta in enumerate(self.thetas, 1):
            if j == pair_index(self.shell, k):
                return theta * self.scale
        return 2.0**-60 * self.scale


SPACES = {
    "graph": lambda n, seed: random_graph_metric(n, None, seed),
    "path": lambda n, seed: path_metric(n),
    "star": lambda n, seed: star_metric(n - 1),
    "l1": lambda n, seed: random_lp_cloud(n, 1 + seed % 4, 1.0, seed).metric_space,
    "l2": lambda n, seed: random_lp_cloud(n, 1 + seed % 4, 2.0, seed).metric_space,
    "linf": lambda n, seed: random_lp_cloud(n, 1 + seed % 4, math.inf, seed).metric_space,
    # a grid graph (l_1 on integer points), rich in dyadic norms and so in zero blends
    "grid": lambda n, seed: LpPointSet(
        1.0, np.array([divmod(i, 8 + seed % 8) for i in range(n)], dtype=float)
    ).metric_space,
}


ISO = {
    "exact": lambda seed: BlockIsoModel.exact(),
    "uniform": lambda seed: BlockIsoModel.seeded(0.5, 0.5, 0),  # every level the same theta
    "seeded": lambda seed: BlockIsoModel.seeded(0.5, 1.0, seed),
}


def defect_space(seed):
    """A graph, l_2 cloud or path metric with some distances shrunk by up to
    70%, validated with a tol as large as its largest entry."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 110))
    d = SPACES[("graph", "l2", "path")[seed % 3]](n, seed).dist.copy()
    shrink = np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.3), 1)
    d[shrink] *= rng.uniform(0.3, 0.95, int(shrink.sum()))
    d = np.triu(d) + np.triu(d, 1).T
    return validate_metric(d, tol=float(d.max()))


def assert_params_match_the_oracle(pspace, k_slack, every_shell=False):
    """make_proper_params gives the whole-ball oracle's params, or its error."""

    def outcome(make, **kw):
        try:
            return make(pspace, k_slack=k_slack, **kw)
        except Exception as err:
            return type(err), str(err)

    expected = outcome(oracles.ball_proper_params, every_shell=every_shell)
    assert outcome(make_proper_params) == expected


# coordinates 0 and +-m 2^e, e from -1060 to 1000: a few points some hundreds
# of shells apart, so most shells between the first tier and the last are empty
WIDE = st.tuples(st.floats(0.5, 2.0), st.integers(-1060, 1000)).map(lambda me: math.ldexp(*me))
WIDE_COORD = st.one_of(st.just(0.0), WIDE, WIDE.map(lambda x: -x))


class TestParamsOracle:
    """make_proper_params against the per-shell whole-ball computation."""

    @given(
        kind=st.sampled_from(sorted(SPACES)),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-300, 1e-9, 1.0, 1e9, 1e300]),
        k_slack=st.integers(0, 4),
        basepoint=st.integers(0, 39),
    )
    @settings(max_examples=100, deadline=None)
    def test_fixture_spaces_match(self, kind, n, seed, scale, k_slack, basepoint):
        space = validate_metric(SPACES[kind](n, seed).dist * scale)
        pspace = PointedSpace(space, basepoint % space.n_points)
        assert_params_match_the_oracle(pspace, k_slack)
        assert_params_match_the_oracle(pspace, k_slack, every_shell=True)

    @given(
        points=st.lists(st.tuples(WIDE_COORD, WIDE_COORD), min_size=3, max_size=6, unique=True),
        p=st.sampled_from([1.0, 2.0, math.inf]),
        basepoint=st.integers(0, 5),
        k_slack=st.integers(0, 4),
    )
    @example(
        points=[(0, 0), (1e-320, 0), (1e300, 0), (1, 1), (-1e150, 3.5)],
        p=2.0,
        basepoint=0,
        k_slack=4,
    )
    @settings(max_examples=60, deadline=None)
    def test_empty_shells_change_no_constant(self, points, p, basepoint, k_slack):
        # the caps grow by at least one a shell on a metric space, so the
        # offsets of the empty shells are the carrier tiers' already
        try:
            space = LpPointSet(p, points, basepoint % len(points)).metric_space
        except MetricError:  # a repeated point
            assume(False)
        pspace = PointedSpace(space, basepoint % len(points))
        params = make_proper_params(pspace, k_slack=k_slack)
        tiers = list(params.k_max)
        assume(tiers[-1] - tiers[0] + 1 > len(tiers))  # an empty shell
        positive = [r for r in pspace.norms().tolist() if r > 0]
        last, lam = annulus_index(max(positive))
        assert (tiers[0], tiers[-1]) == (annulus_index(min(positive))[0], last + (lam < 1))
        every = oracles.ball_proper_params(pspace, k_slack=k_slack, every_shell=True)
        assert params.c_trunc.hex() == every.c_trunc.hex()
        assert tiers == sorted(tiers) == list(every.k_max)
        assert params.k_max == every.k_max
        assert params == oracles.ball_proper_params(pspace, k_slack=k_slack)


class TestImageDistances:
    """One Frechet matrix per (shell, net) against the per-point images."""

    @given(
        kind=st.sampled_from(sorted(SPACES)),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-300, 1e-9, 1.0, 1e9, 1e300]),
        theta=st.sampled_from(["exact", "uniform", "seeded"]),
        k_slack=st.integers(0, 4),
        basepoint=st.integers(0, 39),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_images(self, kind, n, seed, scale, theta, k_slack, basepoint):
        space = validate_metric(SPACES[kind](n, seed).dist * scale)
        iso = {
            "exact": BlockIsoModel.exact(),
            "uniform": BlockIsoModel.seeded(0.5, 0.5, 0),  # every level the same theta
            "seeded": BlockIsoModel.seeded(0.5, 1.0, seed),
        }[theta]
        pspace = PointedSpace(space, basepoint % space.n_points)
        emb = embed_space_proper(pspace, iso=iso, k_slack=k_slack)
        assert emb.image_distances is emb.image_distances
        assert np.array_equal(emb.image_distances, eager_distances(emb))

    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000])  # 2^-1000: the guard fails
    @pytest.mark.parametrize(
        "shell, thetas",
        [
            # w * theta: 1/2 and the double just below
            (1, (0.5, math.nextafter(1.0, 0.0))),
            # w * theta rounds to the same double, a_tj = (b_t * w) * theta does not
            (3, (0.9, 2 * (tier_weight(3, 1) * 0.9))),
            # 2^-44 apart, below the rounding of the cancelling pairs
            (1, (0.5, 1.0 - 2.0**-44)),
        ],
    )
    def test_levels_a_rounding_apart_fall_back_to_the_exact_kernel(self, shell, thetas, scale):
        # every point but the basepoint has norm in [2^(shell-1), 2^(shell+1)),
        # so levels 1 and 2 of the shell share the net {0}, on which point t
        # has the coordinate |t|.  Half the points pair up with a point of
        # norm r in [h, 2h), h = 2^(shell-1), whose blend (r - h) / h makes
        # the blended coordinates of the two cancel up to rounding.
        rng = np.random.default_rng(3)
        h = 2.0 ** (shell - 1)
        outer = rng.uniform(2.0, 3.9, 40) * h
        blended = outer * (4 * h - outer) / (2 * h)
        inner = (h + np.sqrt(h * h + 4 * h * blended[:20])) / 2
        radius = np.concatenate([outer, inner])
        angle = rng.uniform(0.0, 2 * math.pi, len(radius))
        pts = np.vstack([[0.0, 0.0], np.c_[radius * np.cos(angle), radius * np.sin(angle)]])
        pspace = PointedSpace(LpPointSet(2.0, pts).metric_space, 0)
        emb = embed_space_proper(pspace, TwoLevels(shell=shell, thetas=thetas, scale=scale))
        nets = emb.hierarchy.nets
        assert nets[(shell, 1)].members == nets[(shell, 2)].members == (0,)

        images = proper_images(emb)

        def level(k):
            blocks = [project_block(v, pair_index(shell, k)) for v in images]
            return pairwise_distance_matrix(blocks, CODOMAIN_P)

        # the smaller or equal constant still sets some distances, through rounding
        eager = eager_distances(emb)
        assert ((level(2) > level(1)) & (eager == level(2))).any()
        assert np.array_equal(emb.image_distances, eager)

    def test_equal_weight_levels_under_exact_theta(self):
        # leaves 40 apart from the center: levels 4 and 6 of shell 5 (n - k =
        # 1 and -1) both hold every ball point
        emb = embed_space_proper(PointedSpace(validate_metric(star_metric(9).dist * 40.0), 0))
        nets = emb.hierarchy
        assert nets.nets[(5, 4)].members == nets.nets[(5, 6)].members == tuple(range(10))
        assert tier_weight(5, 4) == tier_weight(5, 6)
        assert np.array_equal(emb.image_distances, eager_distances(emb))

    @pytest.mark.parametrize("theta", [BlockIsoModel.exact(), BlockIsoModel.seeded(0.5, 1.0, 8)])
    def test_equal_norm_points_in_a_one_coordinate_group(self, theta):
        # all leaves have norm 1: on the net {center} of levels 1 and 2 every
        # leaf gets the same coordinate, so the dominant level reads 0 on every pair
        emb = embed_space_proper(PointedSpace(star_metric(12), 0), iso=theta)
        assert emb.hierarchy.nets[(0, 1)].members == emb.hierarchy.nets[(0, 2)].members == (0,)
        assert np.array_equal(emb.image_distances, eager_distances(emb))

    @given(
        kind=st.sampled_from(sorted(SPACES)),
        n=st.integers(40, 150),
        seed=st.integers(0, 2**16),
        theta=st.sampled_from(["exact", "uniform", "seeded"]),
        basepoint=st.integers(0, 149),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_where_groups_are_skipped(self, kind, n, seed, theta, basepoint):
        # big enough that most carrier pairs skip most groups; paths and
        # clouds carry unequal blends on nearly every pair
        space = SPACES[kind](n, seed)
        emb = embed_space_proper(PointedSpace(space, basepoint % n), iso=ISO[theta](seed))
        assert np.array_equal(emb.image_distances, eager_distances(emb))

    @pytest.mark.parametrize("seed", range(8))
    def test_lipschitz_bound_is_order_free_and_covers_the_exact_value(self, seed):
        # G = max_s |b_t F_ts - b_u F_us| over every point s, in exact
        # arithmetic, for carriers given in an order and its reverse, and
        # the same bits for (t, u) and (u, t)
        rng = np.random.default_rng(seed)
        space = SPACES[("graph", "path", "l2", "grid")[seed % 4]](40, seed)
        space = defect_space(seed) if seed >= 6 else space
        dist, n = space.dist, space.n_points
        norms = dist[int(rng.integers(n))]
        idx = rng.permutation(n)[:20]
        blend = rng.uniform(0.0, 1.0, len(idx))
        blend[::4], blend[1] = blend[2], 1.0  # ties and a full blend
        exact = [[Fraction(x) for x in row] for row in dist]
        f = [[exact[t][s] - Fraction(norms[s]) for s in range(n)] for t in idx.tolist()]
        ti, ui = np.triu_indices(len(idx), 1)
        seen = {}
        for perm in (np.arange(len(idx)), np.arange(len(idx))[::-1]):
            args = dist, idx[perm], blend[perm], norms[idx[perm]], space.triangle_slack
            h = proper._lipschitz_bound(*args, ti, ui)
            assert np.array_equal(proper._lipschitz_bound(*args, ui, ti), h)
            for a, b, bound in zip(perm[ti].tolist(), perm[ui].tolist(), h.tolist()):
                bt, bu = Fraction(blend[a]), Fraction(blend[b])
                g = max(abs(bt * x - bu * y) for x, y in zip(f[a], f[b]))
                assert Fraction(bound) >= g
                assert seen.setdefault(frozenset((a, b)), bound) == bound

    @given(
        m=st.integers(1, 150),
        dim=st.integers(1, 40),
        n_pairs=st.integers(0, 12_000),
        scaled=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(m=150, dim=40, n_pairs=12_000, scaled=True, seed=0)  # 15 chunks of pairs
    @example(m=150, dim=40, n_pairs=12_000, scaled=False, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_sup_pairs_is_the_dense_kernel_at_the_pairs(self, m, dim, n_pairs, scaled, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, dim)) * 2.0 ** rng.integers(-60, 60, size=(m, 1))
        x[rng.random((m, dim)) < 0.2] = 0.0  # ties and equal coordinates
        scale = rng.uniform(2.0**-20, 1.0, m) if scaled else None
        ti, ui = rng.integers(0, m, n_pairs), rng.integers(0, m, n_pairs)
        y = x if scale is None else scale[:, None] * x
        expected = lp_distance_matrix(y, math.inf)[ti, ui]
        assert np.array_equal(proper._sup_pairs(x, ti, ui, scale), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_triangle_defects_validated_at_a_large_tol(self, seed):
        # shrinking some distances plants defects up to 70% of them; the
        # screen must widen its Lipschitz bound by the recorded slack, and
        # without it the same matrix loses bits
        space = defect_space(seed)
        assert space.triangle_slack >= 0.5 * space.dist.max()
        emb = embed_space_proper(PointedSpace(space, seed), iso=ISO["seeded"](seed))
        eager = eager_distances(emb)
        assert np.array_equal(emb.image_distances, eager)
        unslacked = FiniteMetricSpace(space.labels, space.dist, 0.0)
        emb = embed_space_proper(PointedSpace(unslacked, seed), iso=ISO["seeded"](seed))
        assert not np.array_equal(emb.image_distances, eager)

    def test_screen_holds_no_carrier_by_carrier_bound(self):
        # every norm but the basepoint's lies in (2, 4), so shells 1 and 2
        # both carry every other point.  The peak is about 3.2 n x n float
        # arrays (the result, a group's Frechet matrix and its level-scaled
        # copy, and the open-pair mask); a Lipschitz bound per carrier pair
        # would add a fourth
        n = 800
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 3))
        x *= rng.uniform(2.25, 3.75, (n, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        x[0] = 0.0
        pspace = PointedSpace(LpPointSet(2.0, x).metric_space, 0)
        emb = embed_space_proper(pspace)
        assert list(emb.params.k_max) == [1, 2]
        pspace.space.triangle_slack, pspace.norms()  # read before the trace
        tracemalloc.start()
        try:
            emb.image_distances
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    @pytest.mark.parametrize(
        "n, seed, basepoint, k_slack", [(89, 0, 56, 2), (46, 180, 26, 2), (92, 240, 60, 1)]
    )
    def test_bounds_within_an_ulp_of_the_max(self, n, seed, basepoint, k_slack):
        # Validated exactly (slack 4u * max), these graphs hold pairs whose
        # distance is set by a block one ulp above the rest, so that the
        # Lipschitz bound of that block's group, c * b * d(t,u), lies within
        # an ulp of the running max: the screen clears such a group only
        # with its rounding margin, and these pairs lose a bit without it.
        space = validate_metric(random_graph_metric(n, None, seed).dist, tol=0.0)
        emb = embed_space_proper(PointedSpace(space, basepoint), k_slack=k_slack)
        eager = eager_distances(emb)
        assert np.array_equal(emb.image_distances, eager)
        below = np.zeros_like(eager)  # the largest block value under the distance
        images = proper_images(emb)
        for j in {j for v in images for j in v.blocks}:
            level = pairwise_distance_matrix([project_block(v, j) for v in images], CODOMAIN_P)
            below = np.where(level < eager, np.maximum(below, level), below)
        assert (eager == np.nextafter(below, math.inf)).any()

    def test_only_small_groups_take_the_dense_kernel(self, monkeypatch):
        # on a validated space every group of more than _DENSE_MEMBERS
        # members is screened pair by pair, whatever share of pairs it leaves
        widths = []
        dense = proper.lp_distance_matrix

        def recorded(x, p):
            widths.append(x.shape[1])
            return dense(x, p)

        monkeypatch.setattr(proper, "lp_distance_matrix", recorded)
        emb = embed_space_proper(PointedSpace(random_graph_metric(128, None, 0), 0))
        assert np.array_equal(emb.image_distances, eager_distances(emb))
        assert widths and max(widths) <= proper._DENSE_MEMBERS

    @pytest.mark.parametrize(
        "space, share",
        [
            (random_lp_cloud(200, 3, 2.0, 7).metric_space, 0.02),
            (path_metric(200), 0.1),
            (random_graph_metric(128, None, 0), 0.06),
        ],
        ids=["l2-cloud", "path", "graph"],
    )
    def test_screen_skips_most_kernel_work(self, space, share, monkeypatch):
        # kernel work is carrier pairs times net members, summed over the
        # kernels run; every level of every group would take `full`
        work = [0]
        sup_pairs, dense = proper._sup_pairs, proper.lp_distance_matrix

        def counted_pairs(x, ti, ui, scale=None):
            work[0] += len(ti) * x.shape[1]
            return sup_pairs(x, ti, ui, scale)

        def counted_dense(x, p):
            work[0] += len(x) * (len(x) - 1) // 2 * x.shape[1]
            return dense(x, p)

        monkeypatch.setattr(proper, "_sup_pairs", counted_pairs)
        monkeypatch.setattr(proper, "lp_distance_matrix", counted_dense)
        emb = embed_space_proper(PointedSpace(space, 0))
        params, full, images = emb.params, 0, proper_images(emb)
        for shell in params.k_max:
            m = sum(pair_index(shell, 1) in v.blocks for v in images)
            pairs = m * (m - 1) // 2
            for k in range(1, params.k_max[shell] + 1):
                full += pairs * len(emb.hierarchy.nets[(shell, k)].members)
        work[0] = 0
        emb.image_distances
        assert work[0] <= share * full

    def test_embedding_holds_no_images(self):
        pspace = PointedSpace(random_graph_metric(30, None, 4), 2)
        emb = embed_space_proper(pspace, iso=BlockIsoModel.seeded(0.5, 1.0, 4))
        assert verify_proper(emb).passed
        assert not hasattr(emb, "images")
