import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockembed.blocks import lp_distance_matrix
from blockembed.lp_coarse import LpPointSet, net_round
from blockembed.metric import (
    AsymmetricMatrix,
    LengthMismatch,
    MetricError,
    NegativeEntry,
    NonzeroDiagonal,
    SeedOutsideBall,
    TooFewPoints,
    TriangleViolation,
    ZeroOffDiagonal,
    distortion,
    greedy_maximal_net,
    min_positive_distance,
    moduli_profile,
    validate_metric,
    verify_bounds,
)

import oracles


def euclid(images):
    """Euclidean distance matrix of a list of coordinate vectors."""
    return lp_distance_matrix(np.array(images, dtype=float), 2.0)


@st.composite
def integer_metrics(draw):
    """Integer shortest-path metrics on 1..9 points, so ties at a radius are common."""
    n = draw(st.integers(1, 9))
    weights = draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n))
    return oracles.shortest_path_metric([weights[i * n : (i + 1) * n] for i in range(n)])


def line_space(coords):
    """1-D point set as a metric space."""
    a = np.asarray(coords, dtype=float)
    return validate_metric(np.abs(a[:, None] - a[None, :]))


class TestValidate:
    def test_smallest_valid(self):
        sp = validate_metric([[0, 1], [1, 0]])
        assert sp.n_points == 2
        assert sp.labels == ("p0", "p1")
        assert sp.d(0, 1) == 1.0

    def test_asymmetric(self):
        with pytest.raises(AsymmetricMatrix) as err:
            validate_metric([[0, 1], [2, 0]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_triangle_violation_names_triple(self):
        with pytest.raises(TriangleViolation) as err:
            validate_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry) as err:
            validate_metric([[0, -1], [-1, 0]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal) as err:
            validate_metric([[1, 2], [2, 0]])
        assert err.value.i == 0

    def test_zero_off_diagonal(self):
        with pytest.raises(ZeroOffDiagonal) as err:
            validate_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_not_square(self):
        with pytest.raises(MetricError):
            validate_metric([[0, 1, 2], [1, 0, 1]])

    def test_not_finite(self):
        with pytest.raises(MetricError):
            validate_metric([[0, math.inf], [math.inf, 0]])

    def test_label_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_metric([[0, 1], [1, 0]], labels=["a"])

    def test_hairline_tolerance_default_vs_exact(self):
        # a triangle tight up to one float ulp: accepted by default,
        # rejected by the exact check
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d[0, 2] = d[2, 0] = 2.0 + 4e-16
        validate_metric(d)
        with pytest.raises(TriangleViolation):
            validate_metric(d, tol=0.0)

    def test_default_tolerance_scales_below_one(self):
        # d(0,2) = 3e-13 > d(0,1) + d(1,2) = 2e-13: a slack of 1e-12 would hide it
        d = [[0, 1e-13, 3e-13], [1e-13, 0, 1e-13], [3e-13, 1e-13, 0]]
        with pytest.raises(TriangleViolation) as err:
            validate_metric(d)
        assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)

    def test_agrees_with_triple_loop(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            pts = rng.uniform(0, 4, size=(10, 2))
            d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            np.fill_diagonal(d, 0.0)
            if trial % 3 == 0:
                i, j = rng.integers(0, 10, size=2)
                if i != j:
                    d[i, j] = d[j, i] = d[i, j] * 3 + 1  # break the triangle
            tol = 1e-12 * float(d.max())
            expected = oracles.brute_triangle_violation(d.tolist(), tol)
            if expected is None:
                validate_metric(d)
            else:
                with pytest.raises(TriangleViolation) as err:
                    validate_metric(d)
                assert (err.value.i, err.value.j, err.value.k) == expected


@st.composite
def symmetric_matrices(draw):
    """(matrix, tol): a symmetric matrix with a positive off-diagonal at one
    of several scales, sometimes with one triangle planted within four ulps
    of the slack, and a tol of None (the default), 0.0 or -1e-3."""
    n = draw(st.integers(0, 8))
    scale = draw(st.sampled_from([1e-300, 1e-13, 1.0, 1e300]))
    # entries in [1, 2] satisfy every triangle; from 0.05 up, many do not
    low = draw(st.sampled_from([0.05, 1.0]))
    # full random mantissas, so that sums round and the margin is exercised
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.triu(rng.uniform(low, 2.0, size=(n, n)), 1) * scale
    a = a + a.T
    tol = draw(st.sampled_from([None, 0.0, -1e-3]))
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        base = a[i, k] + a[k, j]
        rest = max(float(a.max()), base)
        target = base + (1e-12 * rest if tol is None else tol)
        if tol is None:  # the planted entry may set the default slack itself
            target = base + 1e-12 * max(rest, target)
        target += draw(st.integers(-4, 4)) * np.spacing(target)
        if target > 0:
            a[i, j] = a[j, i] = target
    return a, tol


class TestTriangleFilter:
    """The min-plus filter in front of the triangle scan against the scan alone."""

    @given(symmetric_matrices())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_as_the_scan(self, case):
        a, tol = case
        effective = 1e-12 * float(a.max(initial=0.0)) if tol is None else tol
        expected = oracles.scan_triangle_violation(a, effective)
        if expected is None:
            validate_metric(a, tol=tol)
            return
        with pytest.raises(MetricError) as err:
            validate_metric(a, tol=tol)
        e = err.value
        assert type(e) is TriangleViolation
        assert (e.i, e.j, e.k, e.lhs, e.rhs) == expected

    def test_flag_the_scan_does_not_confirm_is_accepted(self):
        # an excess of one ulp of 2 (4.4e-16): inside the filter's margin of
        # tol - 16 ulps of 1, but not beyond tol for the exact scan
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d[0, 2] = d[2, 0] = np.nextafter(2.0, 3.0)
        assert oracles.scan_triangle_violation(d, 5e-16) is None
        validate_metric(d, tol=5e-16)


class TestGreedyNet:
    def test_five_points_radius_15(self):
        space = line_space([0, 1, 2, 3, 4])
        net = greedy_maximal_net(space, (0, 10.0), 1.5, 0)
        assert net.members == (0, 2, 4)

    def test_radius_beyond_diameter_gives_seed(self):
        space = line_space([0, 1, 2, 3, 4])
        net = greedy_maximal_net(space, (0, 10.0), 5.0, 0)
        assert net.members == (0,)

    def test_single_point_ball(self):
        space = line_space([0, 8])
        net = greedy_maximal_net(space, (0, 1.0), 0.5, 0)
        assert net.members == (0,)

    def test_seed_outside_ball(self):
        space = line_space([0, 8])
        with pytest.raises(SeedOutsideBall):
            greedy_maximal_net(space, (0, 1.0), 0.5, 1)

    def test_tie_at_exact_radius_is_admitted(self):
        space = line_space([0, 1.5])
        net = greedy_maximal_net(space, (0, 4.0), 1.5, 0)
        assert net.members == (0, 1)

    def test_seed_forced_first(self):
        space = line_space([0, 1, 2, 3, 4])
        net = greedy_maximal_net(space, (2, 10.0), 1.5, 2)
        assert net.members[0] == 2

    def test_brute_force_invariants(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            pts = rng.uniform(0, 6, size=(12, 2))
            d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            np.fill_diagonal(d, 0.0)
            space = validate_metric(d)
            radius = float(rng.uniform(0.3, 3.0))
            ball_r = float(rng.uniform(2.0, 8.0))
            net = greedy_maximal_net(space, (0, ball_r), radius, 0)
            flags = oracles.brute_net_check(
                d.tolist(), net.members, 0, ball_r, radius, 0
            )
            assert flags == (True, True, True)


class TestMinPositiveDistance:
    def test_values(self):
        assert min_positive_distance(line_space([0, 1, 3])) == 1.0
        assert min_positive_distance(validate_metric([[0, 4], [4, 0]])) == 4.0
        tri = validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert min_positive_distance(tri) == 1.0

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            min_positive_distance(validate_metric([[0.0]]))


class TestGreedyOracle:
    """The covered-mask scan against the plain greedy loop of the oracle."""

    @given(integer_metrics(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_greedy_net_any_center_and_seed(self, matrix, data):
        n = len(matrix)
        center = data.draw(st.integers(0, n - 1))
        ball_radius = data.draw(st.integers(0, 12))
        inside = [i for i in range(n) if matrix[i][center] <= ball_radius]
        seed = data.draw(st.sampled_from(inside))
        radius = data.draw(st.integers(1, 6))
        net = greedy_maximal_net(
            validate_metric(matrix), (center, float(ball_radius)), float(radius), seed
        )
        members, _ = oracles.brute_greedy_net(matrix, center, ball_radius, radius, seed)
        assert list(net.members) == members

    @given(integer_metrics(), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_net_round_on_matrix(self, matrix, radius, data):
        basepoint = data.draw(st.integers(0, len(matrix) - 1))
        members, beta = net_round(validate_metric(matrix), 2.0 * radius, basepoint)
        expected = oracles.brute_greedy_net(matrix, basepoint, math.inf, radius, basepoint)
        assert (list(members), list(beta)) == expected

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=10, unique=True
        ),
        st.sampled_from([1.0, math.inf]),
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_net_round_on_cloud(self, points, p, radius, data):
        # integer coordinates keep l_1 and l_inf distances exact integers
        basepoint = data.draw(st.integers(0, len(points) - 1))
        cloud = LpPointSet(p, np.array(points, dtype=float), basepoint)
        members, beta = net_round(cloud, 2.0 * radius)
        matrix = [[oracles.brute_lp_dist(a, b, p) for b in points] for a in points]
        expected = oracles.brute_greedy_net(matrix, basepoint, math.inf, radius, basepoint)
        assert (list(members), list(beta)) == expected


class TestModuli:
    def test_identity_on_three_points(self):
        # pairs of {0,1,3}: distances 1, 2, 3; non-strict thresholds
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        prof = moduli_profile(space, [0.0, 2.0, 3.0], image_distances=euclid(images))
        assert prof.compression == (1.0, 2.0, 3.0)
        assert prof.expansion == (0.0, 2.0, 3.0)

    def test_omega_zero_at_zero(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (5.0, 1.0, 2.0)]
        prof = moduli_profile(space, [0.0], image_distances=euclid(images))
        assert prof.expansion == (0.0,)

    def test_rho_at_max_distance(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        prof = moduli_profile(space, [3.0], image_distances=euclid(images))
        assert prof.compression == (3.0,)

    def test_unbounded_marker_above_diameter(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        prof = moduli_profile(space, [4.0], image_distances=euclid(images))
        assert prof.compression == (math.inf,)
        assert prof.expansion == (3.0,)

    def test_thresholds_sorted_and_monotone(self):
        space = line_space([0, 1, 3, 7])
        rng = np.random.default_rng(11)
        images = [rng.uniform(-1, 1, size=3) for _ in range(4)]
        prof = moduli_profile(space, [5.0, 0.5, 2.0, 9.0], image_distances=euclid(images))
        assert prof.thresholds == (0.5, 2.0, 5.0, 9.0)
        finite = [c for c in prof.compression if not math.isinf(c)]
        assert all(a <= b for a, b in zip(finite, finite[1:]))
        assert all(a <= b for a, b in zip(prof.expansion, prof.expansion[1:]))

    def test_negative_threshold_rejected(self):
        space = line_space([0, 1])
        with pytest.raises(MetricError):
            moduli_profile(space, [-1.0], image_distances=euclid([np.zeros(1), np.ones(1)]))

    def test_length_mismatch(self):
        space = line_space([0, 1, 3])
        with pytest.raises(LengthMismatch):
            moduli_profile(space, [1.0], image_distances=euclid([np.zeros(1)]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 5, size=(16, 3))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, 0.0)
        space = validate_metric(d)
        images = [rng.uniform(-2, 2, size=4) for _ in range(16)]
        ts = [0.0, 0.5, 1.0, 2.0, 4.0, 10.0]
        prof = moduli_profile(space, ts, image_distances=euclid(images))
        imat = [
            [oracles.brute_lp_dist(images[i], images[j], 2.0) for j in range(16)]
            for i in range(16)
        ]
        comp, expa = oracles.brute_moduli(d.tolist(), imat, ts)
        for a, b in zip(prof.compression, comp):
            assert a == b or abs(a - b) < 1e-12
        for a, b in zip(prof.expansion, expa):
            assert abs(a - b) < 1e-12


class TestDistortion:
    def test_identity(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        assert distortion(space, image_distances=euclid(images)) == 1.0

    def test_scaling_invariance(self):
        space = line_space([0, 1, 3])
        images = [np.array([2 * c]) for c in (0.0, 1.0, 3.0)]
        assert distortion(space, image_distances=euclid(images)) == 1.0

    def test_stretch_by_two(self):
        space = line_space([0, 1, 2])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        assert distortion(space, image_distances=euclid(images)) == 2.0

    def test_collapsed_pair_is_infinite(self):
        space = line_space([0, 1, 3])
        images = [np.array([0.0]), np.array([0.0]), np.array([1.0])]
        assert distortion(space, image_distances=euclid(images)) == math.inf


class TestVerifyBounds:
    def test_two_point_envelope(self):
        from blockembed.proper import WEIGHT_SERIES_SUM, separation_envelope

        space = validate_metric([[0, 4], [4, 0]])
        images = [np.array([0.0]), np.array([4.0])]
        rep = verify_bounds(
            space,
            separation_envelope,
            lambda d: 9 * WEIGHT_SERIES_SUM * d,
            image_distances=euclid(images),
        )
        assert rep.passed
        # the one pair's image distance is 4
        assert rep.worst_lower_slack == pytest.approx(4 - 4 / 624, abs=1e-12)
        assert rep.worst_upper_slack == pytest.approx(113.5205314 - 4, abs=1e-6)

    def test_zero_map_fails_every_pair(self):
        space = line_space([0, 1, 3])
        images = [np.zeros(2)] * 3
        rep = verify_bounds(space, lambda d: 0.1 * d, lambda d: d, image_distances=euclid(images))
        assert not rep.passed
        assert rep.n_failed == rep.n_pairs == 3
        assert rep.empirical_distortion == math.inf

    def test_zero_map_fails_at_any_scale(self):
        # at 1e-9 every lower envelope value lies inside the default tolerance,
        # so only the identical images can fail the map
        from blockembed.fixtures import random_graph_metric
        from blockembed.proper import separation_envelope

        space = validate_metric(1e-9 * random_graph_metric(40, None, 7).dist)
        zero = np.zeros((40, 40))
        rep = verify_bounds(space, separation_envelope, lambda d: d, image_distances=zero)
        assert rep.worst_lower_slack > -rep.tolerance
        assert not rep.passed
        assert rep.n_failed == rep.n_pairs == 40 * 39 // 2

    def test_zero_image_passes_under_a_negative_lower_envelope(self):
        # coarse pairs rounded onto one net member share an image
        space = line_space([0, 1, 3])
        m = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
        rep = verify_bounds(space, lambda d: d - 1.5, lambda d: d + 1.5, image_distances=m)
        assert rep.passed

    def test_identity_zero_upper_slack(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        rep = verify_bounds(space, lambda d: 0.0, lambda d: d, image_distances=euclid(images))
        assert rep.passed
        assert rep.worst_upper_slack == 0.0
        assert rep.empirical_distortion == 1.0

    def test_tolerance_absorbs_small_violation(self):
        space = validate_metric([[0, 1], [1, 0]])
        images = [np.array([0.0]), np.array([1.0])]
        tight = verify_bounds(
            space, lambda d: d + 5e-10, lambda d: d, image_distances=euclid(images), tolerance=1e-9
        )
        assert tight.passed
        strict = verify_bounds(
            space, lambda d: d + 5e-10, lambda d: d, image_distances=euclid(images), tolerance=0.0
        )
        assert not strict.passed

    def test_worst_slacks_match_brute_force(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 3, size=(12, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, 0.0)
        space = validate_metric(d)
        images = [rng.uniform(-1, 1, size=3) for _ in range(12)]
        lower = lambda t: 0.05 * t
        upper = lambda t: 5.0 * t
        rep = verify_bounds(space, lower, upper, image_distances=euclid(images))
        imat = [
            [oracles.brute_lp_dist(images[i], images[j], 2.0) for j in range(12)]
            for i in range(12)
        ]
        lo, hi = oracles.brute_worst_slacks(d.tolist(), imat, lower, upper)
        assert rep.worst_lower_slack == pytest.approx(lo, abs=1e-12)
        assert rep.worst_upper_slack == pytest.approx(hi, abs=1e-12)


class TestReportIsPlainValues:
    """A report holds counts, extrema and constants, nothing of size n."""

    @staticmethod
    def report(verifier, n):
        from blockembed.fixtures import random_graph_metric, random_lp_cloud
        from blockembed.lp_coarse import coarse_embed, embed_set_lp, verify_coarse, verify_lp
        from blockembed.metric import PointedSpace
        from blockembed.proper import embed_space_proper, verify_proper

        if verifier == "proper":
            return verify_proper(embed_space_proper(PointedSpace(random_graph_metric(n, None, 3))))
        cloud = random_lp_cloud(n, 3, 2.0, seed=3)
        if verifier == "lp":
            return verify_lp(embed_set_lp(cloud))
        return verify_coarse(coarse_embed(cloud, 1.0))

    @pytest.mark.parametrize("verifier", ["proper", "lp", "coarse"])
    def test_pickles_to_a_size_independent_of_n(self, verifier):
        import pickle

        small, large = self.report(verifier, 16), self.report(verifier, 256)
        for rep in (small, large):
            assert pickle.loads(pickle.dumps(rep)).summary() == rep.summary()
        assert len(pickle.dumps(large)) <= 2 * len(pickle.dumps(small))


def _separation_pair():
    from blockembed.proper import WEIGHT_SERIES_SUM, separation_envelope

    return separation_envelope, lambda d: 9.0 * WEIGHT_SERIES_SUM * d


# (lower, upper) envelope pairs: the l_p embedding's linear pair, the coarse
# embedding's affine pair, the proper embedding's pair, and envelopes that
# fail pairs (the lower above the upper, NaN for the larger distances)
ENVELOPES = {
    "lp-linear": (lambda d: d / 20.402, lambda d: 9.0 * d),
    "coarse-affine": (lambda d: d / 20.402 - 9.0, lambda d: 20.402 * d + 9.0),
    "separation": _separation_pair(),
    "failing": (lambda d: 2.0 * d, lambda d: 0.5 * d),
    "nan": (lambda d: math.nan if d > 2.0 else 0.0, lambda d: 9.0 * d),
}


class TestVerifyBoundsAgainstLoop:
    """The row-wise verifier against the former per-pair loop."""

    @pytest.mark.parametrize("envelope", sorted(ENVELOPES))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17])
    @pytest.mark.parametrize("images", ["scaled", "random", "zero", "some-zero"])
    @pytest.mark.parametrize("tolerance", [1e-9, 0.0])
    def test_same_report_as_the_loop(self, envelope, n, images, tolerance):
        rng = np.random.default_rng(n)
        pts = rng.uniform(0, 6, size=(n, 2))
        space = validate_metric(lp_distance_matrix(pts, 2.0))
        if images == "scaled":
            m = 1.5 * space.dist
        elif images == "random":
            m = lp_distance_matrix(rng.uniform(-3, 3, size=(n, 4)), 2.0)
        elif images == "zero":
            m = np.zeros((n, n))
        else:
            m = lp_distance_matrix(np.round(pts / 3.0), 2.0)  # shared images
        lower, upper = ENVELOPES[envelope]
        rep = verify_bounds(space, lower, upper, image_distances=m, tolerance=tolerance)
        summary, passed = oracles.loop_verify_bounds(space, lower, upper, m, tolerance)
        assert rep.summary() == summary
        assert rep.passed == passed

    def test_nan_tolerance_raises(self):
        space = line_space([0, 1, 3])
        with pytest.raises(ValueError):
            verify_bounds(
                space, lambda d: 0.0, lambda d: d, image_distances=space.dist, tolerance=math.nan
            )

    def test_peak_memory_does_not_grow_with_records(self):
        import tracemalloc

        from blockembed.fixtures import random_lp_cloud

        space = random_lp_cloud(512, 3, 2.0, seed=1).metric_space
        m = 1.5 * space.dist
        lower, upper = ENVELOPES["lp-linear"]
        tracemalloc.start()
        try:
            rep = verify_bounds(space, lower, upper, image_distances=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_pairs == 512 * 511 // 2 and rep.passed
        assert peak < 4 * 2**20
