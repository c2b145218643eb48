import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockembed import blocks, metric
from blockembed.blocks import (
    BlockIsoModel,
    BlockVector,
    _norms,
    lp_distance_matrix,
    pairwise_distance_matrix,
)
from blockembed.lp_coarse import (
    CoarseConstants,
    LpEmbedding,
    LpParams,
    LpPointSet,
    NormBelowOne,
    SizeCapExceeded,
    coarse_embed,
    embed_set_lp,
    grid_net,
    max_rounding_deviation,
    net_round,
    normalize_pointed,
    verify_coarse,
    verify_lp,
)
from blockembed.metric import MetricError, ZeroOffDiagonal, validate_metric

import oracles
from oracles import (
    DomainMismatch,
    axpy,
    embed_point_lp,
    inner_norm,
    outer_norm,
    psi_round,
    rescaled_restriction,
)


def cloud_1d(coords, basepoint=0, p=2.0):
    return LpPointSet(p, np.asarray(coords, dtype=float).reshape(-1, 1), basepoint)


class TestNormalize:
    def test_already_separated(self):
        ns, translation, scale = normalize_pointed(cloud_1d([5.0, 7.0]))
        assert list(ns.points.ravel()) == [0.0, 2.0]
        assert list(translation) == [5.0]
        assert scale == 1.0

    def test_scales_up_small_sets(self):
        ns, translation, scale = normalize_pointed(cloud_1d([0.0, 0.25]))
        assert list(ns.points.ravel()) == [0.0, 1.0]
        assert scale == 4.0

    def test_single_point_identity(self):
        ns, translation, scale = normalize_pointed(cloud_1d([3.0]))
        assert list(ns.points.ravel()) == [0.0]
        assert scale == 1.0

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_min_positive_norm_at_least_one(self, p):
        rng = np.random.default_rng(31)
        for trial in range(10):
            pts = rng.uniform(-0.2, 0.2, size=(12, 3))
            ns, _, _ = normalize_pointed(LpPointSet(p, pts, basepoint=trial % 12))
            norms = [inner_norm(row, p) for row in ns.points]
            positive = [v for v in norms if v > 0]
            assert min(positive) >= 1.0


def metric_outcome(build):
    """A metric space's labels, matrix and writeable flag, or its error's
    type, message and fields."""
    try:
        space = build()
    except MetricError as err:
        return type(err), err.args, vars(err)
    return space.labels, space.dist.tobytes(), space.dist.flags.writeable


def full_check(p, pts):
    return metric_outcome(lambda: validate_metric(lp_distance_matrix(pts, p)))


def cloud_metric(p, pts):
    return metric_outcome(lambda: LpPointSet(p, pts).metric_space)


@st.composite
def lp_clouds(draw):
    """(p, points): 1..10 points in dim 1..64 at a scale from 1e-300
    to 1e300, sometimes with a duplicate point, with every row spread over
    several decades, or moved far away and translated back by one point,
    and about one time in four with a NaN or infinite coordinate."""
    p = draw(st.sampled_from([1.0, 2.0, math.inf, 3.0]))
    n = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, dim)) * 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):
        pts *= 10.0 ** rng.integers(-8, 9, size=(n, 1))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        pts[j] = pts[i]
    far = draw(st.sampled_from([0.0, 1e8, 1e16])) * float(np.abs(pts).max())
    if far and math.isfinite(2 * far):  # away from the origin, then back as normalize_pointed does
        pts = pts + far
        pts = pts - pts[draw(st.integers(0, n - 1))]
    if draw(st.integers(0, 3)) == 0:
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))
        pts[row, col] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return p, pts


class TestMetricSpace:
    """LpPointSet.metric_space, proved or scanned, against validate_metric."""

    @given(lp_clouds())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_validate_metric(self, case):
        p, pts = case
        # only a distance past the largest double (every l_p distance is at
        # most 2 * dim * max|x|) may overflow, to inf with a warning, on both
        # sides; a NaN coordinate leaves the bound unknown
        past_max = not np.abs(pts).max() <= np.finfo(float).max / (4.0 * pts.shape[1])
        with np.errstate(over="ignore" if past_max else "warn"):
            expected = full_check(p, pts)
            assert cloud_metric(p, pts) == expected
        if not isinstance(expected[0], type):
            assert expected[2] is False

    @given(lp_clouds())
    @settings(max_examples=150, deadline=None)
    def test_triangle_slack_bounds_every_exact_defect(self, case):
        p, pts = case
        try:
            with np.errstate(over="ignore"):
                space = LpPointSet(p, pts).metric_space
        except MetricError:
            return
        assert space.triangle_slack >= oracles.exact_triangle_defect(space.dist)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("dim", [1, 3, 64])
    def test_tight_collinear_triangles(self, p, dim):
        # every triangle of collinear points is tight in every l_p
        rng = np.random.default_rng(dim)
        direction = rng.uniform(-1.0, 1.0, size=dim)
        pts = np.sort(rng.uniform(0.0, 10.0, size=24))[:, None] * direction
        assert cloud_metric(p, pts) == full_check(p, pts)
        LpPointSet(p, pts).metric_space  # and both accept

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_tight_axis_aligned_triangles(self, p):
        # l_1 sums and l_inf maxima on a grid: many triangles exactly tight
        pts = np.array(list(np.ndindex(4, 4, 3)), dtype=float) * 0.1
        assert cloud_metric(p, pts) == full_check(p, pts)
        LpPointSet(p, pts).metric_space  # and both accept

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_translation_that_merges_points(self, p):
        # 0 - 1e16 and 1 - 1e16 round to the same double
        cloud = LpPointSet(p, np.array([[0.0], [1.0], [1e16]]), basepoint=2)
        cloud.metric_space  # distinct before the translation
        ns, _, _ = normalize_pointed(cloud)
        expected = full_check(p, ns.points)
        assert expected[0] is ZeroOffDiagonal and expected[2] == {"i": 0, "j": 1}
        assert metric_outcome(lambda: ns.metric_space) == expected

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("dim, scanned", [(1024, False), (1025, True)])
    def test_dim_cap(self, monkeypatch, p, dim, scanned):
        calls = []
        original = metric.validate_metric
        monkeypatch.setattr(
            metric, "validate_metric", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        rng = np.random.default_rng(dim)
        pts = np.sort(rng.uniform(0.0, 10.0, size=8))[:, None] * rng.uniform(-1, 1, size=dim)
        pts[5] += rng.uniform(-1e-3, 1e-3, size=dim)  # one point off the line
        expected = full_check(p, pts)
        calls.clear()
        assert cloud_metric(p, pts) == expected
        assert calls == ([1] if scanned else [])


    def test_one_distance_matrix_per_cloud(self):
        import tracemalloc

        from blockembed.fixtures import random_lp_cloud

        cloud = LpPointSet(2.0, random_lp_cloud(512, 3, 2.0, seed=1).points)
        n = cloud.n_points
        tracemalloc.start()
        try:
            space = cloud.metric_space
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cloud.metric_space is space
        assert not space.dist.flags.writeable
        assert peak < 1.5 * n * n * 8  # the matrix, not it and a copy
        # validate_metric still copies a caller's array and leaves it writable
        arr = space.dist.copy()
        checked = validate_metric(arr)
        assert not np.shares_memory(checked.dist, arr)
        assert arr.flags.writeable and np.array_equal(checked.dist, arr)

        class Holder:  # an array-like whose __array__ hands out its own buffer
            def __array__(self, dtype=None, copy=None):
                return arr.copy() if copy else arr

        checked = validate_metric(Holder())
        assert not np.shares_memory(checked.dist, arr) and arr.flags.writeable

    def test_scanned_cloud_keeps_the_checked_copy_only(self):
        pts = np.random.default_rng(5).uniform(-1, 1, (20, 3))
        cloud = LpPointSet(3.0, pts)  # no rounding bound for p = 3: scanned
        space = cloud.metric_space
        assert cloud.metric_space is space and not space.dist.flags.writeable
        assert np.array_equal(lp_distance_matrix(pts, 3.0), space.dist)


class TestLpParams:
    def test_frozen_and_diagonal_is_a_fresh_keyed_draw(self):
        params = LpParams(lambda_sim=2.0, seed=6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.seed = 7
        for dim in (5, 3, 5):
            diag = params.diag_map(dim)
            assert not diag.flags.writeable
            draw = np.random.default_rng([6, 211]).uniform(0.5, 1.0, size=dim)
            assert np.array_equal(diag, draw)
        assert np.array_equal(LpParams(seed=6).diag_map(4), np.ones(4))
        fields = [f.name for f in dataclasses.fields(params)]
        assert fields == ["delta", "lambda_sim", "seed", "theta_mode"]
        assert params.iso == BlockIsoModel("seeded-random", 1.0 / 1.01, 1.0, 6)
        assert "iso" not in vars(params)  # derived on use, never cached on the instance
        with pytest.raises(ValueError, match="unknown iso mode"):
            LpParams(theta_mode="uniform")


class TestEmbedPoint:
    def test_origin_maps_to_empty(self):
        img = embed_point_lp(np.zeros(3), LpParams(delta=0.0), 2.0)
        assert not img.blocks

    def test_single_shell_at_dyadic_norm(self):
        params = LpParams(delta=0.0, lambda_sim=1.0)
        img = embed_point_lp(np.array([4.0]), params, 2.0)
        assert tuple(img.blocks) == (2,)
        assert list(img.blocks.get(2)) == [4.0]
        assert outer_norm(img, 2.0) == 4.0

    def test_split_shells_l1(self):
        params = LpParams(delta=0.0, lambda_sim=1.0)
        img = embed_point_lp(np.array([6.0]), params, 1.0)
        assert tuple(img.blocks) == (2, 3)
        assert list(img.blocks.get(2)) == [3.0]
        assert list(img.blocks.get(3)) == [3.0]
        assert outer_norm(img, 1.0) == 6.0

    def test_norm_below_one_rejected(self):
        with pytest.raises(NormBelowOne):
            embed_point_lp(np.array([0.5]), LpParams(), 2.0)

    def test_dyadic_boundary_consistency(self):
        params = LpParams(delta=0.01, lambda_sim=2.0, seed=5)
        t = np.array([0.0, 8.0, 0.0])
        default = embed_point_lp(t, params, 2.0)
        upper_side = embed_point_lp(t, params, 2.0, annulus=(3, 1.0))
        lower_side = embed_point_lp(t, params, 2.0, annulus=(2, 0.0))
        assert default == upper_side == lower_side

    def test_per_tier_linearity(self):
        params = LpParams(delta=0.01, lambda_sim=2.0, seed=9)
        from blockembed.proper import annulus_index

        rng = np.random.default_rng(2)
        for _ in range(20):
            t = rng.uniform(-4, 4, size=5)
            r = inner_norm(t, 2.0)
            if r < 1:
                continue
            n, lam = annulus_index(r)
            img = embed_point_lp(t, params, 2.0)
            rt = params.diag_map(5) * t
            assert np.array_equal(img.blocks.get(n), lam * params.iso.factor(n) * rt)
            if lam < 1:
                assert np.array_equal(
                    img.blocks.get(n + 1), (1 - lam) * params.iso.factor(n + 1) * rt
                )


class TestVerifyLp:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_envelope_on_random_clouds(self, p, lam, delta):
        rng = np.random.default_rng(int(10 * lam + 100 * delta) + int(1 if math.isinf(p) else p))
        cloud = LpPointSet(p, rng.uniform(0, 8, size=(24, 4)))
        params = LpParams(
            delta=delta,
            lambda_sim=lam,
            seed=7,
            theta_mode="exact" if delta == 0 else "seeded-random",
        )
        emb = embed_set_lp(cloud, params)
        rep = verify_lp(emb)
        assert rep.passed
        assert rep.constants["lower_denominator"] == pytest.approx(
            20 * lam**2 * (1 + delta) ** 2
        )
        # the matrix the verifier read is the embedding's own, computed once
        assert emb.image_distances is emb.image_distances
        assert np.array_equal(
            emb.image_distances, pairwise_distance_matrix(oracles.lp_images(emb), p)
        )

    def test_one_dimensional_ratios_inside_envelope(self):
        params = LpParams(delta=0.01, lambda_sim=1.0, theta_mode="exact")
        emb = embed_set_lp(cloud_1d([0.0, 4.0]), params)
        rep = verify_lp(emb)
        assert rep.passed
        ratio = pairwise_distance_matrix(oracles.lp_images(emb), 2.0)[0, 1] / 4.0
        assert ratio == 1.0
        assert 1 / 20.402 <= ratio <= 9.0

    def test_zero_map_fails_every_pair(self):
        class ZeroMap(LpEmbedding):
            """Every point to the empty block vector."""

            @property
            def image_distances(self):
                empty = [BlockVector()] * self.pointset.n_points
                return pairwise_distance_matrix(empty, self.pointset.p)

        base = embed_set_lp(cloud_1d([0.0, 2.0, 5.0]), LpParams(delta=0.0))
        broken = ZeroMap(base.pointset, base.params, base.translation, base.scale)
        rep = verify_lp(broken)
        assert rep.n_failed == rep.n_pairs == 3

    def test_a_collapsed_pair_fails_at_subnormal_scale(self):
        # points 1 and 2 lie 2^-1074 apart at norm 1: their second coordinates
        # 2 and 3 * 2^-1074, times theta_0 * R_1 (about 0.77), both round to
        # 2 * 2^-1074, and d / denominator rounds to 0 below the floor 2^-1074
        tiny = 2.0**-1074
        cloud = LpPointSet(math.inf, [[0, 0], [1, 2 * tiny], [1, 3 * tiny]])
        emb = embed_set_lp(cloud, LpParams(lambda_sim=2.0))
        assert np.argwhere(np.triu(emb.image_distances == 0, 1)).tolist() == [[1, 2]]
        rep = verify_lp(emb)
        assert (rep.passed, rep.n_failed, rep.worst_lower_slack) == (False, 1, -tiny)
        assert rep.empirical_distortion == math.inf

    def test_worst_slacks_match_brute_force(self):
        rng = np.random.default_rng(41)
        cloud = LpPointSet(2.0, rng.uniform(0, 6, size=(14, 3)))
        params = LpParams(delta=0.01, lambda_sim=2.0, seed=13)
        emb = embed_set_lp(cloud, params)
        rep = verify_lp(emb)
        imat = oracles.brute_pair_distances(oracles.lp_images(emb), 2.0, 2.0)
        dmat = emb.pointset.metric_space.dist.tolist()
        denom = params.lower_denominator()
        lo, hi = oracles.brute_worst_slacks(
            dmat, imat, lambda d: d / denom, lambda d: 9 * d
        )
        assert rep.worst_lower_slack == pytest.approx(lo, abs=1e-12)
        assert rep.worst_upper_slack == pytest.approx(hi, abs=1e-12)


class TestNetRound:
    def test_scan_order_example(self):
        cloud = cloud_1d([0.0, 1.0, 2.0, 0.7, 0.25])
        members, beta = net_round(cloud.metric_space, 1.0)
        assert members == (0, 1, 2)
        assert beta == (0, 1, 2, 1, 0)

    def test_net_members_fixed(self):
        rng = np.random.default_rng(3)
        cloud = LpPointSet(2.0, rng.uniform(0, 5, size=(30, 2)))
        members, beta = net_round(cloud.metric_space, 0.8)
        for m in members:
            assert beta[m] == m

    def test_rounding_inequality_exact(self):
        rng = np.random.default_rng(19)
        for p in (1.0, 2.0, math.inf):
            cloud = LpPointSet(p, rng.uniform(0, 5, size=(40, 3)))
            for eps in (0.3, 1.0):
                members, beta = net_round(cloud.metric_space, eps)
                assert max_rounding_deviation(cloud.metric_space, beta) <= eps + 1e-12

    def test_displacement_below_half_eps(self):
        rng = np.random.default_rng(23)
        cloud = LpPointSet(2.0, rng.uniform(0, 5, size=(25, 2)))
        d = cloud.metric_space.dist
        members, beta = net_round(cloud.metric_space, 0.9)
        for i, m in enumerate(beta):
            assert d[i, m] < 0.45

    @given(
        st.integers(0, 40),
        st.sampled_from(["identity", "constant", "random", "net"]),
        st.floats(0.1, 20.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_members_fixed_and_deviation_over_every_pair(self, n, kind, eps, seed):
        # net_round searches only the rows of non-members, and
        # max_rounding_deviation reads only the rows beta moves
        rng = np.random.default_rng(seed)
        space = validate_metric(lp_distance_matrix(rng.uniform(0, 10, size=(n, 2)), 2.0))
        d = space.dist
        if kind == "net" and n:
            basepoint = int(rng.integers(n))
            members, beta = net_round(space, eps, basepoint)
            assert members[0] == basepoint
            for m in members:
                assert beta[m] == m
            for t in range(n):
                assert beta[t] == next(m for m in members if d[t, m] < eps / 2)
        elif kind == "constant" and n:
            beta = (int(rng.integers(n)),) * n
        elif kind == "random":
            beta = tuple(int(b) for b in rng.integers(max(n, 1), size=n))
        else:
            beta = tuple(range(n))
        brute = max(
            (abs(d[beta[a], beta[b]] - d[a, b]) for a in range(n) for b in range(n)),
            default=0.0,
        )
        assert max_rounding_deviation(space, beta) == brute

    def test_bad_eps(self):
        for eps in (0.0, math.inf):
            with pytest.raises(ValueError):
                net_round(cloud_1d([0.0, 1.0]).metric_space, eps)


class TestCoarseEmbed:
    def test_constants_example(self):
        cloud = cloud_1d([0.0, 2.0, 5.0, 9.0])
        ce = coarse_embed(cloud, 1.0, LpParams(delta=0.01, lambda_sim=1.0))
        assert ce.constants.c_d == pytest.approx(20.402)
        assert ce.constants.c_a == 9.0

    def test_small_lower_denominator_floors_at_nine(self):
        cloud = cloud_1d([0.0, 2.0, 5.0])
        ce = coarse_embed(cloud, 0.5, LpParams(delta=0.0, lambda_sim=1.0))
        assert ce.constants.c_d == 20.0
        ce2 = coarse_embed(cloud, 0.5, LpParams(delta=0.0, lambda_sim=1.0))
        assert max(9.0, 20.0) == ce2.constants.c_d

    def test_tiny_eps_makes_beta_identity(self):
        cloud = cloud_1d([0.0, 2.0, 5.0, 9.0])
        eps = 1e-3  # eps/2 below the minimum separation
        ce = coarse_embed(cloud, eps, LpParams(delta=0.01))
        assert ce.beta == (0, 1, 2, 3)
        assert ce.members == (0, 1, 2, 3)
        assert ce.constants.c_a == 9 * eps

    def test_certified_inequality_on_sup_cloud(self):
        rng = np.random.default_rng(77)
        cloud = LpPointSet(math.inf, rng.uniform(0, 8, size=(64, 3)))
        ce = coarse_embed(cloud, 0.5, LpParams(delta=0.01, seed=4))
        rep = verify_coarse(ce, tolerance=0.0)
        assert rep.passed
        assert max_rounding_deviation(cloud.metric_space, ce.beta) <= 0.5
        assert ce.image_distances is ce.image_distances
        images = oracles.coarse_images(ce)
        assert np.array_equal(ce.image_distances, pairwise_distance_matrix(images, math.inf))

    def test_inequality_holds_in_input_units_after_rescaling(self):
        # a set tighter than the unit ball forces a normalization scale > 1;
        # the certified inequality must still hold against original distances
        rng = np.random.default_rng(15)
        cloud = LpPointSet(2.0, rng.uniform(0, 0.4, size=(20, 2)))
        ce = coarse_embed(cloud, 0.1, LpParams(delta=0.01, seed=6))
        rep = verify_coarse(ce, tolerance=0.0)
        assert rep.passed

    def test_constants_validated(self):
        for c_d, c_a in ((0.0, 1.0), (9.0, math.inf), (math.inf, 1.0), (9.0, math.nan)):
            with pytest.raises(ValueError):
                CoarseConstants(c_d=c_d, c_a=c_a, eps=1.0)


@st.composite
def factored_cases(draw):
    """(cloud, params, eps): 2..10 distinct points of a dim 1..3 integer
    grid, sometimes jittered off it, scaled by a unit that makes many norms
    exactly dyadic, scales the cloud up (tiny units) or overflows its l_2
    fold (1e300), with any basepoint."""
    p = draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    n = draw(st.integers(2, 10))
    dim = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-16, 16)] * dim)
    pts = np.array(draw(st.lists(row, min_size=n, max_size=n, unique=True)), dtype=float)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pts += rng.uniform(-0.4, 0.4, size=pts.shape)  # keeps the points distinct
    pts *= draw(st.sampled_from([1.0, 0.25, 3.0, 1e-3, 2.0**-600, 1e300]))
    cloud = LpPointSet(p, pts, basepoint=draw(st.integers(0, n - 1)))
    params = LpParams(
        delta=draw(st.sampled_from([0.0, 0.01, 0.5])),
        lambda_sim=draw(st.sampled_from([1.0, 3.0])),
        seed=draw(st.integers(0, 50)),
        theta_mode=draw(st.sampled_from(["exact", "seeded-random"])),
    )
    eps = draw(st.sampled_from([0.1, 1.0, 5.0, 40.0])) * float(np.abs(pts).max())
    return cloud, params, eps


def assert_bit_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_factored_equals_images(emb):
    lp = isinstance(emb, LpEmbedding)
    images = oracles.lp_images(emb) if lp else oracles.coarse_images(emb)
    assert_bit_equal(emb.image_distances, pairwise_distance_matrix(images, emb.pointset.p))


class TestShellSortedDistances:
    """image_distances, from one fold over the points sorted by shell, equal
    the distance matrix of the images bit for bit."""

    @given(factored_cases())
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_images_distances(self, case):
        cloud, params, eps = case
        emb = embed_set_lp(cloud, params)
        assert_factored_equals_images(emb)
        # the images the embedding builds from its shell runs are the model's
        assert emb.images == oracles.lp_images(emb)
        assert_factored_equals_images(coarse_embed(cloud, eps, params))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_grid_net_with_dyadic_norms(self, p):
        cloud = LpPointSet(p, grid_net(2, 2), basepoint=12)  # the origin
        params = LpParams(delta=0.01, lambda_sim=2.0, seed=3)
        emb = embed_set_lp(cloud, params)
        # some points sit exactly on a shell boundary: one block, blend 1
        assert any(len(v.blocks) == 1 for v in oracles.lp_images(emb)[1:])
        assert_factored_equals_images(emb)
        assert_factored_equals_images(coarse_embed(cloud, 0.6, params))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_basepoint_row_holds_the_image_norms(self, p):
        rng = np.random.default_rng(5)
        cloud = LpPointSet(p, rng.uniform(0, 8, size=(12, 3)), basepoint=7)
        emb = embed_set_lp(cloud, LpParams(seed=2))
        images = oracles.lp_images(emb)
        assert not images[7].blocks
        norms = [outer_norm(v, p) if v.blocks else 0.0 for v in images]
        # the fold sums block by block, outer_norm over the concatenation
        np.testing.assert_allclose(emb.image_distances[7], norms, rtol=1e-14)
        assert_factored_equals_images(emb)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_cloud_in_one_shell(self, p):
        rng = np.random.default_rng(8)
        directions = rng.normal(size=(15, 4))
        directions /= _norms(np.abs(directions), p)[:, None]
        radii = rng.uniform(1.0, 1.9, size=(15, 1))
        cloud = LpPointSet(p, np.vstack([np.zeros(4), directions * radii]))
        emb = embed_set_lp(cloud, LpParams(seed=4, lambda_sim=1.5))
        assert emb.scale == 1.0
        assert {tuple(v.blocks) for v in oracles.lp_images(emb)[1:]} == {(0, 1)}
        assert_factored_equals_images(emb)

    @pytest.mark.parametrize("unit", [1e-3, 2.0**-600])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_tiny_cloud_scaled_up(self, p, unit):
        rng = np.random.default_rng(11)
        cloud = LpPointSet(p, rng.uniform(0, 1, size=(14, 3)) * unit)
        emb = embed_set_lp(cloud, LpParams(seed=6))
        assert emb.scale > 1.0
        assert_factored_equals_images(emb)
        assert_factored_equals_images(coarse_embed(cloud, 0.2 * unit, LpParams(seed=6)))

    def test_l2_overflow_is_redone_scaled(self, monkeypatch):
        shifts = []
        fold = blocks._fold

        def recording(n, blocks_, p, shift):
            shifts.append(shift)
            return fold(n, blocks_, p, shift)

        monkeypatch.setattr(blocks, "_fold", recording)
        rng = np.random.default_rng(13)
        cloud = LpPointSet(2.0, rng.uniform(-1, 1, size=(12, 3)) * 1e306)
        emb = embed_set_lp(cloud, LpParams(seed=1))
        distances = emb.image_distances
        assert shifts[0] == 0 and shifts[1] > 0  # the plain fold overflowed
        assert np.isfinite(distances).all()
        assert_factored_equals_images(emb)

    @pytest.mark.parametrize("gap", [1e-160, 1e-170, 1e-300, 5e-324])
    def test_l2_underflow_is_redone_scaled(self, monkeypatch, gap):
        # the squares of the gap's image distances leave the normal range, and
        # those of the far points' overflow; two of those share the coordinate
        # 1e300, which scaling coordinates by 2^980 would overflow
        shifts = []
        fold = blocks._fold

        def recording(n, blocks_, p, shift):
            shifts.append(shift)
            return fold(n, blocks_, p, shift)

        monkeypatch.setattr(blocks, "_fold", recording)
        cloud = LpPointSet(2.0, [[0, 0], [1, 0], [1e300, 0], [1e300, gap], [1, gap]])
        emb = embed_set_lp(cloud, LpParams(seed=1))
        distances = emb.image_distances
        assert shifts[0] == 0 and shifts[1] > 0 and shifts[2:] == [-980]  # over, then under
        images = oracles.lp_images(emb)
        for t, u in ((1, 4), (2, 3)):
            # _norms redoes the one concatenated difference whose squares underflow
            exact = outer_norm(axpy(1.0, images[t], -1.0, images[u]), 2.0)
            assert 0 < exact <= 1e-159
            assert distances[t, u] == distances[u, t] == pytest.approx(exact, rel=4e-16)
        assert verify_lp(emb).passed
        assert_factored_equals_images(emb)

    def test_fold_peak_memory(self, monkeypatch):
        import tracemalloc

        from blockembed.fixtures import random_lp_cloud

        peaks = []
        fold = blocks._fold

        def measured(n, blocks_, p, shift):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fold(n, blocks_, p, shift)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(blocks, "_fold", measured)
        cloud = normalize_pointed(random_lp_cloud(512, 3, 2.0, seed=1))[0]
        tracemalloc.start()
        try:
            embed_set_lp(cloud, LpParams(lambda_sim=2.0)).image_distances
        finally:
            tracemalloc.stop()
        # the n x n result and one column buffer as wide as the largest shell
        # (429 points here); each shell's carrier rows are formed in place
        assert len(peaks) == 1 and peaks[0] < 2.5 * 512 * 512 * 8

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_many_points_round_to_one_member(self, p):
        rng = np.random.default_rng(17)
        cloud = LpPointSet(p, rng.uniform(0, 8, size=(40, 2)))
        ce = coarse_embed(cloud, 6.0, LpParams(seed=9, lambda_sim=2.0))
        assert len(ce.members) < 10
        assert_factored_equals_images(ce)
        # two points rounded onto one member have the same image
        i, j = next(
            (i, j) for i in range(40) for j in range(i) if ce.beta[i] == ce.beta[j]
        )
        assert ce.image_distances[i, j] == 0.0

    def test_unnormalized_set_rejected_like_its_images(self):
        emb = LpEmbedding(cloud_1d([0.0, 0.5, 3.0]), LpParams(), np.zeros(1), 1.0)
        with pytest.raises(NormBelowOne):
            emb.image_distances
        with pytest.raises(NormBelowOne):
            oracles.lp_images(emb)
        with pytest.raises(ValueError, match="non-negative"):  # a point below shell 0
            emb.images


class TestGridNet:
    def test_one_dim_k2(self):
        g = grid_net(1, 2)
        assert list(g.ravel()) == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]

    def test_two_dim_k1(self):
        g = grid_net(2, 1)
        assert len(g) == 9
        assert set(map(tuple, g)) == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}

    def test_one_dim_k1(self):
        assert list(grid_net(1, 1).ravel()) == [-1.0, 0.0, 1.0]

    def test_cardinality_formula(self):
        for n_dim, k in ((1, 3), (2, 2), (3, 1)):
            assert len(grid_net(n_dim, k)) == (2 * k * k + 1) ** n_dim

    def test_lexicographic_order(self):
        g = grid_net(2, 1)
        rows = list(map(tuple, g))
        assert rows == sorted(rows)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            grid_net(4, 5)
        grid_net(2, 2, size_cap=81)
        with pytest.raises(SizeCapExceeded):
            grid_net(2, 2, size_cap=80)


class TestPsiRound:
    def test_example(self):
        assert psi_round(np.array([0.3]), 2)[0] == 0.5

    def test_tie_breaks_toward_minus_infinity(self):
        assert psi_round(np.array([0.25]), 2)[0] == 0.0
        assert psi_round(np.array([-0.25]), 2)[0] == -0.5

    @given(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=4),
        st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_and_grid_membership(self, coords, k):
        x = np.array(coords)
        q = psi_round(x, k)
        assert float(np.abs(x - q).max()) <= 1.0 / k
        assert np.all(np.abs(q) <= 1.0)
        assert np.allclose(q * k, np.round(q * k))


class TestRescaledRestriction:
    def test_identity_map_rescales_to_identity(self):
        k = 2
        grid = grid_net(1, k)
        theta = {tuple(row): np.array(row) for row in grid}
        phi = rescaled_restriction(theta, k)
        assert len(phi) == len(grid)
        for x, img in phi.items():
            assert np.allclose(np.array(x), img)
        # coarse constants (1, 0): the rescaled map is still the identity
        for x in phi:
            for y in phi:
                dx = oracles.brute_lp_dist(x, y, math.inf)
                di = oracles.brute_lp_dist(phi[x], phi[y], math.inf)
                assert di == pytest.approx(dx, abs=1e-15)

    def test_additive_constant_shrinks_by_k(self):
        k = 2
        grid = grid_net(1, k)
        origin = int(np.flatnonzero(~np.any(grid, axis=1))[0])
        cloud = LpPointSet(math.inf, grid, basepoint=origin)
        params = LpParams(delta=0.01, seed=8)
        ce = coarse_embed(cloud, 1.0, params)
        theta = {tuple(pt): img for pt, img in zip(grid, oracles.coarse_images(ce))}
        c = ce.constants
        phi = rescaled_restriction(theta, k)
        keys = list(phi)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                x, y = keys[a], keys[b]
                d = oracles.brute_lp_dist(x, y, math.inf)
                v = outer_norm(axpy(1.0, phi[x], -1.0, phi[y]), math.inf)
                assert d / c.c_d - c.c_a / k <= v + 1e-12
                assert v <= c.c_d * d + c.c_a / k + 1e-12

    def test_composition_with_psi_is_well_typed(self):
        k = 3
        grid = grid_net(2, k)
        theta = {tuple(row): np.array(row) for row in grid}
        phi = rescaled_restriction(theta, k)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=2)
            key = tuple(psi_round(x, k))
            assert key in phi

    def test_domain_mismatch_on_missing_point(self):
        k = 1
        grid = grid_net(1, k)
        theta = {tuple(row): np.array(row) for row in grid}
        theta.pop((1.0,))
        with pytest.raises(DomainMismatch):
            rescaled_restriction(theta, k)

    def test_domain_mismatch_on_nonzero_origin(self):
        k = 1
        grid = grid_net(1, k)
        theta = {tuple(row): np.array(row) + 1.0 for row in grid}
        with pytest.raises(DomainMismatch):
            rescaled_restriction(theta, k)

    def test_empty_mapping(self):
        with pytest.raises(DomainMismatch):
            rescaled_restriction({}, 1)
