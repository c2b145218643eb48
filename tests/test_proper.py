import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockembed.blocks import (
    BlockIsoModel,
    outer_norm,
    pair_index,
    pairwise_distance_matrix,
    project_block,
    scale_block,
)
from blockembed.fixtures import path_metric, random_graph_metric, random_lp_cloud, star_metric
from blockembed.lp_coarse import LpPointSet
from blockembed.metric import Net, PointedSpace, validate_metric
from blockembed.proper import (
    CODOMAIN_P,
    WEIGHT_SERIES_SUM,
    AnnulusOutOfRange,
    NegativeRadius,
    NonpositiveArgument,
    PointOutsideBall,
    annulus_index,
    build_hierarchy,
    embed_point_proper,
    embed_space_proper,
    frechet_coords,
    log_growth,
    make_proper_params,
    separation_envelope,
    _image_distances,
    tier_weight,
    verify_proper,
)

import oracles


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

    @given(st.integers(-40, 40))
    @settings(max_examples=81, deadline=None)
    def test_dyadic_radius_gets_blend_one(self, e):
        assert annulus_index(math.ldexp(1.0, e)) == (e, 1.0)


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
        assert (params.n_min, params.n_max) == (2, 2)
        assert params.k_max == {2: 7}
        expected = sum(1.0 / (m * m + 1.0) for m in range(-5, 2))
        assert params.c_trunc == pytest.approx(expected, abs=1e-15)
        assert params.c_trunc <= WEIGHT_SERIES_SUM

    def test_path_ranges_cover_every_tier_used(self):
        pspace = path_space(4)
        params = make_proper_params(pspace)
        assert params.n_min == 0
        assert params.n_max == 2
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
        assert h.net(2, 1).members == (0,)  # radius 16 swallows the other point
        assert h.net(2, 2).members == (0,)
        assert h.net(2, 3).members == (0, 1)  # tie at exact radius 4 admitted
        assert h.ball_members[2] == (0, 1)

    def test_radii_halve(self):
        pspace = path_space(6)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        for n in range(params.n_min, params.n_max + 1):
            for k in range(1, params.k_max[n]):
                assert h.net(n, k + 1).radius == h.net(n, k).radius / 2
            assert h.net(n, 1).radius == math.ldexp(1.0, n + 2)

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


class TestFrechetCoords:
    def test_basepoint_is_zero(self):
        pspace = path_space(5)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        for net in h.nets.values():
            assert np.all(frechet_coords(0, net, pspace) == 0.0)

    def test_three_point_example(self):
        space = validate_metric([[0, 2, 3], [2, 0, 2], [3, 2, 0]])
        pspace = PointedSpace(space, 0)
        net = Net(members=(0, 1), radius=1.0, center=0, ball_radius=4.0)
        assert list(frechet_coords(2, net, pspace)) == [3.0, 0.0]

    def test_two_point_example(self):
        pspace = two_point_space()
        net = Net(members=(0, 1), radius=4.0, center=0, ball_radius=8.0)
        assert list(frechet_coords(1, net, pspace)) == [4.0, -4.0]

    def test_point_outside_ball(self):
        pspace = two_point_space()
        net = Net(members=(0,), radius=1.0, center=0, ball_radius=2.0)
        with pytest.raises(PointOutsideBall):
            frechet_coords(1, net, pspace)

    def test_one_lipschitz_into_sup_norm(self):
        pspace = path_space(8)
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        d = pspace.space.dist
        for (n, k), net in h.nets.items():
            ball = h.ball_members[n]
            coords = {t: frechet_coords(t, net, pspace) for t in ball}
            for a in ball:
                for b in ball:
                    gap = float(np.abs(coords[a] - coords[b]).max())
                    assert gap <= d[a, b] + 1e-12


class TestEmbedPoint:
    def test_two_point_block_values(self):
        emb = embed_space_proper(two_point_space())
        image = emb.images[1]
        expected_sups = {1: 2.0, 2: 4.0, 3: 2.0, 4: 0.8}
        for k, sup in expected_sups.items():
            blk = image.get(pair_index(2, k))
            assert blk is not None
            assert float(np.abs(blk).max()) == pytest.approx(sup, abs=1e-15)
        assert outer_norm(image, CODOMAIN_P) == 4.0
        assert image.get(pair_index(2, 3)) is not None
        assert list(image.get(pair_index(2, 3))) == [2.0, -2.0]

    def test_basepoint_maps_to_empty(self):
        emb = embed_space_proper(path_space(5))
        assert emb.images[0].is_zero

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
        image = emb.images[3]  # norm 3: blend strictly inside (0, 1)
        n, lam = annulus_index(3.0)
        assert 0 < lam < 1
        tier_n = {pair_index(n, k) for k in range(1, emb.params.k_max[n] + 1)}
        tier_n1 = {pair_index(n + 1, k) for k in range(1, emb.params.k_max[n + 1] + 1)}
        assert not tier_n & tier_n1
        assert set(image.block_ids) <= tier_n | tier_n1
        assert set(image.block_ids) & tier_n and set(image.block_ids) & tier_n1

    def test_annulus_out_of_range(self):
        pspace = two_point_space()
        params = make_proper_params(pspace)
        h = build_hierarchy(pspace, params)
        with pytest.raises(AnnulusOutOfRange):
            embed_point_proper(1, pspace, params, h, annulus=(5, 0.5))

    @pytest.mark.parametrize("iso", [BlockIsoModel.exact(), BlockIsoModel.seeded(0.5, 1.0, 11)])
    def test_block_recovery(self, iso):
        pspace = path_space(6)
        emb = embed_space_proper(pspace, iso=iso)
        params, h = emb.params, emb.hierarchy
        norms = pspace.norms()
        for t in range(1, 6):
            n, lam = annulus_index(float(norms[t]))
            image = emb.images[t]
            for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
                if blend == 0.0:
                    continue
                for k in range(1, params.k_max[tier] + 1):
                    j = pair_index(tier, k)
                    recovered = scale_block(
                        1.0 / (params.iso.factor(j) * tier_weight(tier, k)),
                        project_block(image, j),
                    )
                    expected = blend * frechet_coords(t, h.net(tier, k), pspace)
                    got = recovered.get(j)
                    assert got is not None
                    assert np.allclose(got, expected, atol=1e-12, rtol=1e-12)


class TestVerifyProper:
    def test_two_point_pass(self):
        emb = embed_space_proper(two_point_space())
        rep = verify_proper(emb)
        assert rep.passed
        # the one pair's image distance is 4
        assert _image_distances(emb)[0, 1] == 4.0
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
        for n in range(params.n_min, params.n_max + 1):
            ball = h.ball_members[n]
            for a in ball:
                for b in ball:
                    if a == b:
                        continue
                    sup = max(
                        tier_weight(n, k)
                        * params.iso.factor(pair_index(n, k))
                        * float(
                            np.abs(
                                frechet_coords(a, h.net(n, k), pspace)
                                - frechet_coords(b, h.net(n, k), pspace)
                            ).max()
                        )
                        for k in range(1, params.k_max[n] + 1)
                    )
                    assert sup <= params.c_trunc * d[a, b] + 1e-12


def eager_distances(emb):
    """Image distances the long way: every point's block vector, then the kernel."""
    images = [
        embed_point_proper(t, emb.pspace, emb.params, emb.hierarchy)
        for t in range(emb.pspace.space.n_points)
    ]
    return pairwise_distance_matrix(images, CODOMAIN_P)


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
}


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
        assert np.array_equal(_image_distances(emb), eager_distances(emb))

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
        assert emb.hierarchy.net(shell, 1).members == emb.hierarchy.net(shell, 2).members == (0,)

        def level(k):
            blocks = [project_block(v, pair_index(shell, k)) for v in emb.images]
            return pairwise_distance_matrix(blocks, CODOMAIN_P)

        # the smaller or equal constant still sets some distances, through rounding
        eager = eager_distances(emb)
        assert ((level(2) > level(1)) & (eager == level(2))).any()
        assert np.array_equal(_image_distances(emb), eager)

    def test_equal_weight_levels_under_exact_theta(self):
        # leaves 40 apart from the center: levels 4 and 6 of shell 5 (n - k =
        # 1 and -1) both hold every ball point
        emb = embed_space_proper(PointedSpace(validate_metric(star_metric(9).dist * 40.0), 0))
        nets = emb.hierarchy
        assert nets.net(5, 4).members == nets.net(5, 6).members == tuple(range(10))
        assert tier_weight(5, 4) == tier_weight(5, 6)
        assert np.array_equal(_image_distances(emb), eager_distances(emb))

    @pytest.mark.parametrize("theta", [BlockIsoModel.exact(), BlockIsoModel.seeded(0.5, 1.0, 8)])
    def test_equal_norm_points_in_a_one_coordinate_group(self, theta):
        # all leaves have norm 1: on the net {center} of levels 1 and 2 every
        # leaf gets the same coordinate, so the dominant level reads 0 on every pair
        emb = embed_space_proper(PointedSpace(star_metric(12), 0), iso=theta)
        assert emb.hierarchy.net(0, 1).members == emb.hierarchy.net(0, 2).members == (0,)
        assert np.array_equal(_image_distances(emb), eager_distances(emb))

    def test_images_are_built_on_first_read(self):
        pspace = PointedSpace(random_graph_metric(30, None, 4), 2)
        emb = embed_space_proper(pspace, iso=BlockIsoModel.seeded(0.5, 1.0, 4))
        assert verify_proper(emb).passed
        assert "images" not in vars(emb)
        eager = tuple(
            embed_point_proper(t, pspace, emb.params, emb.hierarchy) for t in range(30)
        )
        assert emb.images == eager
        assert emb.images is emb.images
