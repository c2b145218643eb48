import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockembed.blocks import BlockIsoModel, outer_norm, pair_index, project_block, scale_block
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
        (rec,) = rep.records
        assert rec.image_distance == 4.0
        assert rec.lower == pytest.approx(4 / 624, abs=1e-15)
        assert rec.upper == pytest.approx(9 * emb.params.c_trunc * 4, abs=1e-12)

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
        iso = BlockIsoModel("fixed-factor", 0.5, 1.0, 0)
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
