import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockembed import blocks
from blockembed.blocks import (
    BlockIsoModel,
    BlockVector,
    DimensionMismatch,
    NonpositiveK,
    lp_distance_matrix,
    pair_index,
    pairwise_distance_matrix,
)
from blockembed.lp_coarse import LpPointSet, normalize_pointed

import oracles
from oracles import axpy, inner_norm, outer_norm, project_block, scale_block, unpair_index


# zero, or a double from 2^-1074 up to 2^1023
NORM_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1022)),
)


class TestPairing:
    def test_convention(self):
        assert pair_index(0, 1) == 0
        assert pair_index(1, 1) == 3
        assert pair_index(-1, 2) == 4

    def test_nonpositive_k(self):
        with pytest.raises(NonpositiveK):
            pair_index(0, 0)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            unpair_index(-1)

    def test_bijective_on_wide_range(self):
        seen = {}
        for n in range(-64, 65):
            for k in range(1, 65):
                j = pair_index(n, k)
                assert j >= 0
                assert j not in seen
                seen[j] = (n, k)
                assert unpair_index(j) == (n, k)

    def test_unpair_index_inverts_pair_index(self):
        assert pair_index(-1, 2) == 4
        assert unpair_index(4) == (-1, 2)


class TestBlockVector:
    def test_canonical_sparsity(self):
        v = BlockVector({3: [0.0, 0.0], 1: [1.0, 2.0]})
        assert tuple(v.blocks) == (1,)

    def test_scalar_promoted(self):
        v = BlockVector({0: 2.0})
        assert v.blocks[0].shape == (1,)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            BlockVector({-1: [1.0]})

    def test_equality_is_exact(self):
        a = BlockVector({0: [1.0, 2.0]})
        b = BlockVector({0: [1.0, 2.0]})
        c = BlockVector({0: [1.0, 2.0 + 1e-15]})
        assert a == b
        assert a != c

    def test_blocks_read_only(self):
        v = BlockVector({0: [1.0]})
        with pytest.raises(ValueError):
            v.blocks[0][0] = 5.0


class TestOuterNorm:
    def test_sup_inner_inf(self):
        assert outer_norm(BlockVector({0: [3.0, -4.0]}), math.inf) == 4.0

    def test_l2_sum(self):
        v = BlockVector({0: [3.0, 0.0], 1: [0.0, 4.0]})
        assert outer_norm(v, 2.0) == 5.0

    def test_empty_is_zero(self):
        assert outer_norm(BlockVector(), math.inf) == 0.0

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            outer_norm(BlockVector({0: [3.0, -4.0]}), 0.5)


class TestProject:
    def test_selects_block(self):
        v = BlockVector({0: [1.0], 3: [2.0]})
        assert project_block(v, 3) == BlockVector({3: [2.0]})

    def test_absent_block_is_empty(self):
        assert not project_block(BlockVector({0: [1.0]}), 7).blocks

    def test_idempotent(self):
        v = BlockVector({0: [1.0], 3: [2.0, -1.0]})
        once = project_block(v, 3)
        assert project_block(once, 3) == once


class TestAxpy:
    def test_cancellation_restores_sparsity(self):
        v = BlockVector({0: [1.0, -2.0], 5: [3.0]})
        assert not axpy(1.0, v, -1.0, v).blocks

    def test_average(self):
        out = axpy(0.5, BlockVector({0: [2.0]}), 0.5, BlockVector({1: [2.0]}))
        assert out == BlockVector({0: [1.0], 1: [1.0]})

    def test_opposite_blocks_cancel(self):
        out = axpy(1.0, BlockVector({0: [1.0]}), 1.0, BlockVector({0: [-1.0]}))
        assert not out.blocks

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            axpy(1.0, BlockVector({0: [1.0]}), 1.0, BlockVector({0: [1.0, 2.0]}))


def _vectors(draw, dims):
    coords = {}
    for j, dim in dims.items():
        values = draw(
            st.lists(
                st.floats(-8, 8, allow_nan=False, allow_infinity=False, width=32),
                min_size=dim,
                max_size=dim,
            )
        )
        coords[j] = values
    return BlockVector(coords)


@st.composite
def image_lists(draw):
    """Zero to seven images, each carrying a random subset of up to five blocks."""
    dims = draw(st.dictionaries(st.integers(0, 40), st.integers(1, 6), max_size=5))
    images = []
    for _ in range(draw(st.integers(0, 7))):
        carried = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
        images.append(_vectors(draw, {j: dims[j] for j, c in zip(dims, carried) if c}))
    return images


# Every exponent the kernel treats differently: sup, l_1, l_2 and a general
# l_p, with stable test ids spec0..spec3 in that order.
KERNEL_P = (math.inf, 1.0, 2.0, 3.0)
KERNEL_IDS = [f"spec{i}" for i in range(len(KERNEL_P))]


def _ragged_images(rng, n, n_blocks=6):
    images = []
    for _ in range(n):
        ids = rng.choice(n_blocks, size=rng.integers(0, n_blocks + 1), replace=False)
        images.append(BlockVector({int(j): rng.uniform(-4, 4, size=1 + int(j) % 4) for j in ids}))
    return images


@st.composite
def vector_pairs(draw):
    dims = draw(
        st.dictionaries(st.integers(0, 5), st.integers(1, 4), min_size=1, max_size=4)
    )
    return _vectors(draw, dims), _vectors(draw, dims)


exponents = st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf])
# exponents whose float powers commute exactly with dyadic scaling
clean_exponents = st.sampled_from([1.0, 2.0, math.inf])


class TestNormAxioms:
    @given(vector_pairs(), clean_exponents, st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_homogeneity_exact_for_dyadic_scalars(self, pair, p, exponent):
        v, _ = pair
        a = 2.0**exponent
        assert outer_norm(scale_block(a, v), p) == a * outer_norm(v, p)

    @given(vector_pairs(), exponents, st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_homogeneity_general(self, pair, p, a):
        v, _ = pair
        lhs = outer_norm(scale_block(a, v), p)
        rhs = abs(a) * outer_norm(v, p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    @given(vector_pairs(), exponents)
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, pair, p):
        v, w = pair
        lhs = outer_norm(axpy(1.0, v, 1.0, w), p)
        rhs = outer_norm(v, p) + outer_norm(w, p)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    @given(vector_pairs(), exponents)
    @settings(max_examples=60, deadline=None)
    def test_removing_a_block_never_increases_norm(self, pair, p):
        v, _ = pair
        full = outer_norm(v, p)
        for j in v.blocks:
            rest = BlockVector({i: v.blocks[i] for i in v.blocks if i != j})
            assert outer_norm(rest, p) <= full + 1e-12 * max(1.0, full)

    @given(vector_pairs())
    @settings(max_examples=60, deadline=None)
    def test_sup_sum_is_max_over_projections(self, pair):
        v, _ = pair
        parts = [outer_norm(project_block(v, j), math.inf) for j in v.blocks]
        assert outer_norm(v, math.inf) == (max(parts) if parts else 0.0)

    @given(vector_pairs(), st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_lp_sum_power_identity(self, pair, p):
        v, _ = pair
        total = sum(outer_norm(project_block(v, j), p) ** p for j in v.blocks)
        assert outer_norm(v, p) ** p == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestDistances:
    @given(vector_pairs(), exponents)
    @settings(max_examples=80, deadline=None)
    def test_block_distance_matches_axpy_norm(self, pair, p):
        # the kernel's distance of two block vectors is the norm of their difference
        v, w = pair
        direct = pairwise_distance_matrix([v, w], p)[0, 1]
        via_diff = outer_norm(axpy(1.0, v, -1.0, w), p)
        assert direct == pytest.approx(via_diff, rel=1e-12, abs=1e-12)

    def test_pairwise_matrix_matches_brute_force(self):
        rng = np.random.default_rng(9)
        images = []
        for _ in range(12):
            blocks = {}
            for j in rng.choice(8, size=rng.integers(0, 5), replace=False):
                blocks[int(j)] = rng.uniform(-4, 4, size=3 + int(j) % 3)
            images.append(BlockVector(blocks))
        for p in (math.inf, 1.0, 2.0):
            mat = pairwise_distance_matrix(images, p)
            brute = oracles.brute_pair_distances(images, p, p)
            assert np.allclose(mat, np.array(brute), atol=1e-12, rtol=1e-12)
            assert np.array_equal(mat, mat.T)
            assert np.all(np.diagonal(mat) == 0.0)

    def test_pairwise_matrix_dimension_mismatch(self):
        imgs = [BlockVector({0: [1.0]}), BlockVector({0: [1.0, 2.0]})]
        with pytest.raises(DimensionMismatch):
            pairwise_distance_matrix(imgs, math.inf)

    @given(image_lists(), st.sampled_from(KERNEL_P + (1.5,)))
    @settings(max_examples=200, deadline=None)
    def test_pairwise_matrix_bit_identical_to_dense_kernel(self, images, p):
        mat = pairwise_distance_matrix(images, p)
        assert np.array_equal(mat, oracles.dense_pair_distances(images, p, p))

    @pytest.mark.parametrize("p", KERNEL_P, ids=KERNEL_IDS)
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_pairwise_matrix_tiny_inputs(self, n, p):
        for images in (_ragged_images(np.random.default_rng(n), n), [BlockVector()] * n):
            mat = pairwise_distance_matrix(images, p)
            assert mat.shape == (n, n)
            assert np.array_equal(mat, oracles.dense_pair_distances(images, p, p))

    @pytest.mark.parametrize("chunk", [1, 7, 50])
    def test_pairwise_matrix_bit_identical_across_chunk_sizes(self, chunk, monkeypatch):
        images = _ragged_images(np.random.default_rng(chunk), 40)
        images[5] = BlockVector()
        monkeypatch.setattr(blocks, "_CHUNK_ELEMS", chunk)
        for p in KERNEL_P:
            mat = pairwise_distance_matrix(images, p)
            assert np.array_equal(mat, oracles.dense_pair_distances(images, p, p))

    @pytest.mark.parametrize("p", [math.inf, 2.0], ids=["spec0", "spec1"])  # stable ids
    def test_pairwise_matrix_memory_does_not_scale_with_block_dim(self, p):
        # 10 of 300 points carry a 64-dim block; a difference over all
        # points for that block alone would take 300 * 300 * 64 * 8 = 46 MB
        rng = np.random.default_rng(4)
        images = [
            BlockVector({0: rng.uniform(-1, 1, 64)} if i < 10 else {1: rng.uniform(-1, 1, 1)})
            for i in range(300)
        ]
        tracemalloc.start()
        try:
            pairwise_distance_matrix(images, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    @given(
        st.integers(0, 12),
        st.integers(1, 12),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_lp_distance_matrix_bit_identical_to_dense_difference(self, m, dim, p, seed):
        x = np.random.default_rng(seed).uniform(-5, 5, size=(m, dim))
        assert np.array_equal(lp_distance_matrix(x, p), oracles.dense_lp_distances(x, p))

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 140])
    def test_lp_distance_matrix_bit_identical_across_chunk_sizes(self, chunk, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        x = rng.uniform(-5, 5, size=(30, dim))
        # rows whose powers under- or overflow, so that _norms's redo runs in every chunk
        y = rng.uniform(-1, 1, (20, dim)) * np.repeat([2.0**-480, 1e-300, 1.0, 1e300], 5)[:, None]
        monkeypatch.setattr(blocks, "_CHUNK_ELEMS", chunk)
        for p in (1.0, 2.0, 3.0, math.inf):
            mat = lp_distance_matrix(x, p)
            assert np.array_equal(mat, oracles.dense_lp_distances(x, p))
            assert np.array_equal(mat, mat.T)
            assert np.all(np.diagonal(mat) == 0.0)
        for p in (1.5, 2.0, 3.0):
            assert np.array_equal(lp_distance_matrix(y, p), oracles.dense_redo_lp_distances(y, p))
        # rows whose powers under- or overflow between ordinary ones: the
        # chunks that reach them need the redo, the chunks past them none
        z = np.concatenate(
            [x[:10], rng.uniform(-1, 1, (10, dim)) * np.repeat([1e-200, 1e200], 5)[:, None], x[10:]]
        )
        for p in (2.0, 3.0):
            mat = lp_distance_matrix(z, p)
            assert np.array_equal(mat, oracles.dense_redo_lp_distances(z, p))
            assert np.array_equal(mat, mat.T)
            assert np.all(np.diagonal(mat) == 0.0)

    @given(
        st.integers(1, 10),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
        st.lists(st.sampled_from([2.0**-480, 1e-300, 1.0, 1e300]), min_size=1, max_size=12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_lp_distance_matrix_bit_identical_through_the_redo(self, dim, p, scales, seed):
        # rows near 2^-480 and 1e-300 have powers that underflow, rows near
        # 1e300 powers that overflow: either way _norms redoes their entries
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (len(scales), dim)) * np.array(scales)[:, None]
        if len(x) > 2:
            x[-1] = x[0]  # an exactly zero distance off the diagonal
        mat = lp_distance_matrix(x, p)
        assert np.array_equal(mat, oracles.dense_redo_lp_distances(x, p))
        assert np.array_equal(mat, mat.T)

    @given(
        st.sampled_from([1.5, 2.0, 3.0, 1022.0]),
        st.integers(1, 9).flatmap(
            lambda dim: st.lists(st.lists(NORM_ENTRY, min_size=dim, max_size=dim), min_size=1)
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_norms_keep_the_power_of_two_redo_up_to_p_1022(self, p, rows):
        # entries from 2^-1074 to 2^1023: most rows' powers leave the normal range
        diff = np.array(rows)
        assert np.array_equal(blocks._norms(diff, p), oracles.pow2_redo_norms(diff, p))

    @pytest.mark.parametrize("p", [1030.0, 1070.0, 1100.0, 1e308])
    def test_distance_at_large_p_matches_the_log1p_form(self, p):
        # the p-th power of 2.01 overflows; the power-of-two redo put 2.01 at
        # 0.5025, whose p-th power is subnormal or 0
        d = lp_distance_matrix(np.array([[0.0, 0.0], [2.01, 2.0]]), p)[0, 1]
        m, s = 2.01, 2.0
        expected = m * math.exp(math.log1p((s / m) ** p) / p)
        assert abs(d - expected) <= 1e-15 * expected
        # an all-zero row stays 0, an infinite one inf
        rows = np.array([[0.0, 0.0], [math.inf, 1.0], [1e-300, 3e-300]])
        assert blocks._norms(rows, p).tolist() == [0.0, math.inf, 3e-300]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_distance_to_a_zero_row_is_the_norm(self, dim, p):
        # _fold charges a carrier whose row is zero as a non-carrier, to the bit
        rng = np.random.default_rng(dim)
        scales = np.array([2.0**-480, 1e-300, 1e-5, 1.0, 1e5, 1e300] * 2)
        x = rng.uniform(-1, 1, (len(scales), dim)) * scales[:, None]
        mat = lp_distance_matrix(np.vstack([x, np.zeros((1, dim))]), p)
        assert np.array_equal(mat[:-1, -1], blocks._norms(np.abs(x), p))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_lp_distance_matrix_peak_memory_is_output_plus_chunks(self, p):
        m = 600
        x = np.random.default_rng(6).uniform(-5, 5, (m, 3))
        tracemalloc.start()
        try:
            lp_distance_matrix(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, one plane buffer and the redo test's boolean masks
        assert peak < m * m * 8 + 2 * blocks._CHUNK_ELEMS * 8

    @pytest.mark.parametrize("chunk", [1, 2000, 5000, 1 << 16])
    def test_wide_rows_reduce_each_pair_once(self, chunk, monkeypatch):
        # the dim >= 8 path differences a chunk of rows [lo, lo + step) against
        # the columns lo: only, (m^2 + m * step) / 2 rows at most in all, and
        # copies the other triangle
        m, dim = 45, 9
        x = np.random.default_rng(chunk).uniform(-5, 5, (m, dim))
        reduced = []
        norms = blocks._norms

        def counting(diff, p):
            reduced.append(diff.size // dim)
            return norms(diff, p)

        monkeypatch.setattr(blocks, "_CHUNK_ELEMS", chunk)
        monkeypatch.setattr(blocks, "_norms", counting)
        step = min(m, max(1, chunk // (m * dim)))
        for p in (1.0, 2.0, 3.0, math.inf):
            reduced.clear()
            mat = lp_distance_matrix(x, p)
            assert sum(reduced) <= (m * m + m * step) / 2
            assert np.array_equal(mat, oracles.dense_lp_distances(x, p))

    @pytest.mark.parametrize("terms", range(1, 8))
    def test_numpy_sums_a_short_last_axis_left_to_right(self, terms):
        # lp_distance_matrix's coordinate-plane path (dim < 8) adds the
        # planes left to right and relies on _norms's sum doing the same
        rng = np.random.default_rng(terms)
        shape = (300, 4, terms)
        a = np.abs(rng.standard_normal(shape)) * 2.0 ** rng.integers(-60, 60, shape)
        if terms >= 3:
            a[0, 0, :3] = [1.0, 1.0, 2.0**53]  # (1 + 1) + 2^53 != 1 + (1 + 2^53)
        total = a[..., 0].copy()
        for k in range(1, terms):
            total += a[..., k]
        assert np.array_equal(a.sum(axis=-1), total), (
            f"numpy no longer sums {terms} terms along the last axis left to right: "
            "blocks.lp_distance_matrix's coordinate-plane path would then differ "
            "from _norms in the last bit"
        )

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_l2_distances_scaled_past_the_range_of_their_squares(self, scale):
        x = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]) * scale
        mat = lp_distance_matrix(x, 2.0)
        expected = np.array([[0, 5, 10], [5, 0, 5], [10, 5, 0]]) * scale
        assert np.allclose(mat, expected, rtol=1e-15, atol=0.0)
        assert inner_norm(x[2], 2.0) == pytest.approx(10 * scale, rel=1e-15)

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_lp_distances_scaled_past_the_range_of_their_powers(self, p, scale):
        x = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [1.0, 0.0]]) * scale
        expected = np.array([[oracles.brute_lp_dist(u, v, p) for v in x / scale] for u in x / scale])
        assert np.allclose(lp_distance_matrix(x, p), expected * scale, rtol=1e-13, atol=0.0)
        assert inner_norm(x[2], p) == pytest.approx(expected[0, 2] * scale, rel=1e-13)

    def test_l2_distances_exact_across_a_wide_dynamic_range(self):
        # one cloud holding both a 1e-100 and a 1e100 distance: scaling the
        # whole cloud by its largest coordinate would flush (1e-100)^2 to zero
        x = np.array([[0.0, 0.0], [1e-100, 0.0], [1e100, 0.0]])
        mat = lp_distance_matrix(x, 2.0)
        assert mat[0, 1] == mat[1, 0] == 1e-100
        assert np.array_equal(mat, oracles.dense_lp_distances(x, 2.0))
        images = [BlockVector({0: row}) for row in x]
        assert np.array_equal(
            pairwise_distance_matrix(images, 2.0), oracles.dense_pair_distances(images, 2.0, 2.0)
        )

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_pairwise_fold_past_the_range_of_its_powers(self, p):
        images = _ragged_images(np.random.default_rng(int(2 * p)), 12)
        for i in (2, 5, 7):  # blocks whose p-th powers overflow a double
            images[i] = BlockVector({j: 1e300 * x for j, x in images[i].blocks.items()})
        mat = pairwise_distance_matrix(images, p)
        with np.errstate(over="ignore"):
            dense = oracles.dense_pair_distances(images, p, p)
        finite = np.isfinite(dense)
        assert not finite.all()
        assert np.array_equal(mat[finite], dense[finite])
        # divided by 2^1000, the overflowing pairs stay in range for the brute-force loops
        shrunk = [BlockVector({j: x * 2.0**-1000 for j, x in v.blocks.items()}) for v in images]
        brute = np.array(oracles.brute_pair_distances(shrunk, p, p)) * 2.0**1000
        assert np.allclose(mat[~finite], brute[~finite], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_pairwise_distances_past_the_largest_double_are_inf(self, p):
        images = [BlockVector({0: [-1.7e308, 0.0]}), BlockVector({0: [1.7e308, 0.0]})]
        assert pairwise_distance_matrix(images, p)[0, 1] == math.inf


class TestOneNorm:
    """A point's norm is, bit for bit, its distance to the basepoint."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_norm_is_the_verified_distance(self, p):
        rng = np.random.default_rng(17)
        unscaled = 0
        for dim in range(1, 65):
            # 1e-200 and 1e200 take the rescue path of _norms for p = 2 and 3
            for scale in (1e-200, 1e-100, 1.0, 1e100, 1e200):
                pts = rng.standard_normal((12, dim)) * scale
                b = int(rng.integers(12))
                cloud = LpPointSet(p, pts, basepoint=b)
                row = cloud.metric_space.dist[b]
                assert np.array_equal([inner_norm(x - pts[b], p) for x in pts], row)
                ns, _, factor = normalize_pointed(cloud)
                if factor == 1.0:
                    unscaled += 1
                    assert np.array_equal([inner_norm(t, p) for t in ns.points], row)
        assert unscaled >= 2 * 64


class TestBlockIsoModel:
    def test_exact_mode(self):
        iso = BlockIsoModel.exact()
        assert all(iso.factor(j) == 1.0 for j in range(10))

    def test_fixed_factor_uses_lower_bound(self):
        iso = BlockIsoModel.seeded(0.5, 0.5, 0)
        assert all(iso.factor(j) == 0.5 for j in range(2000))

    def test_seeded_factors_in_interval(self):
        iso = BlockIsoModel.seeded(0.5, 1.0, 42)
        for j in range(200):
            assert 0.5 <= iso.factor(j) <= 1.0

    def test_seeded_factors_order_independent(self):
        a = BlockIsoModel.seeded(0.25, 1.0, 7)
        b = BlockIsoModel.seeded(0.25, 1.0, 7)
        forward = [a.factor(j) for j in range(32)]
        backward = [b.factor(j) for j in reversed(range(32))]
        assert forward == backward[::-1]

    def test_different_seeds_differ(self):
        a = BlockIsoModel.seeded(0.5, 1.0, 1)
        b = BlockIsoModel.seeded(0.5, 1.0, 2)
        assert [a.factor(j) for j in range(8)] != [b.factor(j) for j in range(8)]

    @pytest.mark.parametrize("order", ["forward", "backward", "shuffled"])
    def test_frozen_and_factor_is_a_fresh_keyed_draw(self, order):
        seed, lo, hi = 11, 0.3, 0.9
        iso = BlockIsoModel.seeded(lo, hi, seed)
        with pytest.raises(dataclasses.FrozenInstanceError):
            iso.seed = 12
        ids = list(range(40))
        if order == "backward":
            ids.reverse()
        elif order == "shuffled":
            ids = [int(j) for j in np.random.default_rng(5).permutation(ids)]
        for j in ids + ids:
            draw = float(np.random.default_rng([seed, 101, j]).uniform(lo, hi))
            assert iso.factor(j) == draw
        assert set(vars(iso)) == {"mode", "theta_lo", "theta_hi", "seed"}

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            BlockIsoModel("seeded-random", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            BlockIsoModel("seeded-random", 0.5, 1.5, 0)
        with pytest.raises(ValueError):
            BlockIsoModel("typo", 0.5, 1.0, 0)
