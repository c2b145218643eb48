"""The block-sum sequence space the embeddings map into, and its distance kernels.

The embedding codomain is a direct sum of finite-dimensional blocks with one
exponent p in [1, inf] inside and outside the blocks, either a sup-sum of
sup-normed blocks (the c0-style model) or an l_p sum of l_p blocks.  The
distance of two images is then the flat l_p norm of the difference of their
concatenated coordinates.  Coordinate projections onto a single block have
norm one, strictly inside the hypotheses the distance envelopes were derived
under, so every certified bound must hold a fortiori.  The embeddings compute
their image distances from their factors with :func:`lp_distance_matrix` and
the block fold.  No mode builds :class:`BlockVector` images or calls their
kernel :func:`pairwise_distance_matrix`: the test oracles and the benchmark do.

Block isomorphism slack is modeled by per-block scale factors theta_j in a
configurable interval of (0, 1]; the seeded mode derives theta_j from a
counter-based generator keyed by (seed, j), so factors are reproducible and
independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "NonpositiveK",
    "DimensionMismatch",
    "BlockVector",
    "BlockIsoModel",
    "pair_index",
    "lp_distance_matrix",
    "pairwise_distance_matrix",
]

_THETA_TAG = 101  # stream tag separating theta draws from other consumers
# Elements of one carrier-by-carrier difference chunk: 512 KB of float64,
# small enough to stay in cache between the subtraction and the reduction.
_CHUNK_ELEMS = 1 << 16
# An l_p norm below this ** (2 / p) may have lost its smallest powers to underflow.
_L2_REDO_BELOW = 2.0**-480


class NonpositiveK(ValueError):
    pass


class DimensionMismatch(ValueError):
    def __init__(self, block_id: int, a: int, b: int):
        self.block_id = block_id
        super().__init__(f"block {block_id}: dimensions {a} and {b} differ")


def pair_index(n: int, k: int) -> int:
    """Bijection (n, k) in Z x {1,2,...} -> non-negative block id.

    Zigzag the integer n onto the naturals (z = 2n for n >= 0, z = -2n - 1
    for n < 0), then Cantor-pair with k - 1:
    C(z, k-1) = (z + k - 1)(z + k) / 2 + (k - 1).
    """
    if k < 1:
        raise NonpositiveK(f"k must be >= 1, got {k}")
    z = 2 * n if n >= 0 else -2 * n - 1
    s = z + k - 1
    return s * (s + 1) // 2 + (k - 1)


class BlockVector:
    """Sparse map from block id to a finite real coordinate vector.

    Canonical sparsity is enforced at construction: zero blocks are
    dropped, ids are kept in ascending order, and the stored arrays are
    read-only.  Instances compare by exact coordinate equality.  Only the
    test oracles and the benchmark (which reads ``blocks``) read the class.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Mapping[int, Any] | None = None):
        canonical: dict[int, np.ndarray] = {}
        if blocks:
            for j in sorted(blocks):
                if not isinstance(j, (int, np.integer)) or j < 0:
                    raise ValueError(f"block id must be a non-negative integer, got {j!r}")
                v = np.asarray(blocks[j], dtype=float)
                if v.ndim == 0:
                    v = v.reshape(1)
                if v.ndim != 1:
                    raise ValueError(f"block {j} must be a 1-D vector")
                if not np.any(v):
                    continue
                v = v.copy()
                v.setflags(write=False)
                canonical[int(j)] = v
        object.__setattr__(self, "blocks", canonical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockVector):
            return NotImplemented
        if self.blocks.keys() != other.blocks.keys():
            return False
        return all(np.array_equal(self.blocks[j], other.blocks[j]) for j in self.blocks)


def _norms(diff: np.ndarray, p: float) -> np.ndarray:
    """Inner l_p norms of non-negative coordinate rows along the last axis.

    For finite p > 1 a row whose p-th powers may have left the normal
    range (a power sum below 2^-960, so a norm below ``_L2_REDO_BELOW`` for
    p = 2, or an infinite one) is redone divided by the power of two that
    puts its largest entry in [0.5, 1), its root multiplied back; every
    other row keeps the same bits.  Past p = 1022, where 0.5^p is no longer
    normal, the row is divided by its largest entry instead, whose power is
    then exactly 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # redone below, or left to the checks
        if math.isinf(p):
            return diff.max(axis=-1)
        if p == 1:
            return diff.sum(axis=-1)
        powers = np.square if p == 2 else (lambda x: np.power(x, p))
        root = np.sqrt if p == 2 else (lambda x: x ** (1.0 / p))
        out = root(powers(diff).sum(axis=-1))
        redo = _needs_redo(out, p)
        if redo.any():
            rows = diff[redo]
            top = rows.max(axis=-1)
            if p <= 1022:
                e = np.frexp(top)[1]
                out[redo] = np.ldexp(root(powers(np.ldexp(rows, -e[:, None])).sum(axis=-1)), e)
            else:  # an all-zero or non-finite row is divided by 1: left as it is
                top = np.where((top > 0) & (top < math.inf), top, 1.0)
                out[redo] = root(powers(rows / top[:, None]).sum(axis=-1)) * top
    return out


def _needs_redo(out: np.ndarray, p: float) -> np.ndarray:
    """Entries of finite-p norms whose powers may have left the normal range."""
    return ~(out >= _L2_REDO_BELOW ** (2.0 / p)) | np.isinf(out)


def lp_distance_matrix(
    points: np.ndarray, p: float, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise l_p distances of the rows of an (m, dim) array, p in [1, inf],
    written into ``out`` (an (m, m) float array) when one is given.

    Each chunk of rows [lo, hi) is formed against the columns lo: only and
    copied, transposed, into the rows below it.  That is exact: fl(a - b) =
    -fl(b - a), so (t, u) and (u, t) reduce the same magnitudes in the same
    order.  For 1 <= dim < 8, per chunk of rows (all m when m^2 is at most
    ``_CHUNK_ELEMS``, else up to half that many entries), the planes
    |x[rows, k] - x[lo:, k]|^p are added (for p = inf, maxed) in coordinate
    order, rooted, and the entries :func:`_norms` would redo are redone by
    it; numpy sums fewer than 8 terms along a last axis left to right, so
    this is :func:`_norms` of the difference rows to the bit.  An entry
    needs the redo only below ``_L2_REDO_BELOW ** (2 / p)``, at inf or at
    NaN, so a chunk whose off-diagonal minimum is at least that floor and
    whose maximum is finite (on an ordinary cloud, every chunk) has none and
    builds no redo mask.  Wider rows
    are differenced ``_CHUNK_ELEMS`` elements (or one row) at a time into
    :func:`_norms`.  Either way temporaries stay at O(chunk).
    """
    x = np.asarray(points, dtype=float)
    m, dim = x.shape
    out = np.empty((m, m)) if out is None else out
    if not 1 <= dim < 8:
        step = max(1, _CHUNK_ELEMS // max(1, m * dim))
        buf = np.empty(min(step, m) * m * dim)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN left to the checks
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                diff = buf[: (hi - lo) * (m - lo) * dim].reshape(hi - lo, m - lo, dim)
                np.subtract(x[lo:hi, None, :], x[None, lo:, :], out=diff)
                rows = _norms(np.abs(diff, out=diff), p)
                out[lo:hi, lo:] = rows
                out[hi:, lo:hi] = rows[:, hi - lo :].T
        return out
    sup, powered = math.isinf(p), not math.isinf(p) and p != 1
    floor = _L2_REDO_BELOW ** (2.0 / p)  # the least norm _needs_redo leaves
    cols = x.T.copy()  # one contiguous row per coordinate
    # A matrix of at most _CHUNK_ELEMS entries is formed in place.  Otherwise
    # a chunk holds at most half that many entries (or one row), formed
    # contiguously in the buffer's second half so that its transposed copy
    # reads with a short stride; chunks grow taller as their rows shorten.
    whole = m * m <= _CHUNK_ELEMS
    half = m * m if whole else max(_CHUNK_ELEMS // 2, m)
    buf = np.empty(half if whole else 2 * half)
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):  # redone below, or left to the checks
        while lo < m:
            hi = min(m, lo + max(1, half // (m - lo)))
            size, shape = (hi - lo) * (m - lo), (hi - lo, m - lo)
            acc = out if whole else buf[half : half + size].reshape(shape)
            for k in range(dim):
                d = buf[:size].reshape(shape) if k else acc
                np.subtract.outer(cols[k, lo:hi], cols[k, lo:], out=d)
                (np.square if p == 2 else np.abs)(d, out=d)  # d^2 = |d|^2
                if powered and p != 2:
                    np.power(d, p, out=d)
                if k:
                    (np.maximum if sup else np.add)(acc, d, out=acc)
            if powered:
                np.sqrt(acc, out=acc) if p == 2 else np.power(acc, 1.0 / p, out=acc)
                # The diagonal (0, or NaN on a non-finite point) is never
                # redone: set aside, it reads as the floor while the chunk's
                # minimum and maximum screen it (a NaN fails both tests).
                diag = np.diagonal(acc).copy()
                np.fill_diagonal(acc, floor)
                if not (acc.min() >= floor and acc.max() < math.inf):
                    i, j = np.nonzero(_needs_redo(acc, p))
                    acc[i, j] = _norms(np.abs(x[lo + i] - x[lo + j]), p)
                np.fill_diagonal(acc, diag)
            if not whole:
                out[lo:hi, lo:] = acc
                out[hi:, lo:hi] = acc[:, hi - lo :].T
            lo = hi
    return out


def pairwise_distance_matrix(images: Sequence[BlockVector], p: float) -> np.ndarray:
    """All pairwise image distances in the block sum with exponent p.

    Each entry is the l_p norm of the concatenated coordinates of u - v.  The
    diagonal is exactly zero and the matrix is exactly symmetric.

    Each block j only touches the c_j points that carry it, gathered once
    as a c_j x dim array and folded by :func:`_fold_distances`, so each
    distance is bit-identical to that of a dense difference over all n
    points.
    """
    dims: dict[int, int] = {}
    carriers: dict[int, list[int]] = {}
    coords: dict[int, list[np.ndarray]] = {}
    for i, v in enumerate(images):
        for j, x in v.blocks.items():
            d = dims.setdefault(j, len(x))
            if d != len(x):
                raise DimensionMismatch(j, d, len(x))
            carriers.setdefault(j, []).append(i)
            coords.setdefault(j, []).append(x)
    blocks = [(np.array(carriers[j]), np.array(coords[j])) for j in sorted(dims)]
    return _fold_distances(len(images), blocks, p)


def _fold_distances(
    n: int, blocks: list[tuple[np.ndarray | slice, np.ndarray]], p: float
) -> np.ndarray:
    """The n x n image distances of blocks folded by :func:`_fold`, with an
    exactly zero diagonal.

    For finite p > 1, each off-diagonal entry :func:`_needs_redo` flags is
    redone as :func:`_norms` of its own row of block distances (the two
    carriers' distance, one carrier's norm, or 0), at that row's own scale,
    a few rows of pairs at a time.  One maximum and one off-diagonal minimum
    decide whether the redo runs; every other entry keeps its bits.
    """
    out = _fold(n, blocks, p)
    if not math.isinf(p) and p != 1:
        floor = _L2_REDO_BELOW ** (2.0 / p)  # 2^(-960/p)
        np.fill_diagonal(out, floor)  # never redone
        if blocks and not (out.min(initial=floor) >= floor and out.max() < math.inf):
            width = len(blocks) + max(x.shape[1] for _, x in blocks)
            step = max(1, _CHUNK_ELEMS // (n * width))
            where = np.empty(n, dtype=np.intp)  # a point's row in one block's carriers
            for lo in range(0, n, step):  # the pairs t < u of rows lo to lo + step
                t, u = np.nonzero(np.triu(_needs_redo(out[lo : lo + step], p), lo + 1))
                if not len(t):
                    continue
                t += lo
                row = np.zeros((len(t), len(blocks)))
                for b, (idx, x) in enumerate(blocks):
                    where.fill(-1)
                    where[idx] = np.arange(len(x))
                    i, j = where[t], where[u]
                    both, one = (i >= 0) & (j >= 0), (i >= 0) != (j >= 0)
                    # fl(x_t - x_u) overflows only if the exact difference, and so
                    # the distance, is past the overflow threshold: inf rounds it
                    with np.errstate(over="ignore"):
                        row[both, b] = _norms(np.abs(x[i[both]] - x[j[both]]), p)
                    row[one, b] = _norms(np.abs(x[np.maximum(i, j)[one]]), p)
                out[t, u] = out[u, t] = _norms(row, p)
    np.fill_diagonal(out, 0.0)
    return out


def _fold(n: int, blocks: list[tuple[np.ndarray | slice, np.ndarray]], p: float) -> np.ndarray:
    """Fold blocks into the n x n l_p sum of their distances, in list order.

    A block is (carriers, coordinates): an index array or a slice of the n
    points, and their c x dim coordinate rows.  A pair of carriers is
    charged their distance (:func:`lp_distance_matrix`), a pair with one
    carrier that carrier's block norm, and a pair with none nothing.  A
    carrier whose row is zero is charged as a non-carrier would be, to the
    bit, so a caller may keep such rows to make its carriers one slice.
    The diagonal is left as it comes.  An entry that overflows comes out
    inf.  Each block's n x c columns are formed in one buffer, sized for
    the widest block and reused by every block.
    """
    sup = math.isinf(p)
    out = np.zeros((n, n))
    buf = np.empty(n * max((len(x) for _, x in blocks), default=0))
    for idx, x in blocks:
        # column b of the carriers: N_b against non-carrier rows, the exact
        # block distance against carrier rows
        col = buf[: n * len(x)].reshape(n, len(x))
        with np.errstate(over="ignore"):  # an overflowed entry is computed again, scaled
            col[:] = _norms(np.abs(x), p)
            if isinstance(idx, slice):  # the carrier rows, a view, are formed in place
                lp_distance_matrix(x, p, out=col[idx])
            else:
                col[idx] = lp_distance_matrix(x, p)
            if sup:
                np.maximum(out[:, idx], col, out=col)
            elif p == 1:
                col += out[:, idx]
            else:
                col **= p
                col += out[:, idx]
        out[:, idx] = col
        # out was symmetric before this block, so the carrier rows are the
        # transpose of the columns just folded
        out[idx] = col.T
    if not sup and p != 1:
        out **= 1.0 / p
    return out


@lru_cache(maxsize=4096)
def _seeded_theta(seed: int, lo: float, hi: float, j: int) -> float:
    rng = np.random.default_rng([seed, _THETA_TAG, j])
    return float(rng.uniform(lo, hi))


@dataclass(frozen=True)
class BlockIsoModel:
    """Per-block scale factors theta_j modeling block isomorphism slack.

    Modes: ``exact`` (theta_j = 1) and ``seeded-random`` (theta_j drawn
    uniformly from [theta_lo, theta_hi], keyed by (seed, j) so the draw is
    independent of evaluation order; ``seeded(lo, lo, s)`` gives theta_j = lo
    on every block).  The interval must lie inside (0, 1].
    """

    mode: str = "exact"
    theta_lo: float = 1.0
    theta_hi: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "seeded-random"):
            raise ValueError(f"unknown iso mode {self.mode!r}")
        if not (0.0 < self.theta_lo <= self.theta_hi <= 1.0):
            raise ValueError("theta interval must satisfy 0 < lo <= hi <= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @classmethod
    def exact(cls) -> "BlockIsoModel":
        return cls("exact", 1.0, 1.0, 0)

    @classmethod
    def seeded(cls, theta_lo: float, theta_hi: float, seed: int) -> "BlockIsoModel":
        return cls("seeded-random", theta_lo, theta_hi, seed)

    def factor(self, j: int) -> float:
        if self.mode == "exact":
            return 1.0
        return _seeded_theta(self.seed, self.theta_lo, self.theta_hi, int(j))
