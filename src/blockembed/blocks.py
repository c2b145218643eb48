"""Sparse block vectors and the block-sum sequence space they live in.

The embedding codomain is modeled concretely: a direct sum of
finite-dimensional blocks with one exponent p in [1, inf] inside and
outside the blocks, either a sup-sum of sup-normed blocks (the c0-style
model) or an l_p sum of l_p blocks.  The norm of a block vector is then the
flat l_p norm of its concatenated coordinates.  Coordinate projections onto
a single block have norm one, strictly inside the hypotheses the distance
envelopes were derived under, so every certified bound must hold a fortiori.

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
    "unpair_index",
    "inner_norm",
    "outer_norm",
    "project_block",
    "axpy",
    "scale_block",
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


def unpair_index(j: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`."""
    if j < 0:
        raise ValueError(f"block id must be non-negative, got {j}")
    w = (math.isqrt(8 * j + 1) - 1) // 2
    km1 = j - w * (w + 1) // 2
    z = w - km1
    n = z // 2 if z % 2 == 0 else -(z + 1) // 2
    return n, km1 + 1


class BlockVector:
    """Sparse map from block id to a finite real coordinate vector.

    Canonical sparsity is enforced at construction: zero blocks are
    dropped, ids are kept in ascending order, and the stored arrays are
    read-only.  Instances compare by exact coordinate equality.
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

    @classmethod
    def empty(cls) -> "BlockVector":
        return cls()

    @property
    def block_ids(self) -> tuple[int, ...]:
        return tuple(self.blocks)

    def get(self, j: int) -> np.ndarray | None:
        return self.blocks.get(j)

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockVector):
            return NotImplemented
        if self.blocks.keys() != other.blocks.keys():
            return False
        return all(np.array_equal(self.blocks[j], other.blocks[j]) for j in self.blocks)

    def __hash__(self):
        return hash(tuple((j, v.tobytes()) for j, v in self.blocks.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{j}: dim {len(v)}" for j, v in self.blocks.items())
        return f"BlockVector({{{inner}}})"


def inner_norm(x: np.ndarray, p: float) -> float:
    """l_p norm of a plain vector, p in [1, inf]: :func:`_norms` of one row."""
    if not p >= 1:
        raise ValueError(f"norm exponent must lie in [1, inf], got {p}")
    x = np.abs(np.asarray(x, dtype=float)).reshape(1, -1)
    return float(_norms(x, p)[0]) if x.size else 0.0


def outer_norm(v: BlockVector, p: float) -> float:
    """Norm of a block vector: the l_p norm of its concatenated coordinates."""
    coords = list(v.blocks.values())
    return inner_norm(np.concatenate(coords), p) if coords else 0.0


def project_block(v: BlockVector, j: int) -> BlockVector:
    """Coordinate projection onto block ``j`` (empty when absent); idempotent."""
    x = v.blocks.get(j)
    return BlockVector({j: x}) if x is not None else BlockVector.empty()


def axpy(a: float, v: BlockVector, b: float, w: BlockVector) -> BlockVector:
    """Pointwise a*v + b*w with canonical sparsity restored."""
    out: dict[int, np.ndarray] = {}
    for j in sorted(v.blocks.keys() | w.blocks.keys()):
        x = v.blocks.get(j)
        y = w.blocks.get(j)
        if x is not None and y is not None:
            if len(x) != len(y):
                raise DimensionMismatch(j, len(x), len(y))
            out[j] = a * x + b * y
        elif x is not None:
            out[j] = a * x
        else:
            out[j] = b * y
    return BlockVector(out)


def scale_block(a: float, v: BlockVector) -> BlockVector:
    """a * v, canonically sparse."""
    return axpy(a, v, 0.0, BlockVector.empty())


def _norms(diff: np.ndarray, p: float) -> np.ndarray:
    """Inner l_p norms of non-negative coordinate rows along the last axis.

    For finite p > 1 a row whose p-th powers may have left the normal
    range (a power sum below 2^-960, so a norm below ``_L2_REDO_BELOW`` for
    p = 2, or an infinite one) is redone divided by an exact power of two
    near its largest entry, its root multiplied back; every other row keeps
    the same bits.
    """
    if math.isinf(p):
        return diff.max(axis=-1)
    if p == 1:
        return diff.sum(axis=-1)
    powers = np.square if p == 2 else (lambda x: np.power(x, p))
    root = np.sqrt if p == 2 else (lambda x: x ** (1.0 / p))
    with np.errstate(over="ignore"):  # an overflowed row is redone below
        out = root(powers(diff).sum(axis=-1))
    redo = ~(out >= _L2_REDO_BELOW ** (2.0 / p)) | np.isinf(out)
    if redo.any():
        rows = diff[redo]
        e = np.frexp(rows.max(axis=-1))[1]
        rows = np.ldexp(rows, -e[:, None])
        out[redo] = np.ldexp(root(powers(rows).sum(axis=-1)), e)
    return out


def lp_distance_matrix(points: np.ndarray, p: float) -> np.ndarray:
    """Pairwise l_p distances of the rows of an (m, dim) array, p in [1, inf].

    Differences are formed ``_CHUNK_ELEMS`` elements (or one row, if
    larger) at a time, so temporaries stay at O(m^2 + chunk).
    """
    x = np.asarray(points, dtype=float)
    m, dim = x.shape
    out = np.empty((m, m))
    step = max(1, _CHUNK_ELEMS // max(1, m * dim))
    buf = np.empty((min(step, m), m, dim))
    for lo in range(0, m, step):
        diff = buf[: min(step, m - lo)]
        with np.errstate(over="ignore"):  # an overflow stays inf; metric checks reject it
            np.subtract(x[lo : lo + step, None, :], x[None, :, :], out=diff)
        out[lo : lo + step] = _norms(np.abs(diff, out=diff), p)
    return out


def pairwise_distance_matrix(images: Sequence[BlockVector], p: float) -> np.ndarray:
    """All pairwise image distances in the block sum with exponent p.

    Equivalent to ``outer_norm(axpy(1, u, -1, v), p)`` on every pair.  The
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

    For finite p > 1, an entry whose p-th powers overflow is computed again
    from every coordinate divided by an exact power of two, its root
    multiplied back; entries whose plain fold stays finite keep their bits.
    """
    out = _fold(n, blocks, p, 0)
    if not math.isinf(p) and p != 1:
        over = np.isinf(out)
        if over.any():
            # a block distance is at most 2 * dim * max|x| < 2^shift
            top = max(float(np.abs(x).max()) for _, x in blocks)
            dim = max(x.shape[1] for _, x in blocks)
            shift = math.frexp(top)[1] + dim.bit_length() + 1
            out[over] = _fold(n, blocks, p, shift)[over]
    np.fill_diagonal(out, 0.0)
    return out


def _fold(
    n: int, blocks: list[tuple[np.ndarray | slice, np.ndarray]], p: float, shift: int
) -> np.ndarray:
    """Fold blocks into the n x n l_p sum of their distances, in list order,
    with every coordinate divided by 2^shift and the root multiplied back.

    A block is (carriers, coordinates): an index array or a slice of the n
    points, and their c x dim coordinate rows.  A pair of carriers is
    charged their distance (:func:`lp_distance_matrix`), a pair with one
    carrier that carrier's block norm, and a pair with none nothing.  A
    carrier whose row is zero is charged as a non-carrier would be, to the
    bit, so a caller may keep such rows to make its carriers one slice.
    The diagonal is left as it comes.  An entry that overflows comes out
    inf.
    """
    sup = math.isinf(p)
    out = np.zeros((n, n))
    for idx, x in blocks:
        if shift:
            x = np.ldexp(x, -shift)
        # column b of the carriers: N_b against non-carrier rows, the exact
        # block distance against carrier rows
        col = np.empty((n, len(x)))
        with np.errstate(over="ignore"):  # an overflowed entry is computed again, scaled
            col[:] = _norms(np.abs(x), p)
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
        if shift:
            with np.errstate(over="ignore"):  # a distance past the largest double
                np.ldexp(out, shift, out=out)
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
