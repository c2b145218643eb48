"""Finite metric spaces, greedy maximal nets, and embedding diagnostics.

A :class:`FiniteMetricSpace` is the universal input of the package: point
labels plus a validated square distance matrix.  The diagnostic side lives
here as well: compression and expansion moduli, and the two-sided
envelope verifier that certifies a map pair by pair.

Everything in this module is immutable after construction and every
operation is a pure function, so values can be shared freely across
threads.  Pair loops run in lexicographic index order so results are
bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "MetricError",
    "NegativeEntry",
    "AsymmetricMatrix",
    "NonzeroDiagonal",
    "ZeroOffDiagonal",
    "TriangleViolation",
    "TooFewPoints",
    "LengthMismatch",
    "FiniteMetricSpace",
    "PointedSpace",
    "Net",
    "ModuliProfile",
    "BoundsReport",
    "validate_metric",
    "greedy_maximal_net",
    "min_positive_distance",
    "moduli_profile",
    "verify_bounds",
]

_BLOCK_PAIRS = 2**16  # pairs per row block of _upper_chunks
_FILTER_SUMS = 2**16  # buffer elements per chunk of the triangle filter: a share of L2 cache
_SYM_ROWS = 64  # rows per strip of the symmetry check


class MetricError(ValueError):
    """The input fails a metric-space requirement."""


class NegativeEntry(MetricError):
    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"negative distance d({i},{j}) = {value}")


class AsymmetricMatrix(MetricError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"matrix is asymmetric at ({i},{j})")


class NonzeroDiagonal(MetricError):
    def __init__(self, i: int, value: float):
        self.i, self.value = i, value
        super().__init__(f"nonzero diagonal d({i},{i}) = {value}")


class ZeroOffDiagonal(MetricError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"d({i},{j}) = 0 for distinct points {i} and {j}")


class TriangleViolation(MetricError):
    def __init__(self, i: int, j: int, k: int, lhs: float, rhs: float):
        self.i, self.j, self.k = i, j, k
        self.lhs, self.rhs = lhs, rhs
        super().__init__(
            f"triangle violation ({i},{j},{k}): d({i},{j}) = {lhs} "
            f"> d({i},{k}) + d({k},{j}) = {rhs}"
        )


class TooFewPoints(MetricError):
    pass


class LengthMismatch(MetricError):
    pass


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Checked finite metric space: labels, a distance matrix, its triangle slack.

    Construct through :func:`validate_metric`, or from an l_p cloud through
    ``LpPointSet.metric_space``: their checks are what the rest of the
    package trusts.  ``dist`` is a symmetric float64 matrix with a zero
    diagonal and positive finite entries off it; ``triangle_slack`` is a
    finite number, at least 0 and at least every defect d(i,j) - d(i,k) -
    d(k,j) of ``dist`` in exact arithmetic, the one the check proved.
    Construction itself raises only on the shape, the dtype and the slack.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    triangle_slack: float

    def __post_init__(self):
        if self.dist.ndim != 2 or self.dist.shape[0] != self.dist.shape[1]:
            raise MetricError("distance matrix must be square")
        if len(self.labels) != self.dist.shape[0]:
            raise LengthMismatch("labels and matrix size differ")
        if self.dist.dtype != np.float64:
            raise MetricError(f"distance matrix must be float64, got {self.dist.dtype}")
        if not 0 <= self.triangle_slack < math.inf:
            raise MetricError(f"triangle slack must be finite and >= 0, got {self.triangle_slack}")

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n_points else 0.0


@dataclass(frozen=True)
class PointedSpace:
    """A finite metric space with a distinguished basepoint.

    ``norms()`` returns the distance of every point to the basepoint; the
    basepoint itself has norm 0.
    """

    space: FiniteMetricSpace
    basepoint: int = 0

    def __post_init__(self):
        if not 0 <= self.basepoint < self.space.n_points:
            raise MetricError(f"basepoint {self.basepoint} out of range")

    def norms(self) -> np.ndarray:
        return self.space.dist[self.basepoint]


@dataclass(frozen=True)
class Net:
    """A radius-separated, radius-covering subset of a closed ball.

    ``members`` is ordered by admission (scan order), so iteration over a
    net is reproducible.  Separation means every two distinct members are
    at distance >= ``radius``; maximality means every ball point is within
    strict distance ``radius`` of some member.
    """

    members: tuple[int, ...]
    radius: float
    center: int
    ball_radius: float

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ModuliProfile:
    """Sampled compression (rho) and expansion (omega) moduli.

    compression[i] is the infimum of image distances over pairs at domain
    distance >= thresholds[i] (``math.inf`` when no pair qualifies);
    expansion[i] the supremum over pairs at distance <= thresholds[i]
    (0.0 when none).  Both are non-decreasing in the threshold.
    """

    thresholds: tuple[float, ...]
    compression: tuple[float, ...]
    expansion: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Outcome of an envelope check over all distinct pairs.

    Slack is signed margin: ``image_distance - lower`` on the lower side and
    ``upper - image_distance`` on the upper side.  The worst slacks are the
    minima over all pairs; a negative worst slack beyond the tolerance means
    the check failed.  The report holds plain values only: counts, extrema
    and the constants echoed into it.
    """

    worst_lower_slack: float
    worst_upper_slack: float
    empirical_distortion: float
    tolerance: float
    constants: Mapping[str, Any]
    passed: bool
    n_pairs: int
    n_failed: int

    def summary(self) -> dict[str, Any]:
        return {
            "pairs_total": self.n_pairs,
            "pairs_passed": self.n_pairs - self.n_failed,
            "pairs_failed": self.n_failed,
            "worst_lower_slack": self.worst_lower_slack,
            "worst_upper_slack": self.worst_upper_slack,
            "empirical_distortion": self.empirical_distortion,
            "tolerance": self.tolerance,
        }


def validate_metric(
    matrix: Any,
    labels: Sequence[str] | None = None,
    *,
    tol: float | None = None,
) -> FiniteMetricSpace:
    """Validate a square matrix as a finite metric and wrap it.

    Checks, in order: numeric entries, finite entries, non-negativity,
    symmetry, zero diagonal, no zero distance between distinct points, and
    the triangle inequality.  The triangle check allows absolute slack
    ``tol``; the default (``None``) is 1e-12 times the largest entry, which
    absorbs the rounding noise of distances evaluated in floating point
    (exactly tight triangles are common in l_1 and l_inf point sets) while
    still catching any genuine violation at every scale.  Pass ``tol=0.0``
    for an exact check.  The first offending entry in lexicographic index
    order is reported; the matrix is never repaired.

    The triangle check runs in two stages.  A min-plus filter takes, for
    each pair i < j, the smallest ``d(i,k) + d(j,k)`` over the other points
    k and flags the pair when ``d(i,j)`` exceeds it by more than ``tol``
    less a margin of 16 * 2^-53 times the largest entry.  The margin covers
    the rounding difference between the filter and the exact scan, so the
    filter flags every pair the scan would reject.  Before the filter forms
    a pair's n sums, a screen compares ``d(i,j)`` with ``r_i + r_j``, where
    r_i is the distance from i to its nearest other point.  Every sum the
    filter would take is at least ``r_i + r_j``, so a pair that passes the
    screen cannot be flagged and is cleared at once; on graph metrics most
    pairs are.  Only when a pair is flagged does the exact per-triple scan
    run, from the flagged row on; it decides the outcome and names the first
    violating triple.  A NaN ``tol`` raises ``ValueError``.
    """
    if tol is not None and math.isnan(tol):
        raise ValueError(f"tol must be a number, got {tol}")
    a = _checked_entries(matrix)
    scale = float(a.max(initial=0.0))
    if tol is None:
        tol = 1e-12 * scale

    # Min-plus filter.  Write u = 2^-53 and M = scale; every entry lies in
    # [0, M].  The scan computes fl(fl(a_ij - a_ik) - a_jk), the filter
    # fl(a_ij - fl(a_ik + a_jk)); both equal a_ij - a_ik - a_jk in exact
    # arithmetic.  Each add or subtract rounds by at most u times its result
    # (a subnormal result is exact), so the scan is within uM + 2uM of the
    # exact value and the filter within 2uM + 2uM(1 + u): they differ by
    # less than 8uM.  The minimum over k is exact and rounding is monotone,
    # so a row's value fl(a_ij - min_k) is at least the filter's value for
    # each k.  The scan rejects only when tol < M.  For tol in [-3M, M),
    # forming the bound tol - 16uM rounds by at most 3uM (the margin itself
    # by at most uM), so it lies below tol - 12uM, while the filter's value
    # for a triple the scan rejects exceeds tol - 8uM; for tol < -3M the
    # bound lies below every filter value, which is at least -2M(1 + u)^2.
    # Either way a triple the scan rejects flags its pair, for every tol,
    # 0.0 and negative values included.  The filter is symmetric in i and j, so
    # rows j > i cover the j < i orderings, and a violating triple
    # (i', j', k) flags row min(i', j') <= i'.  So no scan violation lies in
    # a row before the first flagged row i, and the exact scan of rows i..
    # names the same triple as a full scan; a flag it does not confirm is
    # a rounding near-miss, and the matrix is accepted.
    # When 2M overflows (M >= 2^1023), a sum a_ik + a_jk may too, so the
    # filter runs on b = fl(a / 2) against fl(tol / 2) and M / 2, whose sums
    # stay at most M.  Halving is exact down to 2^-1021 and below that errs
    # by at most 2^-1075, so each filter value is within 8u(M / 2) + 3 * 2^-1075
    # of half the scan's, and fl(tol / 2) within 2^-1075 of tol / 2: as M / 2 >=
    # 2^1022, the bounds above hold with tol, M halved, losses included.
    # The screen: with r_i = min_{k != i} b_ik, r_i + r_j <= b_ik + b_jk for
    # every k not in {i, j}, and rounding is monotone, so fl(b_ij - fl(r_i +
    # r_j)) bounds every filter value of pair (i, j) from above: a pair whose
    # screen value is at most bound is never flagged, and the filter skips it.
    half = 0.5 if scale >= 2.0**1023 else 1.0
    b = a * half if half < 1 else a
    bound = tol * half - 16 * 2.0**-53 * (scale * half)
    i = _first_flagged_row(b, bound)
    if i is not None:
        _scan_triangles(a, tol, i)
    # So every triple's scan value fl(s - a_jk), s = fl(a_ij - a_ik), is at
    # most tol, and its exact defect is within uM of s - a_jk.  When s > a_jk
    # that is at most tol + u(1 + u)M, else at most 0: every defect lies
    # below the triangle slack max(tol, 0) + 4uM, rounded up.  No defect
    # exceeds its d(i,j) <= M either, which keeps the slack of a huge tol finite.
    slack = float(np.nextafter(max(tol, 0.0) + 2.0**-51 * scale, math.inf))
    return _labelled(a, labels, min(slack, scale))


def _first_flagged_row(b: np.ndarray, bound: float) -> int | None:
    """The first row i of a pair i < j whose filter value (see validate_metric)
    exceeds bound, or None.  b's diagonal is inf while it runs."""
    n = b.shape[0]
    width = max(2, _FILTER_SUMS // max(n, 1))  # pairs per slice of b
    step = width // 2  # pairs per gathered chunk, which fills two buffers; rows per block
    cols = np.arange(n)
    buf = np.empty((width, n))  # reused: fresh temporaries this size churn malloc
    np.fill_diagonal(b, np.inf)  # so the k = i and k = j sums are inf
    try:
        r = b.min(axis=1, initial=np.inf)
        for i0 in range(0, n - 1, step):
            rows, c0 = cols[i0 : i0 + step], i0 + 1  # the screen of pairs (i in rows, j > i)
            keep = b[i0 : i0 + step, c0:] - (r[rows, None] + r[c0:]) > bound
            keep &= cols[c0:] > rows[:, None]
            # A long row that keeps most of its pairs adds contiguous slices of
            # b; the kept pairs of the other rows are gathered, many to a chunk.
            left = n - 1 - rows
            wide = (2 * np.count_nonzero(keep, axis=1) > left) & (left >= step // 4)
            I, J = np.nonzero(keep[~wide])
            I, J = rows[~wide][I], J + c0
            chunks = [
                (i, slice(j, min(j + width, n)))
                for i in rows[wide].tolist()
                for j in range(i + 1, n, width)
            ]
            chunks += [(I[p : p + step], J[p : p + step]) for p in range(0, I.size, step)]
            flagged = []
            for ii, jj in chunks:
                if isinstance(jj, slice):
                    s = np.add(b[jj], b[ii], out=buf[: jj.stop - jj.start])
                else:
                    s, t = buf[: jj.size], buf[step : step + ii.size]
                    np.add(np.take(b, jj, 0, s, "clip"), np.take(b, ii, 0, t, "clip"), out=s)
                bad = b[ii, jj] - s.min(axis=1) > bound
                if bad.any():
                    flagged.append(ii if isinstance(jj, slice) else ii[bad.argmax()])
            if flagged:  # the chunks hold every kept pair of the block's rows
                return int(min(flagged))
        return None
    finally:
        np.fill_diagonal(b, 0.0)


def _checked_entries(matrix: Any, *, copy: bool = True) -> np.ndarray:
    """The matrix as a new float array, after every check of
    :func:`validate_metric` but the triangle inequality, in its order.  With
    ``copy=False`` a float64 array comes back itself, not copied.  Each check
    is one pass; only a failed one looks for its first entry."""
    try:
        a = (np.array if copy else np.asarray)(matrix, dtype=float)
    except (TypeError, ValueError) as err:
        raise MetricError(f"matrix entries must be numbers: {err}") from err
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MetricError("matrix must be square")
    lo, hi = a.min(initial=0.0), a.max(initial=0.0)  # NaN if any entry is
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise MetricError("matrix entries must be finite")

    if lo < 0:
        i, j = map(int, np.argwhere(a < 0)[0])
        raise NegativeEntry(i, j, float(a[i, j]))

    # rows i0.. against columns i0.., one strip of _SYM_ROWS at a time: the
    # transposed strip stays in cache.  The first asymmetric entry of a
    # has i < j, since (j, i) is asymmetric too.
    n = a.shape[0]
    for i0 in range(0, n, _SYM_ROWS):
        if (a[i0 : i0 + _SYM_ROWS, i0:] != a[i0:, i0 : i0 + _SYM_ROWS].T).any():
            i, j = map(int, np.argwhere(a != a.T)[0])
            raise AsymmetricMatrix(i, j)

    diag = np.flatnonzero(np.diagonal(a) != 0)
    if diag.size:
        i = int(diag[0])
        raise NonzeroDiagonal(i, float(a[i, i]))

    off = _off_diagonal(a)
    if not off.all():
        r, c = map(int, np.argwhere(off == 0)[0])
        i, j = sorted(divmod(1 + r * (n + 1) + c, n))
        raise ZeroOffDiagonal(i, j)
    return a


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a square matrix as an (n - 1) x (n + 1)
    array in row-major order (a view when a is contiguous): dropping entry
    (0, 0), every row of n + 1 entries ends on the next diagonal entry."""
    n = a.shape[0]
    return a.ravel()[1:].reshape(max(n - 1, 0), n + 1)[:, :-1]


def _labelled(
    a: np.ndarray, labels: Sequence[str] | None, triangle_slack: float
) -> FiniteMetricSpace:
    """Wrap a checked matrix, read-only, with labels (p0, p1, ... by default)
    and the triangle slack its check proved."""
    n = a.shape[0]
    if labels is None:
        labels = [f"p{i}" for i in range(n)]
    elif len(labels) != n:
        raise LengthMismatch("labels and matrix size differ")
    labels = tuple(map(str, labels))
    a.setflags(write=False)
    return FiniteMetricSpace(labels, a, triangle_slack)


def _scan_triangles(a: np.ndarray, tol: float, start: int) -> None:
    """Raise on the first violating triple (i, j, k) with i >= start.

    A violation means d(i,j) - d(i,k) - d(k,j) > tol.  a is exactly
    symmetric here, so a[j, k] stands for d(k,j): reading a row-wise instead
    of a.T keeps memory access contiguous.
    """
    for i in range(start, a.shape[0]):
        with np.errstate(over="ignore"):  # a -inf excess exceeds no tol
            excess = a[i][:, None] - a[i][None, :] - a
        excess[i, :] = -np.inf
        excess[:, i] = -np.inf
        np.fill_diagonal(excess, -np.inf)
        bad = np.argwhere(excess > tol)
        if bad.size:
            j, k = map(int, bad[0])
            raise TriangleViolation(i, j, k, float(a[i, j]), float(a[i, k]) + float(a[k, j]))


def greedy_maximal_net(
    space: FiniteMetricSpace, ball: tuple[int, float], net_radius: float
) -> Net:
    """Greedy maximal ``net_radius``-net of a closed ball, its center first.

    The ball is (center, radius).  Scan order is the center, which seeds the
    net, then the input index order.  A point is admitted iff no member so
    far lies strictly within ``net_radius`` of it (a tie at exactly the
    radius is admitted), tracked as a covered mask in which points outside
    the ball start covered.  The result is maximal: every ball point sits
    strictly within ``net_radius`` of a member.
    """
    center, ball_radius = ball
    if not net_radius > 0:
        raise MetricError("net radius must be positive")
    if not ball_radius >= 0:  # the center lies in its own ball
        raise MetricError("ball radius must be non-negative")
    if not 0 <= center < space.n_points:
        raise MetricError("center index out of range")

    d = space.dist
    covered = d[center] > ball_radius
    members = []
    for i in (center, *range(space.n_points)):
        if not covered[i]:
            members.append(i)
            covered |= d[i] < net_radius
    return Net(tuple(members), float(net_radius), center, float(ball_radius))


def min_positive_distance(space: FiniteMetricSpace) -> float:
    """Minimum distance over distinct pairs."""
    if space.n_points < 2:
        raise TooFewPoints("need at least two points")
    return float(_off_diagonal(space.dist).min())


def _check_shape(n: int, image_distances: np.ndarray) -> np.ndarray:
    m = np.asarray(image_distances, dtype=float)
    if m.shape != (n, n):
        raise LengthMismatch("image distance matrix has wrong shape")
    # NaN propagates through both extrema, and an infinity shows in one
    if not math.isfinite(m.min(initial=0.0)) or not math.isfinite(m.max(initial=0.0)):
        raise ValueError("image distances must be finite")
    return m


def moduli_profile(
    domain: FiniteMetricSpace,
    thresholds: Sequence[float],
    *,
    image_distances: np.ndarray,
) -> ModuliProfile:
    """Sample the compression and expansion moduli on a threshold grid.

    For each threshold t, compression is the infimum of image distances
    over distinct pairs with d >= t and expansion the supremum over pairs
    with d <= t.  An empty infimum is reported as ``math.inf`` (the
    "unbounded" marker), an empty supremum as 0.0.

    Each pair goes into the buckets #(grid <= d) and #(grid < d) of the
    sorted thresholds plus inf, looked up in :func:`_bucket_table`; a grid
    too dense for a table takes a binary search instead.  The counts are
    exact either way.
    """
    ts = [float(t) for t in thresholds]
    if not all(t >= 0 for t in ts):
        raise MetricError("thresholds must be non-negative")
    ts.sort()
    m = _check_shape(domain.n_points, image_distances)

    grid, at = np.unique([*ts, math.inf], return_inverse=True)  # inf: above every d
    low = np.full(len(grid) + 1, math.inf)  # low[k]: min over pairs with k of grid <= d
    high = np.zeros(len(grid) + 1)  # high[k]: max over pairs with k of grid < d
    table = _bucket_table(grid)
    for d, v in _upper_chunks(domain.dist, m):
        k, below = _buckets(grid, table, d)
        np.minimum.at(low, k, v)
        np.maximum.at(high, below, v)
    compression = np.minimum.accumulate(low[::-1])[::-1][at[:-1] + 1]
    expansion = np.maximum.accumulate(high)[at[:-1]]
    return ModuliProfile(tuple(ts), tuple(compression.tolist()), tuple(expansion.tolist()))


def _bucket_table(grid: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray] | None:
    """The table of :func:`_buckets` for a sorted grid of distinct
    non-negative doubles ending in inf: (shift, first cell, counts,
    thresholds), or None when it would hold more entries than a row block
    holds pairs.

    Positive finite doubles order like their IEEE-754 bit patterns read as
    integers, so the top bits of a pattern, its cell, place d against every
    grid value in another cell.  The shift is the largest at which no cell
    holds two of the positive finite grid values; the table spans their
    cells.  Entry c holds the number of grid values in lower cells and the
    one grid value in cell c (inf when there is none).
    """
    zero = int(grid[0] == 0)
    inner = grid[zero:-1]  # the positive finite grid values
    bits = inner.view(np.int64)
    shift = 63  # the highest bit where two neighbours first differ
    if len(bits) > 1:
        shift = int((bits[1:] ^ bits[:-1]).min()).bit_length() - 1
    first = int(bits[0]) >> shift if len(bits) else 0
    size = (int(bits[-1]) >> shift) - first + 1 if len(bits) else 1
    if size > _BLOCK_PAIRS:
        return None
    cells = (bits >> shift) - first
    counts = (np.searchsorted(cells, np.arange(size)) + zero).astype(np.min_scalar_type(len(grid)))
    values = np.full(size, math.inf)
    values[cells] = inner
    return shift, first, counts, values


def _buckets(
    grid: np.ndarray, table: tuple[int, int, np.ndarray, np.ndarray] | None, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The counts #(grid <= d) and #(grid < d) of every pair distance d.

    With a table (see :func:`_bucket_table`), d's cell gives the count of
    the lower cells, and one compare against the cell's grid value finishes
    each count.  A cell outside the table is clipped to its first or last
    cell, whose grid value lies above or below d, so the compare still
    counts right.  Every d is positive and finite, as in every
    :class:`FiniteMetricSpace`.  Without a table, the binary search of
    ``np.searchsorted`` does.
    """
    if table is not None:
        shift, first, counts, values = table
        cell = d.view(np.int64) >> shift
        cell -= first
        np.minimum(cell, len(counts) - 1, out=cell)  # np.clip costs more on small blocks
        np.maximum(cell, 0, out=cell)
        t = values.take(cell)
        c = counts.take(cell)
        return c + (t <= d), c + (t < d)
    k = np.searchsorted(grid, d, "right")
    return k, k - (grid[k - 1] == d)  # grid[-1] = inf > d at k = 0


def _upper_chunks(dist: np.ndarray, m: np.ndarray):
    """Yield (dist, m) at the pairs i < j, flat in lexicographic order, per row
    block of at most _BLOCK_PAIRS pairs, or one row when a row alone is longer."""
    n = dist.shape[0]
    before = np.cumsum(np.arange(n, 0, -1)) - n  # pairs in the rows before row i
    cols = np.arange(n)
    i = 0
    while i < n - 1:
        k = max(i + 1, int(np.searchsorted(before, before[i] + _BLOCK_PAIRS, "right")) - 1)
        mask = cols > cols[i:k, None]
        yield dist[i:k][mask], m[i:k][mask]
        i = k


def verify_bounds(
    domain: FiniteMetricSpace,
    lower_envelope: Callable[[np.ndarray], np.ndarray],
    upper_envelope: Callable[[np.ndarray], np.ndarray],
    *,
    image_distances: np.ndarray,
    tolerance: float = 1e-9,
    constants: Mapping[str, Any] | None = None,
) -> BoundsReport:
    """Check lower(d) - tol <= image distance <= upper(d) + tol on all pairs.

    The tolerance is an absolute two-sided slack; a non-finite tolerance
    raises ``ValueError``.  A pair whose image distance is exactly 0 while
    its lower envelope is positive fails whatever the tolerance: a computed
    0 means the two images are identical, so no rounding slack applies.
    Failures are report content, never exceptions.  An envelope maps an
    array of distances to its values there, elementwise as on floats (an
    overflow to inf stays silent); it is called once per row block of at most
    2^16 pairs, or one row when a row alone is longer (see _upper_chunks).
    """
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    n = domain.n_points
    m = _check_shape(n, image_distances)

    n_failed = 0
    worst_lo = worst_hi = math.inf
    any_zero = False
    max_exp = max_inv = 0.0
    for d, v in _upper_chunks(domain.dist, m):
        with np.errstate(over="ignore"):
            lo, hi = lower_envelope(d), upper_envelope(d)
        slack_lo, slack_hi = v - lo, hi - v
        del lo, hi  # and the slacks below: no two blocks' arrays coexist
        ok = (slack_lo >= -tolerance) & (slack_hi >= -tolerance)
        zero = v == 0  # identical images get no tolerance; their slack_lo is -lower
        ok &= ~zero | (slack_lo >= 0)
        any_zero = any_zero or bool(zero.any())
        n_failed += ok.size - int(np.count_nonzero(ok))
        # fmin passes over a NaN slack, as the builtin min of a per-pair loop does
        worst_lo = float(np.fmin.reduce(slack_lo, initial=worst_lo))
        worst_hi = float(np.fmin.reduce(slack_hi, initial=worst_hi))
        if not any_zero:  # else the distortion is inf
            with np.errstate(over="ignore"):  # a ratio past the largest double reads inf
                max_exp = float(np.max(v / d, initial=max_exp))
                max_inv = float(np.max(d / v, initial=max_inv))
        del slack_lo, slack_hi

    n_pairs = n * (n - 1) // 2
    emp = math.inf if any_zero else (max_exp * max_inv if n_pairs else 1.0)
    return BoundsReport(
        worst_lower_slack=worst_lo if n_pairs else 0.0,
        worst_upper_slack=worst_hi if n_pairs else 0.0,
        empirical_distortion=emp,
        tolerance=float(tolerance),
        constants=dict(constants) if constants else {},
        passed=n_failed == 0,
        n_pairs=n_pairs,
        n_failed=n_failed,
    )
