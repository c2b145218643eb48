"""Finite metric spaces, greedy maximal nets, and embedding diagnostics.

A :class:`FiniteMetricSpace` is the universal input of the package: point
labels plus a validated square distance matrix.  The diagnostic side lives
here as well: compression and expansion moduli, distortion, and the
two-sided envelope verifier that certifies a map pair by pair.

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
    "SeedOutsideBall",
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
    "distortion",
    "verify_bounds",
]


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


class SeedOutsideBall(MetricError):
    def __init__(self, seed: int, center: int, radius: float):
        self.seed, self.center, self.radius = seed, center, radius
        super().__init__(f"seed {seed} lies outside ball B({center}, {radius})")


class TooFewPoints(MetricError):
    pass


class LengthMismatch(MetricError):
    pass


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Validated finite metric space: labels and a square distance matrix.

    Construct through :func:`validate_metric`, or from an l_p cloud through
    ``LpPointSet.metric_space``; direct construction skips every metric check
    and only asserts the cheap shape invariants.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        if self.dist.ndim != 2 or self.dist.shape[0] != self.dist.shape[1]:
            raise MetricError("distance matrix must be square")
        if len(self.labels) != self.dist.shape[0]:
            raise LengthMismatch("labels and matrix size differ")

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

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

    def __contains__(self, i: int) -> bool:
        return i in self.members

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
    filter flags every pair the scan would reject.  Only when a pair is
    flagged does the exact per-triple scan run, from the flagged row on; it
    decides the outcome and names the first violating triple.
    """
    a = _checked_entries(matrix)
    n = a.shape[0]
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
    bound = tol - 16 * 2.0**-53 * scale
    sums = np.empty((n, n))
    for i in range(n - 1):
        s = sums[: n - 1 - i]  # s[r, k] = a[i, k] + a[j, k] for j = i + 1 + r
        np.add(a[i + 1 :], a[i], out=s)
        s[:, i] = np.inf
        s.reshape(-1)[i + 1 :: n + 1] = np.inf  # the k = j entries
        if np.any(a[i, i + 1 :] - s.min(axis=1) > bound):
            _scan_triangles(a, tol, i)
            break

    return _labelled(a, labels)


def _checked_entries(matrix: Any) -> np.ndarray:
    """The matrix as a new float array, after every check of
    :func:`validate_metric` but the triangle inequality, in its order."""
    try:
        a = np.array(matrix, dtype=float)
    except (TypeError, ValueError) as err:
        raise MetricError(f"matrix entries must be numbers: {err}") from err
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MetricError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise MetricError("matrix entries must be finite")

    neg = np.argwhere(a < 0)
    if neg.size:
        i, j = map(int, neg[0])
        raise NegativeEntry(i, j, float(a[i, j]))

    asym = np.argwhere(a != a.T)
    if asym.size:
        i, j = map(int, asym[0])
        if i > j:
            i, j = j, i
        raise AsymmetricMatrix(i, j)

    diag = np.flatnonzero(np.diagonal(a) != 0)
    if diag.size:
        i = int(diag[0])
        raise NonzeroDiagonal(i, float(a[i, i]))

    zero = np.argwhere((a == 0) & ~np.eye(a.shape[0], dtype=bool))
    if zero.size:
        i, j = map(int, zero[0])
        if i > j:
            i, j = j, i
        raise ZeroOffDiagonal(i, j)
    return a


def _labelled(a: np.ndarray, labels: Sequence[str] | None) -> FiniteMetricSpace:
    """Wrap a checked matrix, read-only, with labels (p0, p1, ... by default)."""
    n = a.shape[0]
    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    else:
        if len(labels) != n:
            raise LengthMismatch("labels and matrix size differ")
        labels = tuple(str(s) for s in labels)
    a.setflags(write=False)
    return FiniteMetricSpace(labels, a)


def _scan_triangles(a: np.ndarray, tol: float, start: int) -> None:
    """Raise on the first violating triple (i, j, k) with i >= start.

    A violation means d(i,j) - d(i,k) - d(k,j) > tol.  a is exactly
    symmetric here, so a[j, k] stands for d(k,j): reading a row-wise instead
    of a.T keeps memory access contiguous.
    """
    for i in range(start, a.shape[0]):
        excess = a[i][:, None] - a[i][None, :] - a
        excess[i, :] = -np.inf
        excess[:, i] = -np.inf
        np.fill_diagonal(excess, -np.inf)
        bad = np.argwhere(excess > tol)
        if bad.size:
            j, k = map(int, bad[0])
            raise TriangleViolation(i, j, k, float(a[i, j]), float(a[i, k] + a[k, j]))


def greedy_maximal_net(
    space: FiniteMetricSpace,
    ball: tuple[int, float],
    net_radius: float,
    seed: int,
) -> Net:
    """Greedy maximal ``net_radius``-net of a closed ball, seed forced first.

    Scan order is the seed, then the input index order.  A point is
    admitted iff no member so far lies strictly within ``net_radius`` of it
    (a tie at exactly the radius is admitted), tracked as a covered mask in
    which points outside the ball start covered.  The result is maximal:
    every ball point sits strictly within ``net_radius`` of a member.
    """
    center, ball_radius = ball
    if not net_radius > 0:
        raise MetricError("net radius must be positive")
    d = space.dist
    if not 0 <= seed < space.n_points or not 0 <= center < space.n_points:
        raise MetricError("seed or center index out of range")
    if d[seed, center] > ball_radius:
        raise SeedOutsideBall(seed, center, ball_radius)

    covered = d[center] > ball_radius
    members = []
    for i in (seed, *range(space.n_points)):
        if not covered[i]:
            members.append(i)
            covered |= d[i] < net_radius
    return Net(tuple(members), float(net_radius), center, float(ball_radius))


def min_positive_distance(space: FiniteMetricSpace) -> float:
    """Minimum distance over distinct pairs."""
    if space.n_points < 2:
        raise TooFewPoints("need at least two points")
    off = space.dist[~np.eye(space.n_points, dtype=bool)]
    return float(off.min())


def _check_shape(n: int, image_distances: np.ndarray) -> np.ndarray:
    m = np.asarray(image_distances, dtype=float)
    if m.shape != (n, n):
        raise LengthMismatch("image distance matrix has wrong shape")
    if not np.isfinite(m).all():
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
    """
    ts = [float(t) for t in thresholds]
    if any(t < 0 for t in ts):
        raise MetricError("thresholds must be non-negative")
    ts.sort()
    n = domain.n_points
    m = _check_shape(n, image_distances)

    iu = np.triu_indices(n, k=1)
    dd = domain.dist[iu]
    ii = m[iu]
    compression = []
    expansion = []
    for t in ts:
        above = ii[dd >= t]
        compression.append(float(above.min()) if above.size else math.inf)
        below = ii[dd <= t]
        expansion.append(float(below.max()) if below.size else 0.0)
    return ModuliProfile(tuple(ts), tuple(compression), tuple(expansion))


def distortion(domain: FiniteMetricSpace, *, image_distances: np.ndarray) -> float:
    """Product of the two Lipschitz constants of the map and its inverse.

    Scale-invariant; ``math.inf`` when two distinct points share an image.
    """
    n = domain.n_points
    m = _check_shape(n, image_distances)
    iu = np.triu_indices(n, k=1)
    dd = domain.dist[iu]
    ii = m[iu]
    if dd.size == 0:
        raise TooFewPoints("need at least two points")
    if np.any(ii == 0):
        return math.inf
    return float(np.max(ii / dd) * np.max(dd / ii))


def verify_bounds(
    domain: FiniteMetricSpace,
    lower_envelope: Callable[[float], float],
    upper_envelope: Callable[[float], float],
    *,
    image_distances: np.ndarray,
    tolerance: float = 1e-9,
    constants: Mapping[str, Any] | None = None,
) -> BoundsReport:
    """Check lower(d) - tol <= image distance <= upper(d) + tol on all pairs.

    The tolerance is an absolute two-sided slack; a NaN tolerance raises
    ``ValueError``.  A pair whose image distance is exactly 0 while its lower
    envelope is positive fails whatever the tolerance: a computed 0 means the
    two images are identical, so no rounding slack applies.  Failures are
    report content, never exceptions.  The upper triangle is walked row by
    row: each envelope is called once per pair with the distance as a Python
    float, and the slacks, pass mask and extrema are taken with numpy.  Worst
    slacks are the minima over all pairs; no per-pair value outlives its row.
    """
    if math.isnan(tolerance):
        raise ValueError("tolerance must not be NaN")
    n = domain.n_points
    m = _check_shape(n, image_distances)

    n_failed = 0
    worst_lo = worst_hi = math.inf
    any_zero = False
    max_exp = max_inv = 0.0
    for i in range(n - 1):
        d = domain.dist[i, i + 1 :]
        v = m[i, i + 1 :]
        row = d.tolist()
        lo = np.fromiter(map(lower_envelope, row), float, len(row))
        hi = np.fromiter(map(upper_envelope, row), float, len(row))
        slack_lo = v - lo
        slack_hi = hi - v
        ok = (slack_lo >= -tolerance) & (slack_hi >= -tolerance)
        nonzero = v != 0
        if not nonzero.all():  # identical images fail under a positive lower envelope
            any_zero = True
            ok &= nonzero | ~(lo > 0)
        n_failed += len(row) - int(np.count_nonzero(ok))
        # fmin passes over a NaN slack, as the builtin min of a per-pair loop does
        worst_lo = float(np.fmin.reduce(slack_lo, initial=worst_lo))
        worst_hi = float(np.fmin.reduce(slack_hi, initial=worst_hi))
        max_exp = float(np.max(v / d, initial=max_exp))
        max_inv = float(np.max(d[nonzero] / v[nonzero], initial=max_inv))

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
