"""Lipschitz embedding of finite l_p point sets and its coarse composition.

The Lipschitz construction assigns each point the pair of blocks indexed by
its dyadic shell n and n + 1 (block ids are the shell indices themselves),
with contents blend * theta_n * R(t), where R is one fixed seeded diagonal
map with entries in [1/lambda_sim, 1] shared by every tier.  The certified
envelope is d / (20 * lambda_sim^2 * (1 + delta)^2) <= image distance
<= 9 d over the normalized set.

The coarse composition rounds an arbitrary finite set onto a greedy
eps/2-net, embeds the net, and certifies the affine envelope
d / C_d - C_a <= image distance <= C_d * d + C_a with
C_d = max(9, 20 lambda^2 (1 + delta)^2) and C_a = 9 eps, stated in the
units of the input set.

``grid_net`` provides the lattice fixtures (1/k) Z^n intersected with the
sup ball of radius k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .blocks import (
    _L2_REDO_BELOW,
    BlockIsoModel,
    BlockVector,
    _fold_distances,
    _norms,
    lp_distance_matrix,
)
from .metric import BoundsReport, FiniteMetricSpace, greedy_maximal_net, verify_bounds
from .proper import AnnulusOutOfRange, shell_runs

__all__ = [
    "NormBelowOne",
    "SizeCapExceeded",
    "LpPointSet",
    "LpParams",
    "CoarseConstants",
    "LpEmbedding",
    "CoarseEmbedding",
    "normalize_pointed",
    "embed_set_lp",
    "verify_lp",
    "net_round",
    "coarse_embed",
    "verify_coarse",
    "max_rounding_deviation",
    "grid_net",
]

_DIAG_TAG = 211  # stream tag for the diagonal map, disjoint from theta draws
# Largest dim at which the triangle inequality of an l_1, l_2 or l_inf cloud
# is proved rather than scanned (see LpPointSet.metric_space).
_PROVED_DIM_CAP = 1024


class NormBelowOne(ValueError):
    pass


class SizeCapExceeded(ValueError):
    pass


@dataclass
class LpPointSet:
    """Finite subset of l_p^dim with a distinguished basepoint: a plain
    cloud, whose points are named p0, p1, ... in its metric space.

    The induced metric is built and validated once, on the first read of
    :meth:`metric_space`, so the set holds one n x n matrix, read-only, and
    an invalid set raises there.
    For p in {1, 2, inf} and dim up to 1024 (for p = 2, with every positive
    distance in [2^-480, 2^480]) the triangle inequality is proved from
    rounding bounds and only the O(n^2) entry checks run; otherwise the
    matrix goes through :func:`~blockembed.metric.validate_metric`.  The
    entry checks, which validate_metric runs first and in the same order,
    run before the proof, so it reads one maximum and, for p = 2, the
    off-diagonal minimum of a matrix known to be a checked one.  Either way
    the outcome, the exception and the matrix are those of
    ``validate_metric``.
    """

    p: float
    points: np.ndarray
    basepoint: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be an (n, dim) array")
        if not (self.p >= 1):
            raise ValueError(f"exponent must lie in [1, inf], got {self.p}")
        if not 0 <= self.basepoint < len(self.points):
            raise ValueError(f"basepoint {self.basepoint} out of range")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def metric_space(self) -> FiniteMetricSpace:
        from .metric import _checked_entries, _labelled, _off_diagonal, validate_metric

        d = lp_distance_matrix(self.points, self.p)
        # The triangle scan of validate_metric cannot fire on an l_1, l_2 or
        # l_inf cloud of dim <= _PROVED_DIM_CAP.  Write u = 2^-53, a for the
        # exact distances of the stored points, a^ for the computed ones and
        # M^ = max a^.  Each a^ is within g*a of a (Higham, Accuracy and
        # Stability of Numerical Algorithms, ch. 3): g = u for l_inf (one
        # rounded difference; the max is exact), gamma_dim = dim*u / (1 -
        # dim*u) for l_1 (per term a difference and at most dim - 1 additions,
        # in any order), and about (dim/2 + 2)*u for l_2 (gamma_(dim+2) on
        # the sum of squares, halved by the root, plus the root's rounding).
        # All three are at most gamma_(dim+2).  Differences and sums that
        # underflow are exact.  For l_2, positive entries in [2^-480, 2^480]
        # make every sum of squares at least 2^-960 and keep it finite, so
        # the squares that underflow lose at most dim * 2^-1075 < 2^-105 of
        # it (a row blocks._norms redid divided by a power of two obeys the
        # same bound).  Exact distances satisfy the triangle inequality, so
        # a computed excess a^_ij - a^_ik - a^_jk is at most g(a_ij + a_ik +
        # a_jk) <= 3g/(1 - g) * M^, and the scan's two rounded subtractions
        # add at most 3u * M^.  With dim <= 1024, g < 1027u and the sum is
        # below 3085u * M^ < 3.5e-13 * M^, under the default slack
        # 1e-12 * M^ (rounding is monotone, so the rounded slack still
        # exceeds the float excess).  So validate_metric accepts the matrix
        # exactly when the O(n^2) entry checks pass.  The excess of the
        # stored matrix is at most 3g/(1 - g) * M^ < 4(dim + 2)u * M^; that,
        # rounded up, is the triangle slack recorded with the space.
        #
        # The entry checks run first, on the fresh matrix itself: they are
        # the first checks of validate_metric, in its order, so they raise
        # what it raises.  Past them every off-diagonal entry is positive, so
        # the off-diagonal minimum is the least positive distance, and one
        # maximum serves both the l_2 range and the slack.
        if self.dim <= _PROVED_DIM_CAP and self.p in (1, 2, math.inf):
            d = _checked_entries(d, copy=False)
            top = float(d.max(initial=0.0))
            if self.p != 2 or (
                top <= 2.0**480 and _off_diagonal(d).min(initial=np.inf) >= _L2_REDO_BELOW
            ):  # the checked matrix is wrapped, not a copy
                slack = np.nextafter(4 * (self.dim + 2) * 2.0**-53 * top, np.inf)
                return _labelled(d, None, float(slack))
        return validate_metric(d)  # on a copy, which the set then keeps


def normalize_pointed(s: LpPointSet) -> tuple[LpPointSet, np.ndarray, float]:
    """Translate the basepoint to the origin and scale tiny sets up.

    When the smallest positive norm m falls below 1, every point is scaled
    by 1/m (nudged up by ulps if rounding leaves the minimum marginally
    under 1; a ``ValueError`` if 1/m overflows); a norm is, bit for bit, the
    point's ``metric_space`` distance to the basepoint.  Returns the
    normalized set plus the affine record (translation, scale) so results
    can be restated in input units.
    """
    origin = s.points[s.basepoint].copy()
    with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN stay; metric checks reject them
        pts = s.points - origin
        norms = _norms(np.abs(pts), s.p)
        positive = norms > 0
        scale = 1.0
        if positive.any() and (least := float(norms[positive].min())) < 1.0:
            scale = 1.0 / least
            if math.isinf(scale):
                raise ValueError(f"the least positive norm {least} has no finite reciprocal")
            bump = 1.0 + 2.0**-48
            for _ in range(64):  # a few ulps suffice; a norm left below 1 raises NormBelowOne
                if _norms(np.abs(pts[positive] * scale), s.p).min() >= 1.0:
                    break
                scale *= bump
            pts = pts * scale
    out = LpPointSet(s.p, pts, s.basepoint)
    return out, origin, scale


@lru_cache(maxsize=256)
def _diag_map(seed: int, lambda_sim: float, dim: int) -> np.ndarray:
    if lambda_sim == 1.0:
        diag = np.ones(dim)
    else:
        rng = np.random.default_rng([seed, _DIAG_TAG])
        diag = rng.uniform(1.0 / lambda_sim, 1.0, size=dim)
    diag.setflags(write=False)
    return diag


@dataclass(frozen=True)
class LpParams:
    """Slack model for the Lipschitz construction.

    ``delta`` bounds the per-tier scale loss (factors theta_n in
    [1/(1+delta), 1]); ``lambda_sim`` the diagonal-map loss (one fixed
    seeded diagonal with entries in [1/lambda_sim, 1], shared across
    tiers).  ``theta_mode`` picks how theta_n is realized.
    """

    delta: float = 0.01
    lambda_sim: float = 1.0
    seed: int = 0
    theta_mode: str = "seeded-random"

    def __post_init__(self):
        if not self.delta >= 0:
            raise ValueError("delta must be non-negative")
        if not self.lambda_sim >= 1:
            raise ValueError("lambda_sim must be >= 1")
        _ = self.iso  # an unknown theta_mode or a negative seed fails here, not on first use
        try:
            finite = self.lower_denominator() < math.inf
        except OverflowError:  # of lambda_sim ** 2
            finite = False
        if not finite:
            raise ValueError("20 * lambda_sim^2 * (1 + delta)^2 must be finite")

    @property
    def iso(self) -> BlockIsoModel:
        """The theta_n model: exact, or drawn from [1/(1+delta), 1] keyed by seed."""
        if self.theta_mode == "exact":
            return BlockIsoModel.exact()
        return BlockIsoModel(self.theta_mode, 1.0 / (1.0 + self.delta), 1.0, self.seed)

    def lower_denominator(self) -> float:
        return 20.0 * self.lambda_sim**2 * (1.0 + self.delta) ** 2

    def diag_map(self, dim: int) -> np.ndarray:
        """The fixed diagonal of the simulated lambda-distorted coordinates (read-only)."""
        return _diag_map(self.seed, self.lambda_sim, dim)


@dataclass(frozen=True)
class CoarseConstants:
    """Dilation and additive constants of a coarse two-sided envelope."""

    c_d: float
    c_a: float
    eps: float

    def __post_init__(self):
        if not (0 < self.c_d < math.inf and 0 < self.c_a < math.inf):
            raise ValueError(
                f"coarse constants must be positive and finite, got c_d={self.c_d}, c_a={self.c_a}"
            )


@dataclass(frozen=True)
class LpEmbedding:
    """Lipschitz embedding of a normalized l_p point set.

    The embedding holds its factors, not its images.  ``_tiers``, derived
    on first read, holds each carrier tier's rows blend * theta_n * R(t)
    over its run of :func:`~blockembed.proper.shell_runs`;
    ``image_distances`` folds them (``blocks._fold_distances``) and
    ``images`` scatters them into the block vectors, which no mode reads
    (``perfbench/sweep.py`` reads their block sizes).
    """

    pointset: LpPointSet  # normalized
    params: LpParams
    translation: np.ndarray
    scale: float

    @cached_property
    def _tiers(self) -> tuple[np.ndarray, list[tuple[int, slice, np.ndarray]]]:
        """(order, [(tier, run, rows)]): rows (blend * theta_tier)[:, None] *
        R(t) over the points of the run, in norm order."""
        points, params = self.pointset.points, self.params
        r = _norms(np.abs(points), self.pointset.p)
        if np.any((r > 0) & (r < 1)):
            raise NormBelowOne(f"point norm {r[r > 0].min()} < 1; normalize the set first")
        if r.max(initial=0.0) >= 2.0**1023:  # as in annulus_index, 2^(n+1) is no double
            raise AnnulusOutOfRange(f"point norm {r.max()} lies past the last dyadic shell")
        order, runs = shell_runs(r)
        rt = params.diag_map(points.shape[1]) * points[order]
        return order, [
            (tier, slice(lo, hi), (blend * params.iso.factor(tier))[:, None] * rt[lo:hi])
            for tier, lo, hi, blend in runs
        ]

    def _distances(self, a: float, rows: np.ndarray | slice) -> np.ndarray:
        """Image distances between the points ``rows``, every image scaled by
        ``a``: bit for bit those of :attr:`images` times ``a``."""
        order, tiers = self._tiers
        out = _fold_distances(len(order), [(run, a * x) for _, run, x in tiers], self.pointset.p)
        at = np.argsort(order)[rows]
        return out[np.ix_(at, at)]

    @cached_property
    def images(self) -> tuple[BlockVector, ...]:
        order, tiers = self._tiers
        blocks: list[dict[int, np.ndarray]] = [{} for _ in order]
        for tier, run, x in tiers:
            for t, row in zip(order[run], x):
                blocks[t][tier] = row
        return tuple(map(BlockVector, blocks))

    @cached_property
    def image_distances(self) -> np.ndarray:
        return self._distances(1.0, slice(None))


@dataclass(frozen=True)
class CoarseEmbedding:
    """Net rounding composed with the Lipschitz embedding, in input units.

    ``net`` embeds the net members, in ``members`` order; point t's image is
    that of member beta(t), scaled by 1 / ``net.scale``.
    ``image_distances``, the images' pairwise l_p block-sum distances, is
    computed on first read from one fold over the members only, then
    indexed by beta.
    """

    pointset: LpPointSet  # original, un-normalized
    eps: float
    params: LpParams
    members: tuple[int, ...]
    beta: tuple[int, ...]
    net: LpEmbedding
    constants: CoarseConstants

    def _member_rows(self) -> np.ndarray:
        """Each point's row in the net: the position of beta(t) in ``members``."""
        position = np.empty(self.pointset.n_points, dtype=int)
        position[list(self.members)] = np.arange(len(self.members))
        return position[list(self.beta)]

    @cached_property
    def image_distances(self) -> np.ndarray:
        return self.net._distances(1.0 / self.net.scale, self._member_rows())


def embed_set_lp(s: LpPointSet, params: LpParams | None = None) -> LpEmbedding:
    """Normalize a point set and embed every point."""
    params = params if params is not None else LpParams()
    ns, translation, scale = normalize_pointed(s)
    return LpEmbedding(ns, params, translation, scale)


def verify_lp(embedding: LpEmbedding, tolerance: float = 1e-9) -> BoundsReport:
    """Certify d / (20 lambda^2 (1+delta)^2) <= image distance <= 9 d.

    Distances are those of the normalized set the embedding was built on;
    the image distances are the embedding's own ``image_distances``.  The
    lower envelope is floored at 2^-1074, as in ``verify_proper``.
    """
    params = embedding.params
    denom = params.lower_denominator()
    return verify_bounds(
        embedding.pointset.metric_space,
        lambda d: np.maximum(d / denom, 2.0**-1074),
        lambda d: 9.0 * d,
        tolerance=tolerance,
        image_distances=embedding.image_distances,
        constants={
            "p": "inf" if math.isinf(embedding.pointset.p) else embedding.pointset.p,
            "lambda_sim": params.lambda_sim,
            "delta": params.delta,
            "lower_denominator": denom,
            "upper_factor": 9.0,
            "theta_mode": params.iso.mode,
            "normalization_scale": embedding.scale,
        },
    )


def net_round(
    space: FiniteMetricSpace, eps: float, basepoint: int = 0
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy eps/2-net of the whole space plus the rounding map beta.

    The net is seeded at ``basepoint``, the center of an unbounded ball, and
    scanned in index order; beta(t) is the first net member strictly within
    eps/2 of t, so net members are fixed and |d(beta a, beta b) - d(a, b)|
    < eps for every pair.  ``eps`` must be positive and finite.  Returns
    (member indices in admission order, beta as an index per point).

    Members lie at least eps/2 apart, so each rounds to itself and only the
    rows of non-members are searched.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    r = eps / 2.0
    net = greedy_maximal_net(space, (basepoint, math.inf), r)
    members = np.array(net.members)
    beta = np.arange(space.n_points)
    rest = np.ones(space.n_points, dtype=bool)
    rest[members] = False
    # maximality puts a member strictly within r of every point
    beta[rest] = members[np.argmax(space.dist[np.ix_(rest, members)] < r, axis=1)]
    return net.members, tuple(beta.tolist())


def coarse_embed(
    s: LpPointSet, eps: float, params: LpParams | None = None
) -> CoarseEmbedding:
    """Round onto an eps/2-net, embed the net, restate in input units.

    The net embedding is rescaled back by its normalization factor so the
    certified envelope d / C_d - C_a <= image distance <= C_d d + C_a holds
    against the original distances, with C_d = max(9, 20 lambda^2
    (1+delta)^2) and C_a = 9 eps.
    """
    params = params if params is not None else LpParams()
    members, beta = net_round(s.metric_space, eps, s.basepoint)
    sub = LpPointSet(s.p, s.points[list(members)], basepoint=0)
    net = embed_set_lp(sub, params)
    constants = CoarseConstants(
        c_d=max(9.0, params.lower_denominator()),
        c_a=9.0 * eps,
        eps=eps,
    )
    return CoarseEmbedding(s, eps, params, members, beta, net, constants)


def verify_coarse(embedding: CoarseEmbedding, tolerance: float = 0.0) -> BoundsReport:
    """Certify the affine envelope of the rounded embedding, input units.

    The image distances are the embedding's own ``image_distances``.
    """
    c = embedding.constants
    return verify_bounds(
        embedding.pointset.metric_space,
        lambda d: d / c.c_d - c.c_a,
        lambda d: c.c_d * d + c.c_a,
        tolerance=tolerance,
        image_distances=embedding.image_distances,
        constants={
            "p": "inf" if math.isinf(embedding.pointset.p) else embedding.pointset.p,
            "c_d": c.c_d,
            "c_a": c.c_a,
            "eps": c.eps,
            "lambda_sim": embedding.params.lambda_sim,
            "delta": embedding.params.delta,
            "net_size": len(embedding.members),
        },
    )


def max_rounding_deviation(space: FiniteMetricSpace, beta: tuple[int, ...]) -> float:
    """max over pairs of | d(beta a, beta b) - d(a, b) |.

    A pair of points beta fixes deviates by exactly 0, and the deviation is
    symmetric in (a, b), so the rows of the moved points a (beta(a) != a)
    hold the maximum over every pair that can deviate.
    """
    d = space.dist
    b = np.asarray(beta, dtype=int)
    moved = np.flatnonzero(b != np.arange(len(d)))
    if not len(moved):
        return 0.0
    gap = d[np.ix_(b[moved], b)]
    gap -= d[moved]
    return float(np.abs(gap, out=gap).max())


def grid_net(n_dim: int, k: int, size_cap: int = 200_000) -> np.ndarray:
    """Lattice (1/k) Z^n_dim intersected with the sup ball of radius k.

    Coordinates run over {-k, -k + 1/k, ..., k}, so the point count is
    (2 k^2 + 1)^n_dim; rows come out in lexicographic order.
    """
    if n_dim < 1 or k < 1:
        raise ValueError("n_dim and k must be positive integers")
    per_axis = 2 * k * k + 1
    count = per_axis**n_dim
    if count > size_cap:
        raise SizeCapExceeded(f"grid would hold {count} points, cap is {size_cap}")
    axis = [i / k for i in range(-k * k, k * k + 1)]
    return np.array(list(itertools.product(axis, repeat=n_dim)), dtype=float)
