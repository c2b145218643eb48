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

Grid-net utilities provide the lattice fixtures (1/k) Z^n intersected with
the sup ball of radius k, the rescaling Theta(k x)/k, and the sup-distance
rounding onto the unit-ball grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Mapping

import numpy as np

from .blocks import (
    _L2_REDO_BELOW,
    BlockIsoModel,
    BlockVector,
    _norms,
    inner_norm,
    lp_distance_matrix,
    pairwise_distance_matrix,
    scale_block,
)
from .metric import BoundsReport, FiniteMetricSpace, greedy_maximal_net, verify_bounds
from .proper import annulus_index

__all__ = [
    "NormBelowOne",
    "SizeCapExceeded",
    "DomainMismatch",
    "LpPointSet",
    "LpParams",
    "CoarseConstants",
    "LpEmbedding",
    "CoarseEmbedding",
    "normalize_pointed",
    "embed_point_lp",
    "embed_set_lp",
    "verify_lp",
    "net_round",
    "coarse_embed",
    "verify_coarse",
    "max_rounding_deviation",
    "grid_net",
    "psi_round",
    "rescaled_restriction",
]

_DIAG_TAG = 211  # stream tag for the diagonal map, disjoint from theta draws
# Largest dim at which the triangle inequality of an l_1, l_2 or l_inf cloud
# is proved rather than scanned (see LpPointSet.metric_space).
_PROVED_DIM_CAP = 1024


class NormBelowOne(ValueError):
    pass


class SizeCapExceeded(ValueError):
    pass


class DomainMismatch(ValueError):
    pass


@dataclass
class LpPointSet:
    """Finite subset of l_p^dim with a distinguished basepoint.

    The induced metric must validate; consumers reach it through
    :meth:`metric_space`, which caches the validated distance matrix.  For
    p in {1, 2, inf} and dim up to 1024 (for p = 2, with every positive
    distance in [2^-480, 2^480]) the triangle inequality is proved from
    rounding bounds and only the O(n^2) entry checks run; otherwise the
    matrix goes through :func:`~blockembed.metric.validate_metric`.  Either
    way the outcome, the exception and the matrix are those of
    ``validate_metric``.
    """

    p: float
    points: np.ndarray
    basepoint: int = 0
    labels: tuple[str, ...] | None = None

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
    def distance_matrix(self) -> np.ndarray:
        return lp_distance_matrix(self.points, self.p)

    @cached_property
    def metric_space(self) -> FiniteMetricSpace:
        from .metric import _checked_entries, _labelled, validate_metric

        d = self.distance_matrix
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
        # exactly when the O(n^2) entry checks pass.
        proved = self.dim <= _PROVED_DIM_CAP and (
            self.p == 1
            or math.isinf(self.p)
            or (
                self.p == 2
                and d.max(initial=0.0) <= 2.0**480
                and d.min(initial=np.inf, where=d > 0) >= _L2_REDO_BELOW
            )
        )
        if proved:
            return _labelled(_checked_entries(d), self.labels)
        return validate_metric(d, self.labels)


def normalize_pointed(s: LpPointSet) -> tuple[LpPointSet, np.ndarray, float]:
    """Translate the basepoint to the origin and scale tiny sets up.

    When the smallest positive norm m falls below 1, every point is scaled
    by 1/m (nudged up by ulps if rounding leaves the minimum marginally
    under 1); a norm is, bit for bit, the point's ``distance_matrix`` entry
    against the basepoint.  Returns the normalized set plus the affine
    record (translation, scale) so results can be restated in input units.
    """
    origin = s.points[s.basepoint].copy()
    pts = s.points - origin
    norms = _norms(np.abs(pts), s.p)
    positive = norms > 0
    scale = 1.0
    if positive.any() and norms[positive].min() < 1.0:
        scale = 1.0 / float(norms[positive].min())
        bump = 1.0 + 2.0**-48
        for _ in range(64):
            if _norms(np.abs(pts[positive] * scale), s.p).min() >= 1.0:
                break
            scale *= bump
        else:  # pragma: no cover - a few ulps always suffice
            raise ArithmeticError("normalization failed to reach unit separation")
        pts = pts * scale
    out = LpPointSet(s.p, pts, s.basepoint, s.labels)
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
        if self.c_d <= 0 or self.c_a <= 0:
            raise ValueError("coarse constants must be positive")


@dataclass(frozen=True)
class LpEmbedding:
    """Lipschitz embedding of a normalized l_p point set."""

    pointset: LpPointSet  # normalized
    params: LpParams
    images: tuple[BlockVector, ...]
    translation: np.ndarray
    scale: float


@dataclass(frozen=True)
class CoarseEmbedding:
    """Net rounding composed with the Lipschitz embedding, in input units."""

    pointset: LpPointSet  # original, un-normalized
    eps: float
    params: LpParams
    members: tuple[int, ...]
    beta: tuple[int, ...]
    images: tuple[BlockVector, ...]
    constants: CoarseConstants


def embed_point_lp(
    t: np.ndarray,
    params: LpParams,
    p: float,
    annulus: tuple[int, float] | None = None,
) -> BlockVector:
    """Image of one normalized point: two shell blocks holding blend * theta * R(t).

    The origin maps to the empty vector; any other point must have norm at
    least 1 so both shells are non-negative.  Zero-blend tiers are dropped,
    which makes exactly dyadic norms land on a single block and keeps the
    two shell assignments of a boundary point identical; ``annulus``
    overrides the shell assignment for checking exactly that.
    """
    t = np.asarray(t, dtype=float)
    r = inner_norm(t, p)
    if r == 0:
        return BlockVector.empty()
    if r < 1:
        raise NormBelowOne(f"point norm {r} < 1; normalize the set first")
    n, lam = annulus_index(r) if annulus is None else annulus
    rt = params.diag_map(len(t)) * t
    out: dict[int, np.ndarray] = {}
    for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
        if blend == 0.0:
            continue
        out[tier] = blend * params.iso.factor(tier) * rt
    return BlockVector(out)


def embed_set_lp(s: LpPointSet, params: LpParams | None = None) -> LpEmbedding:
    """Normalize a point set and embed every point."""
    params = params if params is not None else LpParams()
    ns, translation, scale = normalize_pointed(s)
    images = tuple(embed_point_lp(row, params, ns.p) for row in ns.points)
    return LpEmbedding(ns, params, images, translation, scale)


def verify_lp(
    embedding: LpEmbedding,
    tolerance: float = 1e-9,
    *,
    image_distances: np.ndarray | None = None,
) -> BoundsReport:
    """Certify d / (20 lambda^2 (1+delta)^2) <= image distance <= 9 d.

    Distances are those of the normalized set the embedding was built on.
    ``image_distances`` is the images' pairwise distance matrix when the
    caller has already computed it; otherwise it is computed here.
    """
    params = embedding.params
    denom = params.lower_denominator()
    if image_distances is None:
        image_distances = pairwise_distance_matrix(embedding.images, embedding.pointset.p)
    return verify_bounds(
        embedding.pointset.metric_space,
        lambda d: d / denom,
        lambda d: 9.0 * d,
        tolerance=tolerance,
        image_distances=image_distances,
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
    s: LpPointSet | FiniteMetricSpace, eps: float, basepoint: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy eps/2-net of the whole set plus the rounding map beta.

    The net is seeded at ``basepoint`` (by default the cloud's basepoint,
    or point 0 of a metric space) and scanned in index order; beta(t) is
    the first net member strictly within eps/2 of t, so net members are
    fixed and |d(beta a, beta b) - d(a, b)| < eps for every pair.  Returns
    (member indices in admission order, beta as an index per point).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    space = s.metric_space if isinstance(s, LpPointSet) else s
    if basepoint is None:
        basepoint = s.basepoint if isinstance(s, LpPointSet) else 0
    r = eps / 2.0
    net = greedy_maximal_net(space, (basepoint, math.inf), r, basepoint)
    members = np.array(net.members)
    # maximality puts a member strictly within r of every point
    beta = members[np.argmax(space.dist[:, members] < r, axis=1)]
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
    members, beta = net_round(s, eps)
    sub = LpPointSet(s.p, s.points[list(members)], basepoint=0)
    emb = embed_set_lp(sub, params)
    inv = 1.0 / emb.scale
    member_images = [scale_block(inv, v) for v in emb.images]
    position = {m: idx for idx, m in enumerate(members)}
    images = tuple(member_images[position[b]] for b in beta)
    constants = CoarseConstants(
        c_d=max(9.0, params.lower_denominator()),
        c_a=9.0 * eps,
        eps=eps,
    )
    return CoarseEmbedding(s, eps, params, members, beta, images, constants)


def verify_coarse(
    embedding: CoarseEmbedding,
    tolerance: float = 0.0,
    *,
    image_distances: np.ndarray | None = None,
) -> BoundsReport:
    """Certify the affine envelope of the rounded embedding, input units.

    ``image_distances`` is the images' pairwise distance matrix when the
    caller has already computed it; otherwise it is computed here.
    """
    c = embedding.constants
    if image_distances is None:
        image_distances = pairwise_distance_matrix(embedding.images, embedding.pointset.p)
    return verify_bounds(
        embedding.pointset.metric_space,
        lambda d: d / c.c_d - c.c_a,
        lambda d: c.c_d * d + c.c_a,
        tolerance=tolerance,
        image_distances=image_distances,
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


def max_rounding_deviation(s: LpPointSet | FiniteMetricSpace, beta: tuple[int, ...]) -> float:
    """max over pairs of | d(beta a, beta b) - d(a, b) |."""
    d = s.distance_matrix if isinstance(s, LpPointSet) else s.dist
    b = np.asarray(beta, dtype=int)
    return float(np.abs(d[np.ix_(b, b)] - d).max()) if len(d) else 0.0


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


def psi_round(x: Any, k: int) -> np.ndarray:
    """Round a unit-ball point to the nearest (1/k)-grid point in sup distance.

    Ties break coordinatewise toward -inf; the output stays inside the sup
    unit ball and |x - psi(x)|_inf <= 1/k for any |x|_inf <= 1.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    x = np.asarray(x, dtype=float)
    q = np.ceil(x * k - 0.5)
    q = np.clip(q, -k, k)
    return q / k


def _scale_image(image: Any, a: float) -> Any:
    if isinstance(image, BlockVector):
        return scale_block(a, image)
    return a * np.asarray(image, dtype=float)


def _image_is_zero(image: Any) -> bool:
    if isinstance(image, BlockVector):
        return image.is_zero
    return not np.any(np.asarray(image, dtype=float))


def rescaled_restriction(
    theta: Mapping[tuple[float, ...], Any], k: int
) -> dict[tuple[float, ...], Any]:
    """Rescale a grid-net map: x -> theta(k x) / k on the shrunk grid.

    ``theta`` must be defined on exactly the points of grid_net(n_dim, k)
    (as coordinate tuples) and map the origin to zero.  When theta
    satisfies a coarse envelope with constants (C_d, C_a), the returned map
    satisfies it with (C_d, C_a / k); images may be block vectors or plain
    arrays.
    """
    if not theta:
        raise DomainMismatch("empty mapping")
    n_dim = len(next(iter(theta)))
    expected = grid_net(n_dim, k, size_cap=max(200_000, len(theta)))
    expected_keys = {tuple(row) for row in expected}
    if set(theta.keys()) != expected_keys:
        raise DomainMismatch(
            f"mapping domain is not the (1/{k})-grid of the sup ball of radius {k}"
        )
    origin = (0.0,) * n_dim
    if not _image_is_zero(theta[origin]):
        raise DomainMismatch("mapping must send the origin to zero")
    inv = 1.0 / k
    out: dict[tuple[float, ...], Any] = {}
    for row in expected:
        key = tuple(row)
        out[tuple(c / k for c in key)] = _scale_image(theta[key], inv)
    return out
