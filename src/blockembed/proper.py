"""Strong uniform embedding of pointed finite metric spaces.

The construction layers three ingredients:

* a hierarchy of greedy maximal nets, one family per dyadic shell
  B_n = {t : |t| <= 2^(n+1)} with net radii 2^(n+3-k) halving in the level
  k, every net seeded at the basepoint;
* Frechet coordinates t -> (d(t,s) - |s|)_s over each net, mapped into the
  block with id pair_index(n, k) and weighted by 1/((n-k)^2 + 1);
* convex gluing across adjacent shells: a point with 2^n <= |t| <= 2^(n+1)
  receives blend lam = (2^(n+1) - |t|)/2^n on tier n and 1 - lam on tier
  n + 1.

The certified envelopes are ``separation_envelope(d)`` from below and
``9 * C_trunc * d`` from above, where C_trunc sums the weight series over
the shell/level offsets actually used and never exceeds the full series
total WEIGHT_SERIES_SUM = pi * coth(pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .blocks import BlockIsoModel, BlockVector, pair_index
from .metric import (
    BoundsReport,
    Net,
    PointedSpace,
    TooFewPoints,
    greedy_maximal_net,
    verify_bounds,
)
from . import blocks as _blocks

__all__ = [
    "NegativeRadius",
    "PointOutsideBall",
    "AnnulusOutOfRange",
    "NonpositiveArgument",
    "WEIGHT_SERIES_SUM",
    "CODOMAIN_P",
    "ProperParams",
    "NetHierarchy",
    "ProperEmbedding",
    "annulus_index",
    "log_growth",
    "separation_envelope",
    "tier_weight",
    "make_proper_params",
    "build_hierarchy",
    "frechet_coords",
    "embed_point_proper",
    "embed_space_proper",
    "verify_proper",
]


class NegativeRadius(ValueError):
    pass


class PointOutsideBall(ValueError):
    pass


class AnnulusOutOfRange(ValueError):
    pass


class NonpositiveArgument(ValueError):
    pass


#: Total of the tier weight series sum_{m in Z} 1/(m^2 + 1) = pi * coth(pi).
WEIGHT_SERIES_SUM = math.pi / math.tanh(math.pi)

#: Exponent of the codomain: a sup-sum of sup-normed blocks.
CODOMAIN_P = math.inf


def annulus_index(r: float) -> tuple[int, float] | None:
    """Dyadic shell index and blend for a radius r >= 0.

    Returns ``None`` for r = 0 (the basepoint marker).  Otherwise returns
    (n, lam) with 2^n <= r <= 2^(n+1) and lam = (2^(n+1) - r)/2^n in (0, 1];
    an exactly dyadic r = 2^n gets lam = 1 in shell n, and the blend on the
    next shell is then zero, so the choice of side never changes the image.
    """
    if r < 0:
        raise NegativeRadius(f"radius must be non-negative, got {r}")
    if r == 0:
        return None
    m, e = math.frexp(r)  # r = m * 2^e with m in [0.5, 1), exact
    n = e - 1
    lam = (math.ldexp(1.0, n + 1) - r) / math.ldexp(1.0, n)
    return n, lam


def log_growth(t: float) -> float:
    """(log2 t)^2 + 1, the growth profile in the lower envelope denominator."""
    if t <= 0:
        raise NonpositiveArgument(f"argument must be positive, got {t}")
    lg = math.log2(t)
    return lg * lg + 1.0


def separation_envelope(t: float) -> float:
    """Guaranteed lower envelope t / (24 * max(log_growth(t), log_growth(t/128)))."""
    if t <= 0:
        raise NonpositiveArgument(f"argument must be positive, got {t}")
    return t / (24.0 * max(log_growth(t), log_growth(t / 128.0)))


def tier_weight(n: int, k: int) -> float:
    """Weight 1/((n-k)^2 + 1) of level k inside shell n."""
    m = n - k
    return 1.0 / (m * m + 1.0)


@dataclass(frozen=True)
class ProperParams:
    """Construction constants: shell range, level caps, slack model.

    ``k_max[n]`` caps the net levels of shell n at
    max(1, ceil(n + 3 - log2(dmin(B_n)))) + k_slack, which covers every
    level the lower-envelope argument ever consults; extra tail levels only
    shrink the Lipschitz constant.  ``c_trunc`` sums the weight series over
    the offsets n - k realized by the caps.
    """

    n_min: int
    n_max: int
    k_max: Mapping[int, int]
    iso: BlockIsoModel
    k_slack: int
    c_trunc: float

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ValueError("empty shell range")
        if any(v < 1 for v in self.k_max.values()):
            raise ValueError("level caps must be >= 1")
        if not (self.c_trunc <= WEIGHT_SERIES_SUM + 1e-12):
            raise ValueError("truncated weight total exceeds the series total")


@dataclass(frozen=True)
class NetHierarchy:
    """Greedy maximal nets keyed by (shell n, level k), plus ball members."""

    nets: Mapping[tuple[int, int], Net]
    ball_members: Mapping[int, tuple[int, ...]]

    def net(self, n: int, k: int) -> Net:
        return self.nets[(n, k)]


@dataclass(frozen=True)
class ProperEmbedding:
    """A built embedding: domain, constants, net hierarchy, and the images."""

    pspace: PointedSpace
    params: ProperParams
    hierarchy: NetHierarchy
    images: tuple[BlockVector, ...]


def make_proper_params(
    pspace: PointedSpace,
    iso: BlockIsoModel | None = None,
    k_slack: int = 4,
) -> ProperParams:
    """Derive the finite shell/level ranges for a pointed space.

    n_min is the shell of the smallest positive point norm.  n_max is the
    largest shell any point actually touches: shell n for a point with
    blend 1, shell n + 1 otherwise, so tier lookups never leave the range.
    """
    space = pspace.space
    if space.n_points < 2:
        raise TooFewPoints("need at least two points to embed")
    norms = pspace.norms()
    positive = norms[norms > 0]
    n_min = annulus_index(float(positive.min()))[0]
    n_max = n_min
    for r in positive:
        n, lam = annulus_index(float(r))
        n_max = max(n_max, n if lam == 1.0 else n + 1)

    k_max: dict[int, int] = {}
    used: set[int] = set()
    for n in range(n_min, n_max + 1):
        ball = np.flatnonzero(norms <= math.ldexp(1.0, n + 1))
        sub = space.dist[np.ix_(ball, ball)]
        pos = sub[sub > 0]
        # n >= n_min guarantees the ball holds the basepoint plus the
        # closest point, so pos is never empty.
        dmin = float(pos.min())
        cap = max(1, math.ceil(n + 3 - math.log2(dmin))) + k_slack
        k_max[n] = cap
        used.update(n - k for k in range(1, cap + 1))

    c_trunc = sum(1.0 / (m * m + 1.0) for m in sorted(used))
    return ProperParams(
        n_min=n_min,
        n_max=n_max,
        k_max=k_max,
        iso=iso if iso is not None else BlockIsoModel.exact(),
        k_slack=k_slack,
        c_trunc=c_trunc,
    )


def build_hierarchy(pspace: PointedSpace, params: ProperParams) -> NetHierarchy:
    """Greedy maximal nets of every shell ball at every level.

    Shell n uses the closed ball of radius 2^(n+1) around the basepoint and
    net radius 2^(n+3-k) at level k; the basepoint seeds every net, and the
    scan order is the point index order, so the hierarchy is reproducible.
    """
    space = pspace.space
    norms = pspace.norms()
    nets: dict[tuple[int, int], Net] = {}
    members: dict[int, tuple[int, ...]] = {}
    for n in range(params.n_min, params.n_max + 1):
        ball_radius = math.ldexp(1.0, n + 1)
        members[n] = tuple(int(i) for i in np.flatnonzero(norms <= ball_radius))
        for k in range(1, params.k_max[n] + 1):
            net_radius = math.ldexp(1.0, n + 3 - k)
            nets[(n, k)] = greedy_maximal_net(
                space, (pspace.basepoint, ball_radius), net_radius, pspace.basepoint
            )
    return NetHierarchy(nets, members)


def frechet_coords(t: int, net: Net, pspace: PointedSpace) -> np.ndarray:
    """Coordinates (d(t,s) - |s|)_s over the net members, in member order.

    The basepoint maps to the zero vector.  1-Lipschitz into the sup norm
    by the triangle inequality.
    """
    space = pspace.space
    norms = pspace.norms()
    if norms[t] > net.ball_radius:
        raise PointOutsideBall(f"point {t} outside ball of radius {net.ball_radius}")
    members = np.fromiter(net.members, dtype=int, count=len(net.members))
    return space.dist[t, members] - norms[members]


def embed_point_proper(
    t: int,
    pspace: PointedSpace,
    params: ProperParams,
    hierarchy: NetHierarchy,
    annulus: tuple[int, float] | None = None,
) -> BlockVector:
    """Image of one point: weighted Frechet blocks over two adjacent shells.

    Block pair_index(n, k) holds blend * weight(n,k) * theta_j * coords;
    the two tiers never collide because the pairing is injective.  The
    basepoint maps to the empty vector.  ``annulus`` overrides the shell
    assignment (used to check dyadic-boundary consistency); tiers with zero
    blend are skipped before any hierarchy lookup.
    """
    r = float(pspace.norms()[t])
    if annulus is None:
        if r == 0:
            return BlockVector.empty()
        annulus = annulus_index(r)
    n, lam = annulus
    out: dict[int, np.ndarray] = {}
    for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
        if blend == 0.0:
            continue
        if not params.n_min <= tier <= params.n_max:
            raise AnnulusOutOfRange(
                f"point {t} needs shell {tier} outside [{params.n_min}, {params.n_max}]"
            )
        for k in range(1, params.k_max[tier] + 1):
            j = pair_index(tier, k)
            coords = frechet_coords(t, hierarchy.net(tier, k), pspace)
            out[j] = blend * tier_weight(tier, k) * params.iso.factor(j) * coords
    return BlockVector(out)


def embed_space_proper(
    pspace: PointedSpace,
    iso: BlockIsoModel | None = None,
    k_slack: int = 4,
) -> ProperEmbedding:
    """Build parameters, hierarchy, and all point images in one call."""
    params = make_proper_params(pspace, iso=iso, k_slack=k_slack)
    hierarchy = build_hierarchy(pspace, params)
    images = tuple(
        embed_point_proper(t, pspace, params, hierarchy)
        for t in range(pspace.space.n_points)
    )
    return ProperEmbedding(pspace, params, hierarchy, images)


def verify_proper(
    embedding: ProperEmbedding,
    tolerance: float = 1e-9,
    *,
    image_distances: np.ndarray | None = None,
) -> BoundsReport:
    """Certify separation_envelope(d) <= image distance <= 9 * C_trunc * d.

    The upper envelope uses the truncated weight total of the map actually
    built, which is at most the full series total, so the check is at least
    as strict as the nominal 9 * WEIGHT_SERIES_SUM * d envelope.
    ``image_distances`` is the images' pairwise distance matrix when the
    caller has already computed it; otherwise it is computed here.
    """
    params = embedding.params
    upper_factor = 9.0 * params.c_trunc
    if image_distances is None:
        image_distances = _blocks.pairwise_distance_matrix(embedding.images, CODOMAIN_P)
    return verify_bounds(
        embedding.pspace.space,
        separation_envelope,
        lambda d: upper_factor * d,
        tolerance=tolerance,
        image_distances=image_distances,
        constants={
            "weight_series_sum": WEIGHT_SERIES_SUM,
            "c_trunc": params.c_trunc,
            "upper_factor": upper_factor,
            "lower_envelope": "t / (24 * max(log_growth(t), log_growth(t / 128)))",
            "log_base": 2,
            "n_min": params.n_min,
            "n_max": params.n_max,
            "k_slack": params.k_slack,
            "theta_mode": params.iso.mode,
            "theta_interval": [params.iso.theta_lo, params.iso.theta_hi],
        },
    )
