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
total WEIGHT_SERIES_SUM = pi * coth(pi).  Image distances come from one
Frechet matrix per (shell, net) group, with a proved rounding screen and an
exact fallback for the pairs it cannot clear; images are built when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .blocks import _CHUNK_ELEMS, BlockIsoModel, BlockVector, lp_distance_matrix, pair_index
from .metric import (
    BoundsReport,
    Net,
    PointedSpace,
    TooFewPoints,
    greedy_maximal_net,
    verify_bounds,
)

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
    A radius of 2^1023 or more (2^(n+1) is no double) raises AnnulusOutOfRange.
    """
    if r < 0:
        raise NegativeRadius(f"radius must be non-negative, got {r}")
    if r == 0:
        return None
    m, e = math.frexp(r)  # r = m * 2^e with m in [0.5, 1), exact
    n = e - 1
    if n >= 1023:
        raise AnnulusOutOfRange(f"radius {r} lies past the last dyadic shell")
    lam = (math.ldexp(1.0, n + 1) - r) / math.ldexp(1.0, n)
    return n, lam


def log_growth(t: float | np.ndarray) -> float | np.ndarray:
    """(log2 t)^2 + 1, the growth profile in the lower envelope denominator.

    Of a float, or elementwise and bit for bit alike of an array: both take
    ``math.log2`` (np.log2 misses it in the last bit on some CPUs)."""
    a = np.asarray(t, dtype=float)
    if np.any(a <= 0):
        raise NonpositiveArgument(f"argument must be positive, got {a.min()}")
    lg = np.fromiter(map(math.log2, a.ravel().tolist()), float, a.size).reshape(a.shape)
    return lg * lg + 1.0 if isinstance(t, np.ndarray) else float(lg * lg + 1.0)


def separation_envelope(t: float | np.ndarray) -> float | np.ndarray:
    """Guaranteed lower envelope t / (24 * max(log_growth(t), log_growth(t/128))),
    of a float or elementwise of an array, like :func:`log_growth`."""
    # In exact arithmetic log_growth(t) - log_growth(t / 128) = 14 log2 t - 49:
    # at least 21 for t >= 32 and at most -7 for t <= 8, where a subnormal
    # t / 128 moves its log2 by less than 1.  Rounding moves neither side by
    # a whole unit, so only 8 < t < 32 takes both sides.  A t <= 0 is passed
    # on as it is, so that the error names it.
    a = np.asarray(t, dtype=float).ravel()
    g = log_growth(np.where((a >= 32.0) | (a <= 0.0), a, a / 128.0))
    band = (a > 8.0) & (a < 32.0)
    g[band] = np.maximum(g[band], log_growth(a[band]))
    out = t / (24.0 * g.reshape(np.shape(t)))
    return out if isinstance(t, np.ndarray) else float(out)


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
    """Greedy maximal nets keyed by (shell n, level k)."""

    nets: Mapping[tuple[int, int], Net]

    def net(self, n: int, k: int) -> Net:
        return self.nets[(n, k)]


@dataclass(frozen=True)
class ProperEmbedding:
    """A built embedding: domain, constants, net hierarchy.

    ``images`` and ``image_distances`` are each computed on first read.  The
    image distances come from one Frechet matrix per (shell, net) group with
    a proved screen and an exact fallback, without building the images, and
    equal ``pairwise_distance_matrix(images, CODOMAIN_P)`` bit for bit.
    """

    pspace: PointedSpace
    params: ProperParams
    hierarchy: NetHierarchy

    @cached_property
    def images(self) -> tuple[BlockVector, ...]:
        pspace, n = self.pspace, self.pspace.space.n_points
        return tuple(embed_point_proper(t, pspace, self.params, self.hierarchy) for t in range(n))

    @cached_property
    def image_distances(self) -> np.ndarray:
        return _image_distances(self)


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
    if n_max >= 1022:  # its level-1 net radius 2^(n_max + 2) is no double
        raise AnnulusOutOfRange(f"shell {n_max} lies past the last shell with a net radius")

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
    Once a level's net holds the whole ball, every two ball points lie at
    least its radius apart, so each deeper level's scan would admit the
    same points in the same order: those levels reuse its members unscanned.
    """
    space, norms = pspace.space, pspace.norms()
    nets: dict[tuple[int, int], Net] = {}
    for n in range(params.n_min, params.n_max + 1):
        ball_radius = math.ldexp(1.0, n + 1)
        ball_size = int(np.count_nonzero(norms <= ball_radius))
        net = None
        for k in range(1, params.k_max[n] + 1):
            net_radius = math.ldexp(1.0, n + 3 - k)
            if net is not None and len(net) == ball_size:
                net = Net(net.members, net_radius, pspace.basepoint, ball_radius)
            else:
                net = greedy_maximal_net(space, (pspace.basepoint, ball_radius), net_radius)
            nets[(n, k)] = net
    return NetHierarchy(nets)


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


def _tiers(t: int, annulus: tuple[int, float], params: ProperParams):
    """The shells point t touches under ``annulus``, with non-zero blends."""
    n, lam = annulus
    for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
        if blend == 0.0:
            continue
        if not params.n_min <= tier <= params.n_max:
            raise AnnulusOutOfRange(
                f"point {t} needs shell {tier} outside [{params.n_min}, {params.n_max}]"
            )
        yield tier, blend


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
    out: dict[int, np.ndarray] = {}
    for tier, blend in _tiers(t, annulus, params):
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
    """Build parameters and hierarchy; the images are built on first read."""
    params = make_proper_params(pspace, iso=iso, k_slack=k_slack)
    return ProperEmbedding(pspace, params, build_hierarchy(pspace, params))


def _image_distances(embedding: ProperEmbedding) -> np.ndarray:
    """``pairwise_distance_matrix(embedding.images, CODOMAIN_P)`` bit for
    bit, from one Frechet matrix F per (shell, net) group and no images.

    Level j of a group gives carrier t the block a_tj * F_t, a_tj = (b_t *
    w_j) * theta_j as in ``embed_point_proper``.  Against a non-carrier, t
    gets max_j fl(a_tj * |F_t|_inf), its block norm, as rounding is
    monotone; carrier pairs get the kernel for the level j* of largest c_j =
    w_j * theta_j, and each other level where the screen cannot clear it.
    The sup fold is exact in any order; a zero block counts as absent."""
    pspace, params, nets = embedding.pspace, embedding.params, embedding.hierarchy
    dist, norms = pspace.space.dist, pspace.norms()
    shells: dict[int, list[tuple[int, float]]] = {}
    for t in np.flatnonzero(norms).tolist():
        for tier, blend in _tiers(t, annulus_index(float(norms[t])), params):
            shells.setdefault(tier, []).append((t, blend))
    out = np.zeros_like(dist)
    for shell, carried in shells.items():
        idx, blend = map(np.array, zip(*carried))
        groups: dict[tuple[int, ...], list[int]] = {}
        for k in range(1, params.k_max[shell] + 1):
            groups.setdefault(nets.net(shell, k).members, []).append(k)
        solo, pair = np.zeros(len(idx)), np.zeros((len(idx), len(idx)))
        for members, ks in groups.items():
            f = dist[np.ix_(idx, members)] - norms[list(members)]
            w = np.array([tier_weight(shell, k) for k in ks])
            theta = np.array([params.iso.factor(pair_index(shell, k)) for k in ks])
            a, c = blend[:, None] * w * theta, w * theta
            norm = np.abs(f).max(axis=1)
            np.maximum(solo, (a * norm[:, None]).max(axis=1), out=solo)
            top = int(np.argmax(c))
            q = lp_distance_matrix(a[:, top, None] * f, math.inf)  # V*, divided by N below
            np.maximum(pair, q, out=pair)
            # Screen of level j against j*.  With u = 2^-53 and gamma_k =
            # k u / (1 - k u) (Higham ch. 3), a_tj = b_t c_j (1 + eta),
            # |eta| <= gamma_2, and each coordinate fl(a_tj F_ts) is
            # b_t c_j F_ts (1 + gamma_3-bounded), as long as nothing leaves
            # the normal range: b, w, theta <= 1 and the guard keeps a_tj
            # above 2^-1000, a non-zero |a_tj F_ts| above 2^-900 and |F|
            # below 2^900 (a subnormal difference is exact).  With G_s =
            # |b_t F_ts - b_u F_us| <= N_s = b_t |F_ts| + b_u |F_us| and one
            # more rounding for the difference, every computed level value
            # V_j lies within c_j (G +- gamma_4 N), G = max_s G_s and N =
            # b_t |F_t| + b_u |F_u|.
            # From V* = V_j* >= c_j* (G - gamma_4 N), with rho = c_j / c_j*,
            #     V_j <= rho V* + 2 gamma_4 c_j N,
            # so V_j <= V* once (1 - rho) V* >= 2 gamma_4 c_j N.  Per level,
            # s <= 1 - rho, e >= 16u c_j and tau >= max(e / s, 2^-1000) are
            # rounded outward with nextafter.  Per pair, q = fl(V* / fl(fl(b_t
            # |F_t|) + fl(b_u |F_u|))) carries three roundings, all normal:
            # q >= tau gives V* >= N (1 - u)^2 tau / (1 + u) >= 16u (1 - u)^2
            # / (1 + u) c_j N / (1 - rho) >= 2 gamma_4 c_j N / (1 - rho).
            # Pairs with q < tau are computed exactly, with lp_distance_matrix's
            # subtraction; when the guard fails, every level goes through it.
            small = a.min() * np.abs(f).min(where=f != 0, initial=math.inf)
            safe = a.min() >= 2.0**-1000 and small >= 2.0**-900 and norm.max() <= 2.0**900
            if safe:
                bn = blend * norm
                np.divide(q, np.add.outer(bn, bn), out=q)
                up = np.nextafter(c, math.inf)
                rho = np.nextafter(up / np.nextafter(c[top], 0.0), math.inf)
                s = np.maximum(np.nextafter(1.0 - rho, -math.inf), 0.0)
                e = np.nextafter(up * 2.0**-49, math.inf)
                with np.errstate(divide="ignore"):  # s = 0: tau = inf
                    tau = np.maximum(np.nextafter(e / s, math.inf), 2.0**-1000)
            for j in range(len(ks)):
                if np.array_equal(a[:, j], a[:, top]):  # the same block, j* included
                    continue
                if not safe:
                    np.maximum(pair, lp_distance_matrix(a[:, j, None] * f, math.inf), out=pair)
                    continue
                ti, ui = np.nonzero(np.triu(q < tau[j], 1))
                step = max(1, _CHUNK_ELEMS // len(members))
                for lo in range(0, len(ti), step):
                    t, u = ti[lo : lo + step], ui[lo : lo + step]
                    with np.errstate(over="ignore"):  # an overflow stays inf, as in the kernel
                        v = np.abs(a[t, j, None] * f[t] - a[u, j, None] * f[u]).max(axis=1)
                    pair[t, u] = np.maximum(pair[t, u], v)
                pair[ui, ti] = pair[ti, ui]
            del f, q  # before the next group's are built
        # carrier columns: solo against non-carrier rows, pair against carriers
        col = np.maximum(out[:, idx], solo)
        col[idx] = np.maximum(out[np.ix_(idx, idx)], pair)
        out[:, idx] = col
        out[idx] = col.T
    np.fill_diagonal(out, 0.0)
    return out


def verify_proper(embedding: ProperEmbedding, tolerance: float = 1e-9) -> BoundsReport:
    """Certify separation_envelope(d) <= image distance <= 9 * C_trunc * d.

    The upper envelope uses the truncated weight total of the map actually
    built, which is at most the full series total, so the check is at least
    as strict as the nominal 9 * WEIGHT_SERIES_SUM * d envelope.  The image
    distances are the embedding's own ``image_distances``.
    """
    params = embedding.params
    upper_factor = 9.0 * params.c_trunc
    return verify_bounds(
        embedding.pspace.space,
        separation_envelope,
        lambda d: upper_factor * d,
        tolerance=tolerance,
        image_distances=embedding.image_distances,
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
