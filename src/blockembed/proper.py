"""Strong uniform embedding of pointed finite metric spaces.

The construction layers three ingredients:

* a hierarchy of greedy maximal nets, one family per dyadic shell
  B_n = {t : |t| <= 2^(n+1)} that some point carries with a non-zero
  blend, with net radii 2^(n+3-k) halving in the level k, every net
  seeded at the basepoint;
* Frechet coordinates t -> (d(t,s) - |s|)_s over each net, mapped into the
  block with id pair_index(n, k) and weighted by 1/((n-k)^2 + 1);
* convex gluing across adjacent shells: a point with 2^n <= |t| <= 2^(n+1)
  receives blend lam = (2^(n+1) - |t|)/2^n on tier n and 1 - lam on tier
  n + 1.

The certified envelopes are ``separation_envelope(d)`` from below and
``9 * C_trunc * d`` from above, where C_trunc sums the weight series over
the shell/level offsets actually used and never exceeds the full series
total WEIGHT_SERIES_SUM = pi * coth(pi).  Image distances come from one
Frechet matrix per (shell, net) group, over the points sorted by norm, where
a shell's carriers are one run (shell_runs, as for lp_coarse).  A pair's
distance is the max over every block of both points, so a carrier pair's
proved bound on a group (Frechet coordinates are 1-Lipschitz up to the
space's triangle slack) is set against the running max first, and only the
pairs it leaves are computed, exactly; no image vector is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
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

# Groups of at most this many net members skip the screens: their kernel
# costs less than the bounds.
_DENSE_MEMBERS = 8
# K of the screens' rounding margin (see _fold_group).
_SCREEN_K = 1.0 + 2.0**-45


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


def shell_runs(norms: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int, np.ndarray]]]:
    """The shell layout both constructions glue: the points' stable order by
    norm and, per tier ascending, (tier, lo, hi, blend) for its carriers of
    non-zero blend, the norms in (2^(tier-1), 2^(tier+1)): positions lo:hi
    of that order, blends bit for bit :func:`annulus_index`'s.  A norm of
    2^1023 or more raises annulus_index's error for the smallest positive
    norm if that is past, else for the first one past in input order."""
    order = np.argsort(norms, kind="stable")
    zero = int(np.count_nonzero(norms == 0))
    r = norms[order[zero:]]
    shell = np.frexp(r)[1] - 1
    if len(r) and shell[-1] >= 1023:
        for x in (r[0], *norms.tolist()):
            annulus_index(float(x))
    lam = (np.ldexp(1.0, shell + 1) - r) / np.ldexp(1.0, shell)
    runs = []
    for tier in range(int(shell[0]), int(shell[-1]) + 2) if len(r) else ():
        lo = int(np.searchsorted(r, math.ldexp(1.0, tier - 1), side="right"))
        hi = int(np.searchsorted(shell, tier, side="right"))
        if lo < hi:
            blend = np.where(shell[lo:hi] == tier, lam[lo:hi], 1.0 - lam[lo:hi])
            runs.append((tier, zero + lo, zero + hi, blend))
    return order, runs


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
    # t / 128 moves its log2 by less than 1 unless it rounds to 0.  Rounding
    # moves neither side by a whole unit, so only 8 < t < 32 takes both
    # sides.  For t <= 2^-1068, t / 128 rounds to 0 and 2^-1074 stands in:
    # g is then above 2^20 either way, so t / (24 g) rounds to 0 as the
    # exact envelope does.  A t <= 0 is passed on as it is, so that the
    # error names it.
    a = np.asarray(t, dtype=float).ravel()
    g = log_growth(np.where((a >= 32.0) | (a <= 0.0), a, np.maximum(a / 128.0, 2.0**-1074)))
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
    """Construction constants: level caps per shell, slack model.

    ``k_max`` maps each carrier tier of :func:`shell_runs`, ascending, to
    its level cap max(1, ceil(n + 3 - log2(dmin(B_n)))) + k_slack, which
    covers every level the lower-envelope argument ever consults; extra tail
    levels only shrink the Lipschitz constant.  A shell no point carries
    has no entry; the first and last keys are the report's n_min and n_max.
    ``c_trunc`` sums the weight series over the offsets n - k realized by
    the caps.  ``layout``, the (order, runs) of :func:`shell_runs` the caps
    were cut from, is kept for the image distances, out of compare and repr.
    """

    k_max: Mapping[int, int]
    iso: BlockIsoModel
    k_slack: int
    c_trunc: float
    layout: tuple[np.ndarray, list] = field(compare=False, repr=False)

    def __post_init__(self):
        if not self.k_max:
            raise ValueError("no shell carries a point")
        if any(v < 1 for v in self.k_max.values()):
            raise ValueError("level caps must be >= 1")
        if not (self.c_trunc <= WEIGHT_SERIES_SUM + 1e-12):
            raise ValueError("truncated weight total exceeds the series total")


@dataclass(frozen=True)
class NetHierarchy:
    """Greedy maximal nets keyed by (shell n, level k)."""

    nets: Mapping[tuple[int, int], Net]


@dataclass(frozen=True)
class ProperEmbedding:
    """A built embedding: domain, constants, net hierarchy.

    ``image_distances`` is computed on first read, from the shell runs the
    params keep, one Frechet matrix per (shell, net) group
    with a proved screen, and no images: bit for bit
    ``pairwise_distance_matrix`` of the :func:`embed_point_proper` images
    under CODOMAIN_P.
    """

    pspace: PointedSpace
    params: ProperParams
    hierarchy: NetHierarchy

    @cached_property
    def image_distances(self) -> np.ndarray:
        return _image_distances(self)


def make_proper_params(
    pspace: PointedSpace,
    iso: BlockIsoModel | None = None,
    k_slack: int = 4,
) -> ProperParams:
    """Derive the level caps of the shells the points carry.

    The shells are the tiers of :func:`shell_runs`, those a point touches
    with a non-zero blend, in ascending order; no image reads any other.
    The balls B_n are nested, so each is a prefix of that norm order, and,
    as the matrix is symmetric, dmin(B_n) reads only the rows B_n adds to
    the last ball read, against B_n.  Every ball holds the basepoint and a
    carrier, so dmin(B_n) is positive and at most 2^(n+1): a cap exceeds an
    earlier shell's by at least the number of shells between them, so each
    shell's offsets n - k hold every earlier shell's, and a shell no point
    carries would add none to ``c_trunc``.
    """
    space = pspace.space
    if space.n_points < 2:
        raise TooFewPoints("need at least two points to embed")
    norms = pspace.norms()
    order, runs = layout = shell_runs(norms)
    if runs[-1][0] >= 1022:  # its level-1 net radius 2^(n + 2) is no double
        raise AnnulusOutOfRange(f"shell {runs[-1][0]} lies past the last shell with a net radius")

    k_max: dict[int, int] = {}
    used: set[int] = set()
    hi, step, dmin = 0, _CHUNK_ELEMS // len(norms) + 1, math.inf
    for n, *_ in runs:
        ball = norms <= math.ldexp(1.0, n + 1)
        lo, hi = hi, int(np.count_nonzero(ball))  # B_n is order[:hi]
        for r0 in range(lo, hi, step):  # the rows new to B_n, against B_n
            blk = space.dist[order[r0 : min(r0 + step, hi)]]
            dmin = min(dmin, float(blk.min(where=(blk > 0) & ball, initial=math.inf)))
        cap = max(1, math.ceil(n + 3 - math.log2(dmin))) + k_slack
        k_max[n] = cap
        used.update(n - k for k in range(1, cap + 1))

    return ProperParams(
        k_max=k_max,
        iso=iso if iso is not None else BlockIsoModel.exact(),
        k_slack=k_slack,
        c_trunc=sum(1.0 / (m * m + 1.0) for m in sorted(used)),
        layout=layout,
    )


def build_hierarchy(pspace: PointedSpace, params: ProperParams) -> NetHierarchy:
    """Greedy maximal nets of each carried shell's ball at every level.

    Shell n (a key of ``params.k_max``) uses the closed ball of radius
    2^(n+1) around the basepoint and net radius 2^(n+3-k) at level k; the
    basepoint seeds every net, and the scan order is the point index order,
    so the hierarchy is reproducible.  Once a level's net holds the whole
    ball, every two ball points lie at least its radius apart, so each
    deeper level's scan would admit the same points in the same order:
    those levels reuse its members unscanned.
    """
    space, norms = pspace.space, pspace.norms()
    nets: dict[tuple[int, int], Net] = {}
    for n, cap in params.k_max.items():
        ball_radius = math.ldexp(1.0, n + 1)
        ball_size = int(np.count_nonzero(norms <= ball_radius))
        net = None
        for k in range(1, cap + 1):
            net_radius = math.ldexp(1.0, n + 3 - k)
            if net is not None and len(net) == ball_size:
                net = Net(net.members, net_radius, pspace.basepoint, ball_radius)
            else:
                net = greedy_maximal_net(space, (pspace.basepoint, ball_radius), net_radius)
            nets[(n, k)] = net
    return NetHierarchy(nets)


def embed_point_proper(
    t: int,
    pspace: PointedSpace,
    params: ProperParams,
    hierarchy: NetHierarchy,
    annulus: tuple[int, float] | None = None,
) -> BlockVector:
    """Image of one point: weighted Frechet blocks over two adjacent shells.

    Block pair_index(n, k) holds blend * weight(n,k) * theta_j times the
    Frechet coordinates (d(t,s) - |s|)_s over the net's members; the two
    tiers never collide because the pairing is injective.  The basepoint
    maps to the empty vector.  ``annulus`` overrides the shell assignment
    (used to check dyadic-boundary consistency; PointOutsideBall if t lies
    outside a net's ball); tiers with zero blend skip the hierarchy.
    """
    norms = pspace.norms()
    r = float(norms[t])
    if annulus is None:
        if r == 0:
            return BlockVector()
        annulus = annulus_index(r)
    n, lam = annulus
    row = pspace.space.dist[t] - norms
    out: dict[int, np.ndarray] = {}
    for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
        if blend == 0.0:
            continue
        if tier not in params.k_max:
            raise AnnulusOutOfRange(f"point {t} needs shell {tier}, which carries no point")
        for k in range(1, params.k_max[tier] + 1):
            j = pair_index(tier, k)
            net = hierarchy.nets[(tier, k)]
            if r > net.ball_radius:
                raise PointOutsideBall(f"point {t} outside ball of radius {net.ball_radius}")
            out[j] = blend * tier_weight(tier, k) * params.iso.factor(j) * row[list(net.members)]
    return BlockVector(out)


def embed_space_proper(
    pspace: PointedSpace,
    iso: BlockIsoModel | None = None,
    k_slack: int = 4,
) -> ProperEmbedding:
    """Build parameters and hierarchy; the image distances are computed on first read."""
    params = make_proper_params(pspace, iso=iso, k_slack=k_slack)
    return ProperEmbedding(pspace, params, build_hierarchy(pspace, params))


def _image_distances(embedding: ProperEmbedding) -> np.ndarray:
    """``pairwise_distance_matrix`` of the :func:`embed_point_proper` images
    under CODOMAIN_P bit for bit, from one Frechet matrix F per (shell, net)
    group and no images, in the order of the params' ``layout``: a shell's
    carriers are the run lo:hi.

    Level j of a group gives carrier t the block a_tj * F_t, a_tj = (b_t *
    w_j) * theta_j as in ``embed_point_proper``; t gets its block norm max_j
    fl(a_tj * |F_t|_inf) against the points outside the run, as rounding is
    monotone, and each level's sup distance against a carrier where a proved
    bound (``_fold_group``), taken only at the pairs still open, can exceed
    the running max: the sup fold is exact in any order, so a value at or
    below the max cannot change it.  Shells run cheapest first, and a shell's
    groups smallest first, so the max is high before the big kernels."""
    pspace, params, nets = embedding.pspace, embedding.params, embedding.hierarchy.nets
    dist, norms = pspace.space.dist, pspace.norms()
    # the guard of _fold_group: no screen when a distance or the slack is past 2^900
    slack = pspace.space.triangle_slack
    slack = slack if max(dist.max(), slack) <= 2.0**900 else None
    order, runs = params.layout
    work = []
    for shell, lo, hi, blend in runs:
        groups: dict[tuple[int, ...], list[int]] = {}
        for k in range(1, params.k_max[shell] + 1):
            groups.setdefault(nets[(shell, k)].members, []).append(k)
        work.append(((hi - lo) ** 2 * sum(map(len, groups)), shell, lo, hi, blend, groups))
    out = np.zeros_like(dist)  # in norm order until the last gather
    for _, shell, lo, hi, blend, groups in sorted(work, key=lambda w: w[:2]):
        idx = order[lo:hi]
        plan = []
        for members, ks in sorted(groups.items(), key=lambda g: len(g[0])):
            w = np.array([tier_weight(shell, k) for k in ks])
            theta = np.array([params.iso.factor(pair_index(shell, k)) for k in ks])
            a, c = blend[:, None] * w * theta, w * theta
            screened = slack is not None and len(members) > _DENSE_MEMBERS
            screened = screened and a.min() >= 2.0**-1000
            plan.append((members, a, c, _SCREEN_K * c.max() if screened else 0.0))
        tops = [k for *_, k in plan]
        # later[i]: the largest fl(K c_j) of a screened group after the i-th
        later = np.maximum.accumulate(tops[::-1])[::-1].tolist()[1:] + [0.0]
        solo, pair = np.zeros(hi - lo), out[lo:hi, lo:hi]
        if max(tops):
            bound = partial(_lipschitz_bound, dist, idx, blend, norms[idx], slack)
            open_ = np.triu(np.ones(pair.shape, dtype=bool), 1)  # pairs a group may still raise
        for i, (members, a, c, k_top) in enumerate(plan):
            f = dist[np.ix_(idx, members)] - norms[list(members)]
            norm = np.abs(f).max(axis=1)
            np.maximum(solo, (a * norm[:, None]).max(axis=1), out=solo)
            if not k_top:  # unscreened: every level, densely
                for j in _levels(a, c):
                    np.maximum(pair, lp_distance_matrix(a[:, j, None] * f, math.inf), out=pair)
            else:
                _fold_group(pair, open_, bound, f, a, c, later[i])
            del f  # before the next group's is built
        # solo against the points outside the run, on both sides of the diagonal
        for side in (out[lo:hi, :lo], out[lo:hi, hi:], out[:lo, lo:hi].T, out[hi:, lo:hi].T):
            np.maximum(side, solo[:, None], out=side)
    at = np.argsort(order)
    out = out[np.ix_(at, at)]
    np.fill_diagonal(out, 0.0)
    return out


def _levels(a: np.ndarray, c: np.ndarray) -> list[int]:
    """A group's levels with distinct blocks, the one of largest c first."""
    top = int(np.argmax(c))
    return [top] + [j for j in range(len(c)) if j != top and not np.array_equal(a[:, j], a[:, top])]


def _lipschitz_bound(dist, idx, blend, radius, slack, t, u) -> np.ndarray:
    """The Lipschitz bound h (see ``_fold_group``) at the pairs (t, u) of
    the carriers ``idx``, blends ``blend`` and norms ``radius``, triangle
    slack ``slack``: the same bits for (u, t)."""
    bt, bu, rt, ru = blend[t], blend[u], radius[t] + slack, radius[u] + slack
    h = dist[idx[t], idx[u]] + slack
    h *= np.minimum(bt, bu)
    # |b_t - b_u| times the reach of the larger blend: the other product is <= 0
    g = bt - bu
    h += np.maximum(g * rt, g * -ru, out=g)
    h += 2.0**-49 * (bt * rt) + 2.0**-49 * (bu * ru)
    return h


def _fold_group(pair, open_, bound, f, a, c, k_next) -> None:
    """Raise ``pair``, the running max over the carrier pairs, to each
    level's sup distance max_s |a_tj F_ts - a_uj F_us| wherever that may
    exceed it: in row blocks of ``open_`` (the pairs t < u a group may still
    raise), each level with a distinct block, largest c_j = fl(w_j theta_j)
    first, on the pairs whose Lipschitz bound ``bound(t, u)`` times fl(K
    c_j) clears the max.  Then, unless k_next is 0 (no later group is
    screened), keeps in ``open_`` only the pairs a level of fl(K c_j) at
    most k_next may still raise."""
    # Write u = 2^-53 and gamma_k = k u / (1 - k u) (Higham ch. 3); C_j = w_j
    # theta_j exactly; over the group's members, G = |b_t F_t - b_u F_u|_inf
    # and R = b_t |F_t|_inf + b_u |F_u|_inf.  A rounding errs by at most u
    # times its exact result, plus 2^-1075 if a product or quotient
    # underflows.  A guard keeps a_tj >= 2^-1000, and a_tj <= 1 always, as
    # b_t <= 1 (a blend of shell_runs), w_j <= 1, theta_j <= 1 (BlockIsoModel
    # takes no theta_hi above 1) and rounding is monotone; so a_tj = b_t C_j
    # (1 + gamma_2-bounded).  Another keeps the distances within 2^900, so
    # |F| <= 2^901 and no difference overflows; each coordinate fl(a_tj
    # fl(F_ts)) is b_t C_j F_ts (1 + gamma_4-bounded) plus at most 2^-1075.
    # So the computed V_j obeys
    #     V_j <= (1 + u) C_j H + 3 * 2^-1075
    # for any H >= G + gamma_4 R, and it cannot raise the max once fl(fl(h
    # fl(c_j K)) + 2^-1040) is at most the max, K = 1 + 2^-45 (_SCREEN_K), for
    # h an evaluation of H from non-negative terms in at most 8 roundings:
    # with the 4 of c_j, c_j K, the product and the sum, each loses a factor
    # of at most 1 - u or 2^-1075, which K (1 - u)^12 >= 1 + u and the
    # 2^-1040 cover.  The Lipschitz bound (_lipschitz_bound) is such an H,
    # as 16u >= gamma_4 / (1 - u)^10: with sigma the triangle slack, |F_ts -
    # F_us| = |d(t,s) - d(u,s)| <= d(t,u) + sigma and |F_ts| <= |t| + sigma.
    # With t the carrier of the larger blend, b_t F_t - b_u F_u = b_u (F_t -
    # F_u) + (b_t - b_u) F_t, so G <= min(b_t, b_u)(d(t,u) + sigma) + |b_t -
    # b_u| (|t| + sigma) in either order, and R <= b_t (|t| + sigma) + b_u
    # (|u| + sigma): h adds the two, the second times 16u.  Its terms stay
    # below 2^903.  The max only grows, so a pair a level of fl(K c_j) <=
    # k_next cannot raise now cannot be raised by it later either.
    levels = _levels(a, c)
    top, k = levels[0], _SCREEN_K * c
    x = a[:, top, None] * f
    rows = max(1, _CHUNK_ELEMS // len(pair))
    for r0 in range(0, len(pair), rows):
        ti, ui = np.nonzero(open_[r0 : r0 + rows])
        ti += r0
        h = bound(ti, ui)
        for j in levels:
            low = pair[ti, ui]
            s = h * k[j] + 2.0**-1040 > low
            if s.any():
                ts, us = ti[s], ui[s]
                v = _sup_pairs(x, ts, us) if j == top else _sup_pairs(f, ts, us, a[:, j])
                pair[ts, us] = pair[us, ts] = np.maximum(low[s], v)
        if k_next:
            open_[ti, ui] = h * k_next + 2.0**-1040 > pair[ti, ui]


def _sup_pairs(
    x: np.ndarray, ti: np.ndarray, ui: np.ndarray, scale: np.ndarray | None = None
) -> np.ndarray:
    """max_s |y_ts - y_us| at each pair (ti, ui), y = x, or y = scale[:, None]
    * x when ``scale`` is given: ``lp_distance_matrix(y, inf)[ti, ui]`` to
    the bit, as the max is exact in any order."""
    step = max(1, _CHUNK_ELEMS // (2 * x.shape[1]))  # two buffers of half a chunk
    out = np.empty(len(ti))
    buf = np.empty((2, min(step, len(ti)), x.shape[1]))
    for lo in range(0, len(ti), step):
        t, u = ti[lo : lo + step], ui[lo : lo + step]
        d, e = buf[0, : len(t)], buf[1, : len(t)]
        np.take(x, t, 0, d)
        np.take(x, u, 0, e)
        if scale is not None:
            d *= scale[t, None]
            e *= scale[u, None]
        np.abs(np.subtract(d, e, out=d), out=d).max(axis=1, out=out[lo : lo + len(t)])
    return out


def verify_proper(embedding: ProperEmbedding, tolerance: float = 1e-9) -> BoundsReport:
    """Certify separation_envelope(d) <= image distance <= 9 * C_trunc * d.

    The upper envelope uses the truncated weight total of the map actually
    built, which is at most the full series total, so the check is at least
    as strict as the nominal 9 * WEIGHT_SERIES_SUM * d envelope.  The image
    distances are the embedding's own ``image_distances``.  The lower
    envelope never rounds below 2^-1074, as the exact one is positive, so
    a zero image distance fails at every scale.
    """
    params = embedding.params
    upper_factor = 9.0 * params.c_trunc
    return verify_bounds(
        embedding.pspace.space,
        lambda d: np.maximum(separation_envelope(d), 2.0**-1074),
        lambda d: upper_factor * d,
        tolerance=tolerance,
        image_distances=embedding.image_distances,
        constants={
            "weight_series_sum": WEIGHT_SERIES_SUM,
            "c_trunc": params.c_trunc,
            "upper_factor": upper_factor,
            "lower_envelope": "t / (24 * max(log_growth(t), log_growth(t / 128)))",
            "log_base": 2,
            "n_min": min(params.k_max),
            "n_max": max(params.k_max),
            "k_slack": params.k_slack,
            "theta_mode": params.iso.mode,
            "theta_interval": [params.iso.theta_lo, params.iso.theta_hi],
        },
    )
