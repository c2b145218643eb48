"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with plain Python loops over lists
and ``math`` calls, so it shares no code path with the production
implementations it checks.  The exceptions are kept former library code,
the references for exact-equality checks of its replacements:
:func:`dense_pair_distances` and :func:`dense_lp_distances`, the dense numpy
kernels the library used before its row-chunked one;
:func:`dense_redo_lp_distances`, the row-chunked kernel in one shot, which
reduces each difference row with the library's ``blocks._norms``;
:func:`pow2_redo_norms`, ``blocks._norms`` when it redid every row by a
power of two, at every p;
:func:`scan_triangle_violation`, the per-row triangle scan that
``validate_metric`` used before its min-plus filter;
:func:`checked_entries`, the entry checks of ``validate_metric`` before they
became one pass each;
:func:`loop_verify_bounds`, the per-pair loop of ``verify_bounds``;
:func:`ball_proper_params`, ``make_proper_params`` as it was when it copied
each shell's whole ball out of the distance matrix, and, with
``every_shell``, when it also walked the shells no point carries;
:func:`searchsorted_buckets`, the binary search ``moduli_profile`` bucketed
every pair by before its lookup table;
:func:`two_sided_separation_envelope`, the lower envelope with both sides
of its max taken for every argument; :func:`bfs_graph_metric`, the
per-source BFS that ``fixtures.random_graph_metric`` ran before its
all-sources one; :func:`render_report`, the per-value recursive
renderer that ``io.dumps_report`` used before it wrote float arrays whole;
and the explicit block-vector image model the library held before every
embedding computed its image distances from its factors: the block algebra
(:func:`unpair_index`, :func:`inner_norm`, :func:`outer_norm`,
:func:`project_block`, :func:`axpy`, :func:`scale_block`), the per-point
l_p image :func:`embed_point_lp`, the images of whole embeddings
(:func:`lp_images`, :func:`coarse_images`, :func:`proper_images`), the
proper map's Frechet coordinates over one net (:func:`frechet_coords`, and
:func:`net_coords`, those of ``embed_point_proper``), and the
grid rescaling x -> Theta(k x)/k (:func:`rescaled_restriction`, with the
sup-distance rounding :func:`psi_round`).
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from blockembed.blocks import BlockIsoModel, BlockVector, DimensionMismatch, _norms, pair_index
from blockembed.fixtures import DisconnectedGraph
from blockembed.lp_coarse import LpParams, NormBelowOne, grid_net
from blockembed.metric import (
    AsymmetricMatrix,
    MetricError,
    NegativeEntry,
    NonzeroDiagonal,
    TooFewPoints,
    ZeroOffDiagonal,
    validate_metric,
)
from blockembed.proper import (
    AnnulusOutOfRange,
    NetHierarchy,
    ProperParams,
    annulus_index,
    embed_point_proper,
    log_growth,
    shell_runs,
)


def brute_inner(values, p):
    vals = [abs(v) for v in values]
    if not vals:
        return 0.0
    if math.isinf(p):
        return max(vals)
    total = 0.0
    for v in vals:
        total += v**p
    return total ** (1.0 / p)


def brute_agg(norms, p):
    if not norms:
        return 0.0
    if math.isinf(p):
        return max(norms)
    total = 0.0
    for v in norms:
        total += v**p
    return total ** (1.0 / p)


def brute_lp_dist(x, y, p):
    return brute_inner([a - b for a, b in zip(x, y)], p)


def brute_block_distance(u, v, inner_p, outer_p):
    """Distance between two BlockVectors via nested python loops."""
    ids = sorted(set(u.blocks) | set(v.blocks))
    norms = []
    for j in ids:
        x = u.blocks.get(j)
        y = v.blocks.get(j)
        xl = list(map(float, x)) if x is not None else [0.0] * len(y)
        yl = list(map(float, y)) if y is not None else [0.0] * len(x)
        norms.append(brute_inner([a - b for a, b in zip(xl, yl)], inner_p))
    return brute_agg(norms, outer_p)


def brute_pair_distances(images, inner_p, outer_p):
    """Full pairwise image distance matrix as nested lists."""
    n = len(images)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = brute_block_distance(images[i], images[j], inner_p, outer_p)
            out[i][j] = out[j][i] = d
    return out


def dense_pair_distances(images, inner_p, outer_p):
    """Pairwise image distances from an n x n x dim difference per block.

    Every block is expanded over all n points (zero rows for non-carriers),
    and blocks are folded into the outer rule in ascending id order.
    """
    n = len(images)
    dims: dict[int, int] = {}
    for v in images:
        for j, x in v.blocks.items():
            d = dims.setdefault(j, len(x))
            if d != len(x):
                raise DimensionMismatch(j, d, len(x))

    out = np.zeros((n, n))
    acc = None if math.isinf(outer_p) else np.zeros((n, n))
    for j in sorted(dims):
        x = np.zeros((n, dims[j]))
        for i, v in enumerate(images):
            blk = v.blocks.get(j)
            if blk is not None:
                x[i] = blk
        diff = np.abs(x[:, None, :] - x[None, :, :])
        if math.isinf(inner_p):
            dj = diff.max(axis=-1)
        elif inner_p == 1:
            dj = diff.sum(axis=-1)
        elif inner_p == 2:
            dj = np.sqrt((diff * diff).sum(axis=-1))
        else:
            dj = (diff**inner_p).sum(axis=-1) ** (1.0 / inner_p)
        if acc is None:
            np.maximum(out, dj, out=out)
        elif outer_p == 1:
            acc += dj
        else:
            acc += dj**outer_p
    if acc is not None:
        out = acc if outer_p == 1 else acc ** (1.0 / outer_p)
    np.fill_diagonal(out, 0.0)
    return out


def brute_triangle_violation(matrix, tol=0.0):
    """First (i, j, k) with d(i,j) > d(i,k) + d(k,j) + tol, or None."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if matrix[i][j] > matrix[i][k] + matrix[k][j] + tol:
                    return (i, j, k)
    return None


def scan_triangle_violation(a, tol):
    """First (i, j, k, d(i,j), d(i,k) + d(k,j)) with d(i,j) - d(i,k) - d(k,j) > tol.

    The former per-row scan of ``validate_metric``, verbatim but for
    returning the reported values (None when there is no violation) instead
    of raising.  ``a`` must be an exactly symmetric float array.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    for i in range(n):
        excess = a[i][:, None] - a[i][None, :] - a
        excess[i, :] = -np.inf
        excess[:, i] = -np.inf
        np.fill_diagonal(excess, -np.inf)
        bad = np.argwhere(excess > tol)
        if bad.size:
            j, k = map(int, bad[0])
            return (i, j, k, float(a[i, j]), float(a[i, k] + a[k, j]))
    return None



def exact_triangle_defect(matrix):
    """max d(i,j) - d(i,k) - d(k,j) over all triples of indices, repeats
    included, in exact rational arithmetic (0 for an empty matrix)."""
    f = [[Fraction(float(x)) for x in row] for row in matrix]
    n = len(f)
    return max(
        (f[i][j] - f[i][k] - f[k][j] for i in range(n) for j in range(n) for k in range(n)),
        default=Fraction(0),
    )


def checked_entries(matrix):
    """The former ``metric._checked_entries``, verbatim: the matrix as a new
    float array after every entry check of ``validate_metric``."""
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


def two_sided_separation_envelope(t):
    """The former ``proper.separation_envelope``, verbatim: it takes both
    log_growth(t) and log_growth(t / 128) for every t."""
    out = t / (24.0 * np.maximum(log_growth(t), log_growth(t / 128.0)))
    return out if isinstance(t, np.ndarray) else float(out)


def loop_verify_bounds(domain, lower_envelope, upper_envelope, image_distances, tolerance):
    """(summary, passed) of the former per-pair loop of ``verify_bounds``, with
    its rule that a zero image distance fails under a positive lower envelope."""
    n = domain.n_points
    m = np.asarray(image_distances, dtype=float)
    n_pairs = n_failed = 0
    worst_lo = math.inf
    worst_hi = math.inf
    any_zero = False
    max_exp = 0.0
    max_inv = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = float(domain.dist[i, j])
            v = float(m[i, j])
            lo = float(lower_envelope(d))
            hi = float(upper_envelope(d))
            slack_lo = v - lo
            slack_hi = hi - v
            ok = slack_lo >= -tolerance and slack_hi >= -tolerance
            if v == 0 and lo > 0:  # identical images of distinct points
                ok = False
            n_pairs += 1
            n_failed += not ok
            worst_lo = min(worst_lo, slack_lo)
            worst_hi = min(worst_hi, slack_hi)
            if v == 0:
                any_zero = True
            else:
                max_inv = max(max_inv, d / v)
            max_exp = max(max_exp, v / d)

    emp = math.inf if any_zero else (max_exp * max_inv if n_pairs else 1.0)
    summary = {
        "pairs_total": n_pairs,
        "pairs_passed": n_pairs - n_failed,
        "pairs_failed": n_failed,
        "worst_lower_slack": worst_lo if n_pairs else 0.0,
        "worst_upper_slack": worst_hi if n_pairs else 0.0,
        "empirical_distortion": emp,
        "tolerance": float(tolerance),
    }
    return summary, n_failed == 0


def brute_net_check(matrix, members, center, ball_radius, radius, seed):
    """(seeded, separated, maximal) flags for a claimed net."""
    n = len(matrix)
    seeded = members[0] == seed
    separated = True
    for a in members:
        for b in members:
            if a != b and matrix[a][b] < radius:
                separated = False
    maximal = True
    for i in range(n):
        if matrix[i][center] > ball_radius:
            continue
        if not any(matrix[i][m] < radius for m in members):
            maximal = False
    return seeded, separated, maximal


def ball_proper_params(pspace, iso=None, k_slack=4, every_shell=False):
    """``proper.make_proper_params`` reading dmin(B_n) from a copy of each
    carrier tier's whole ball: the same values, errors and messages on every
    space.  With ``every_shell``, the walk it made before it skipped the
    shells no point carries: every shell from the first carrier tier to the
    last, whose offsets all count towards ``c_trunc``; ``k_max`` still keeps
    the carrier tiers only.  The two walks agree."""
    space = pspace.space
    if space.n_points < 2:
        raise TooFewPoints("need at least two points to embed")
    norms = pspace.norms()
    layout = shell_runs(norms)
    tiers = [run[0] for run in layout[1]]
    if tiers[-1] >= 1022:
        raise AnnulusOutOfRange(f"shell {tiers[-1]} lies past the last shell with a net radius")
    k_max, used = {}, set()
    for n in range(tiers[0], tiers[-1] + 1) if every_shell else tiers:
        ball = np.flatnonzero(norms <= math.ldexp(1.0, n + 1))
        sub = space.dist[np.ix_(ball, ball)]
        dmin = float(sub[sub > 0].min())
        cap = max(1, math.ceil(n + 3 - math.log2(dmin))) + k_slack
        if n in tiers:
            k_max[n] = cap
        used.update(n - k for k in range(1, cap + 1))
    c_trunc = sum(1.0 / (m * m + 1.0) for m in sorted(used))
    iso = iso if iso is not None else BlockIsoModel.exact()
    return ProperParams(k_max, iso, k_slack, c_trunc, layout)


def brute_greedy_net(matrix, center, ball_radius, radius, seed):
    """(members, beta) of the greedy net by its definition.

    Members are the seed, then every ball point in index order at distance
    >= radius from each member admitted before it.  beta[i] is the first
    member, in admission order, strictly within radius of point i (None
    when there is none, which only happens outside the ball).
    """
    n = len(matrix)
    members = [seed]
    for i in range(n):
        if i == seed or matrix[i][center] > ball_radius:
            continue
        if all(matrix[i][m] >= radius for m in members):
            members.append(i)
    beta = []
    for i in range(n):
        hit = None
        for m in members:
            if matrix[i][m] < radius:
                hit = m
                break
        beta.append(hit)
    return members, beta


def shortest_path_metric(weights):
    """Shortest-path metric of the complete graph with edge (i, j) weighing
    weights[min(i, j)][max(i, j)], by Floyd-Warshall over nested lists."""
    n = len(weights)
    d = [[0 if i == j else weights[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def dense_lp_distances(points, p):
    """Pairwise l_p distances from one n x n x dim difference array.

    The formula of a cloud's distance matrix before it moved onto the
    row-chunked kernel; kept as the bit-identity reference for that kernel.
    """
    diff = np.abs(points[:, None, :] - points[None, :, :])
    if math.isinf(p):
        d = diff.max(axis=-1)
    elif p == 1:
        d = diff.sum(axis=-1)
    elif p == 2:
        d = np.sqrt((diff * diff).sum(axis=-1))
    else:
        d = (diff**p).sum(axis=-1) ** (1.0 / p)
    np.fill_diagonal(d, 0.0)
    return d


def dense_redo_lp_distances(points, p):
    """Pairwise l_p distances as ``blocks._norms`` of one n x n x dim array of
    absolute differences, overflow and underflow redo included.

    What ``lp_distance_matrix`` computed for every dim before its
    coordinate-plane path; kept as the bit-identity reference for that path.
    """
    with np.errstate(over="ignore"):
        return _norms(np.abs(points[:, None, :] - points[None, :, :]), p)


def pow2_redo_norms(diff, p):
    """``blocks._norms`` as it was before it took the largest entry itself
    past p = 1022: a row whose powers may have left the normal range is
    redone divided by the power of two that puts its largest entry in
    [0.5, 1), at every p.  Kept as the bit-identity reference for p <= 1022.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isinf(p):
            return diff.max(axis=-1)
        if p == 1:
            return diff.sum(axis=-1)
        powers = np.square if p == 2 else (lambda x: np.power(x, p))
        root = np.sqrt if p == 2 else (lambda x: x ** (1.0 / p))
        out = root(powers(diff).sum(axis=-1))
        redo = ~(out >= (2.0**-480) ** (2.0 / p)) | np.isinf(out)
        if redo.any():
            rows = diff[redo]
            e = np.frexp(rows.max(axis=-1))[1]
            rows = np.ldexp(rows, -e[:, None])
            out[redo] = np.ldexp(root(powers(rows).sum(axis=-1)), e)
    return out


def brute_moduli(dmat, imat, thresholds):
    """(compression, expansion) lists over distinct pairs, non-strict."""
    n = len(dmat)
    pairs = [(dmat[i][j], imat[i][j]) for i in range(n) for j in range(i + 1, n)]
    compression = []
    expansion = []
    for t in thresholds:
        above = [img for d, img in pairs if d >= t]
        compression.append(min(above) if above else math.inf)
        below = [img for d, img in pairs if d <= t]
        expansion.append(max(below) if below else 0.0)
    return compression, expansion


def searchsorted_buckets(grid, d):
    """The counts #(grid <= d) and #(grid < d) of each distance d, for a
    sorted grid of distinct values ending in inf: ``moduli_profile``'s
    former bucketing, verbatim."""
    k = np.searchsorted(grid, d, "right")
    return k, k - (grid[k - 1] == d)  # grid[-1] = inf > d at k = 0


def brute_distortion(dmat, imat):
    n = len(dmat)
    expand = 0.0
    invert = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if imat[i][j] == 0.0:
                return math.inf
            expand = max(expand, imat[i][j] / dmat[i][j])
            invert = max(invert, dmat[i][j] / imat[i][j])
    return expand * invert


def brute_worst_slacks(dmat, imat, lower, upper):
    """(worst lower slack, worst upper slack) over distinct pairs."""
    n = len(dmat)
    lo = math.inf
    hi = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            lo = min(lo, imat[i][j] - lower(dmat[i][j]))
            hi = min(hi, upper(dmat[i][j]) - imat[i][j])
    return lo, hi


def weight_series_partial(terms):
    """sum_{m in Z} 1/(m^2+1) summed to |m| <= terms, plus an integral tail bracket.

    The tail sum over m > M is bracketed by integrals of 1/(x^2+1); the
    midpoint of the bracket is accurate to its half-width, well under 1e-10
    for a million terms.
    """
    partial = 1.0
    acc = 0.0
    for m in range(terms, 0, -1):  # ascending magnitude keeps rounding tame
        acc += 1.0 / (m * m + 1.0)
    tail_hi = math.pi / 2 - math.atan(terms)
    tail_lo = math.pi / 2 - math.atan(terms + 1)
    tail = (tail_hi + tail_lo) / 2.0
    return partial + 2.0 * (acc + tail), (tail_hi - tail_lo) / 2.0


def bfs_graph_metric(n, edge_prob=None, seed=0):
    """``fixtures.random_graph_metric`` with one queue BFS per source over
    adjacency lists: the same draws, retries and validation."""
    if edge_prob is None:
        edge_prob = min(0.9, 1.8 * math.log(n) / n + 0.05)
    for attempt in range(32):
        rng = np.random.default_rng([seed, attempt])
        upper = rng.random((n, n)) < edge_prob
        adjacency = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if upper[i, j]:
                    adjacency[i].append(j)
                    adjacency[j].append(i)
        rows = []
        for source in range(n):
            dist = [-1] * n
            dist[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v in adjacency[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            rows.append(dist)
        if any(d < 0 for row in rows for d in row):
            continue
        return validate_metric(np.array(rows, dtype=float))
    raise DisconnectedGraph(f"no connected draw in 32 attempts (seed {seed})")


def render_report(obj, indent=0):
    """Deterministic report JSON, one recursive call per value."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {render_report(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{render_report(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            raise ValueError("NaN is not representable in reports")
        if math.isinf(x):
            return '"unbounded"' if x > 0 else '"-unbounded"'
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


# The explicit block-vector image model.  The embeddings compute their image
# distances from their factors and build no image vectors; the functions
# below build the images one point at a time, as the library once did, so
# that ``pairwise_distance_matrix`` of them is the reference every
# ``image_distances`` is compared against bit for bit.


class DomainMismatch(ValueError):
    pass


def unpair_index(j: int) -> tuple[int, int]:
    """Inverse of :func:`blockembed.blocks.pair_index`."""
    if j < 0:
        raise ValueError(f"block id must be non-negative, got {j}")
    w = (math.isqrt(8 * j + 1) - 1) // 2
    km1 = j - w * (w + 1) // 2
    z = w - km1
    n = z // 2 if z % 2 == 0 else -(z + 1) // 2
    return n, km1 + 1


def inner_norm(x: np.ndarray, p: float) -> float:
    """l_p norm of a plain vector, p in [1, inf]: ``blocks._norms`` of one row."""
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
    return BlockVector({j: x}) if x is not None else BlockVector()


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
    return axpy(a, v, 0.0, BlockVector())


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
        return BlockVector()
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


def lp_images(embedding) -> tuple[BlockVector, ...]:
    """The images of an ``LpEmbedding``, one :func:`embed_point_lp` per point."""
    p, params = embedding.pointset.p, embedding.params
    return tuple(embed_point_lp(row, params, p) for row in embedding.pointset.points)


def coarse_images(embedding) -> tuple[BlockVector, ...]:
    """The images of a ``CoarseEmbedding``: member beta(t)'s image, scaled by
    1 / the net's normalization scale."""
    inv = 1.0 / embedding.net.scale
    member_images = [scale_block(inv, v) for v in lp_images(embedding.net)]
    return tuple(member_images[k] for k in embedding._member_rows())


def proper_images(embedding) -> tuple[BlockVector, ...]:
    """The images of a ``ProperEmbedding``, one ``embed_point_proper`` per point."""
    pspace, params, hierarchy = embedding.pspace, embedding.params, embedding.hierarchy
    return tuple(
        embed_point_proper(t, pspace, params, hierarchy) for t in range(pspace.space.n_points)
    )


def frechet_coords(t: int, net, pspace) -> np.ndarray:
    """Frechet coordinates (d(t,s) - d(b,s))_s of point t over the net's
    members, in member order, b the basepoint: one entry at a time."""
    d, b = pspace.space.dist, pspace.basepoint
    return np.array([d[t, s] - d[b, s] for s in net.members], dtype=float)


def net_coords(t: int, net, pspace) -> np.ndarray:
    """``embed_point_proper``'s coordinates of t over ``net`` alone: the net
    as level 1 of shell 1, whose weight, theta and blend are exactly 1, so
    the block is the coordinates themselves (zeros where it is absent)."""
    no_runs = (np.arange(pspace.space.n_points), [])  # only the image distances read it
    params = ProperParams({1: 1}, BlockIsoModel.exact(), 0, 1.0, no_runs)
    image = embed_point_proper(t, pspace, params, NetHierarchy({(1, 1): net}), annulus=(1, 1.0))
    return image.blocks.get(pair_index(1, 1), np.zeros(len(net)))


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
        return not image.blocks
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
