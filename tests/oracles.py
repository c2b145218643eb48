"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with plain Python loops over lists
and ``math`` calls, so it shares no code path with the production
implementations it checks.  The exceptions are kept former library code,
the references for exact-equality checks of its replacements:
:func:`dense_pair_distances` and :func:`dense_lp_distances`, the dense numpy
kernels the library used before its row-chunked one;
:func:`scan_triangle_violation`, the per-row triangle scan that
``validate_metric`` used before its min-plus filter; and
:func:`loop_verify_bounds`, the per-pair loop of ``verify_bounds``.
"""

from __future__ import annotations

import math

import numpy as np

from blockembed.blocks import DimensionMismatch


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

    The formula ``LpPointSet.distance_matrix`` used before it moved onto the
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
