"""Seed-deterministic fixture generators: graphs, clouds, grids, paths, stars."""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .lp_coarse import LpPointSet, SizeCapExceeded, grid_net
from .metric import FiniteMetricSpace, MetricError, validate_metric

__all__ = [
    "DisconnectedGraph",
    "random_graph_metric",
    "random_lp_cloud",
    "path_metric",
    "star_metric",
    "grid_net_cloud",
]

_SIZE_CAP = 4096


class DisconnectedGraph(ValueError):
    pass


def _bfs_distances(n: int, adjacency: list[list[int]], source: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def random_graph_metric(
    n: int,
    edge_prob: float | None = None,
    seed: int = 0,
    max_retries: int = 32,
) -> FiniteMetricSpace:
    """Shortest-path metric of a seeded connected random graph, unit edges.

    Edges are sampled independently; disconnected draws are retried with a
    derived sub-seed up to ``max_retries`` times before failing.  Default
    edge probability sits safely above the connectivity threshold.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > _SIZE_CAP:
        raise SizeCapExceeded(f"{n} vertices, cap is {_SIZE_CAP}")
    if edge_prob is None:
        edge_prob = min(0.9, 1.8 * math.log(n) / n + 0.05)
    if not edge_prob > 0:
        raise DisconnectedGraph(f"edge probability {edge_prob} draws no edge")
    if edge_prob > 1:
        raise ValueError(f"edge probability must lie in (0, 1], got {edge_prob}")
    for attempt in range(max_retries):
        rng = np.random.default_rng([seed, attempt])
        upper = rng.random((n, n)) < edge_prob
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if upper[i, j]:
                    adjacency[i].append(j)
                    adjacency[j].append(i)
        rows = [_bfs_distances(n, adjacency, s) for s in range(n)]
        if any(d < 0 for row in rows for d in row):
            continue
        return validate_metric(np.array(rows, dtype=float))
    raise DisconnectedGraph(f"no connected draw in {max_retries} attempts (seed {seed})")


def random_lp_cloud(
    n: int,
    dim: int,
    p: float = 2.0,
    seed: int = 0,
    box: float = 8.0,
    max_retries: int = 8,
) -> LpPointSet:
    """Seeded uniform points in [0, box]^dim with a validated l_p metric.

    A draw whose metric fails validation is retried with a derived
    sub-seed.  For p in {1, 2, inf} and dim up to 1024 the triangle
    inequality is proved rather than scanned (see ``LpPointSet``), so only a
    duplicate point leads to a retry.  For other p, a larger dim, or l_2
    distances outside [2^-480, 2^480], the scan still runs, and float
    rounding can in principle also produce a hairline triangle violation.
    """
    if n < 2 or dim < 1:
        raise ValueError("need at least two points and one dimension")
    if n > _SIZE_CAP:
        raise SizeCapExceeded(f"{n} points, cap is {_SIZE_CAP}")
    if not 0 < box < math.inf:
        raise ValueError(f"box must be positive and finite, got {box}")
    last: MetricError | None = None
    for attempt in range(max_retries):
        rng = np.random.default_rng([seed, attempt])
        cloud = LpPointSet(p, rng.uniform(0.0, box, size=(n, dim)))
        try:
            cloud.metric_space
        except MetricError as err:
            last = err
            continue
        return cloud
    raise MetricError(f"no valid cloud in {max_retries} attempts (seed {seed}): {last}")


def path_metric(n: int) -> FiniteMetricSpace:
    """Path graph on n vertices with unit edges: d(i, j) = |i - j|."""
    if n < 2:
        raise ValueError("need at least two vertices")
    idx = np.arange(n)
    return validate_metric(np.abs(idx[:, None] - idx[None, :]).astype(float))


def star_metric(n_leaves: int) -> FiniteMetricSpace:
    """Star with unit edges: center at index 0, leaf-to-leaf distance 2."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    n = n_leaves + 1
    d = np.full((n, n), 2.0)
    d[0, :] = 1.0
    d[:, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    return validate_metric(d)


def grid_net_cloud(n_dim: int, k: int, size_cap: int = 200_000) -> LpPointSet:
    """The grid-net lattice as a sup-norm point cloud, basepoint at the origin."""
    pts = grid_net(n_dim, k, size_cap=size_cap)
    origin = int(np.flatnonzero(~np.any(pts, axis=1))[0])
    return LpPointSet(math.inf, pts, basepoint=origin)
