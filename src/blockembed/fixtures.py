"""Seed-deterministic fixture generators: graphs, clouds, grids, paths, stars."""

from __future__ import annotations

import math

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
_GRAPH_DRAWS = 32  # connected-graph attempts of random_graph_metric
_CLOUD_DRAWS = 8  # valid-cloud attempts of random_lp_cloud


class DisconnectedGraph(ValueError):
    pass


def _hop_distances(adj: np.ndarray) -> np.ndarray | None:
    """Hop distances of the graph with symmetric boolean adjacency ``adj``,
    as floats, or None when it is disconnected.

    One level-synchronous BFS runs from every source at once.  Adjacency
    rows are bit-packed into 64-bit words; a source's next frontier is the
    OR of the packed rows of its current frontier's vertices, less what it
    has seen.  A source drops out once it has seen every vertex; one whose
    frontier empties first shows that the graph is disconnected.
    """
    n = len(adj)

    def pack(bits: np.ndarray) -> np.ndarray:
        out = np.zeros((n, -(-n // 64) * 8), np.uint8)
        out[:, : -(-n // 8)] = np.packbits(bits, axis=1)
        return out.view(np.uint64)

    rows = pack(adj)
    seen = pack(adj | np.eye(n, dtype=bool))
    dist = adj.astype(float)
    frontier = [np.flatnonzero(row) for row in adj]
    reached = [len(f) + 1 for f in frontier]
    active = [s for s in range(n) if reached[s] < n]
    level = 1
    while active:
        level += 1
        for s in active:
            step = np.bitwise_or.reduce(rows[frontier[s]], axis=0)
            step &= ~seen[s]
            seen[s] |= step
            frontier[s] = np.flatnonzero(np.unpackbits(step.view(np.uint8), count=n))
            if not len(frontier[s]):
                return None
            dist[s, frontier[s]] = level
            reached[s] += len(frontier[s])
        active = [s for s in active if reached[s] < n]
    return dist


def random_graph_metric(
    n: int,
    edge_prob: float | None = None,
    seed: int = 0,
) -> FiniteMetricSpace:
    """Shortest-path metric of a seeded connected random graph, unit edges.

    Edges are sampled independently; disconnected draws are retried with a
    derived sub-seed, up to 32 draws in all, before failing.  Default edge
    probability sits safely above the connectivity threshold.
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
    for attempt in range(_GRAPH_DRAWS):
        rng = np.random.default_rng([seed, attempt])
        adj = np.triu(rng.random((n, n)) < edge_prob, 1)
        adj |= adj.T
        dist = _hop_distances(adj)
        if dist is not None:
            return validate_metric(dist)
    raise DisconnectedGraph(f"no connected draw in {_GRAPH_DRAWS} attempts (seed {seed})")


def random_lp_cloud(
    n: int,
    dim: int,
    p: float = 2.0,
    seed: int = 0,
    box: float = 8.0,
) -> LpPointSet:
    """Seeded uniform points in [0, box]^dim with a validated l_p metric.

    A draw whose metric fails validation is retried with a derived
    sub-seed, up to 8 draws in all.  For p in {1, 2, inf} and dim up to 1024
    the triangle inequality is proved rather than scanned (see
    ``LpPointSet``), so only a duplicate point leads to a retry.  For other
    p, a larger dim, or l_2 distances outside [2^-480, 2^480], the scan
    still runs, and float rounding can in principle also produce a hairline
    triangle violation.
    """
    if n < 2 or dim < 1:
        raise ValueError("need at least two points and one dimension")
    if n > _SIZE_CAP:
        raise SizeCapExceeded(f"{n} points, cap is {_SIZE_CAP}")
    if not 0 < box < math.inf:
        raise ValueError(f"box must be positive and finite, got {box}")
    last: MetricError | None = None
    for attempt in range(_CLOUD_DRAWS):
        rng = np.random.default_rng([seed, attempt])
        cloud = LpPointSet(p, rng.uniform(0.0, box, size=(n, dim)))
        try:
            cloud.metric_space
        except MetricError as err:
            last = err
            continue
        return cloud
    raise MetricError(f"no valid cloud in {_CLOUD_DRAWS} attempts (seed {seed}): {last}")


def path_metric(n: int) -> FiniteMetricSpace:
    """Path graph on n vertices with unit edges: d(i, j) = |i - j|, the
    metric of the points 0, ..., n - 1 of l_1^1, whose triangle inequality
    is proved (see ``LpPointSet``) rather than scanned."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > _SIZE_CAP:
        raise SizeCapExceeded(f"{n} vertices, cap is {_SIZE_CAP}")
    return LpPointSet(1.0, np.arange(n, dtype=float)[:, None]).metric_space


def star_metric(n_leaves: int) -> FiniteMetricSpace:
    """Star with unit edges: center at index 0, leaf-to-leaf distance 2."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    n = n_leaves + 1
    if n > _SIZE_CAP:
        raise SizeCapExceeded(f"{n} vertices, cap is {_SIZE_CAP}")
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
