import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blockembed import fixtures
from blockembed.fixtures import (
    DisconnectedGraph,
    grid_net_cloud,
    path_metric,
    random_graph_metric,
    random_lp_cloud,
    star_metric,
)
from blockembed.io import space_to_payload, write_space
from blockembed.lp_coarse import SizeCapExceeded
from blockembed.metric import validate_metric

import oracles


class TestDeterministicShapes:
    def test_path_distances(self):
        space = path_metric(4)
        assert space.dist[0, 3] == 3.0
        assert space.dist[1, 2] == 1.0

    @pytest.mark.parametrize("n", [2, 3, 33, 2048])
    def test_path_is_the_proved_l1_line(self, n):
        space = path_metric(n)
        idx = np.arange(n)
        assert np.array_equal(space.dist, np.abs(idx[:, None] - idx[None, :]).astype(float))
        assert space.labels == tuple(f"p{i}" for i in range(n))
        if n < 100:  # the oracle is cubic
            assert 0.0 <= oracles.exact_triangle_defect(space.dist) <= space.triangle_slack
            assert space.triangle_slack < validate_metric(space.dist).triangle_slack

    def test_star_leaf_to_leaf(self):
        space = star_metric(3)
        assert space.n_points == 4
        assert space.dist[0, 1] == 1.0
        assert space.dist[1, 2] == 2.0

    def test_grid_cloud_matches_grid_net(self):
        cloud = grid_net_cloud(1, 2)
        assert cloud.n_points == 9
        assert math.isinf(cloud.p)
        assert list(cloud.points[cloud.basepoint]) == [0.0]


class TestRandomGraph:
    def test_connected_unit_shortest_paths(self):
        space = random_graph_metric(24, seed=5)
        d = space.dist
        assert np.all(d[~np.eye(24, dtype=bool)] >= 1.0)
        assert np.array_equal(d, np.round(d))  # hop counts
        assert np.isfinite(d).all()

    def test_seed_deterministic(self):
        a = random_graph_metric(16, seed=9)
        b = random_graph_metric(16, seed=9)
        assert np.array_equal(a.dist, b.dist)

    def test_different_seeds_differ(self):
        a = random_graph_metric(16, seed=1)
        b = random_graph_metric(16, seed=2)
        assert not np.array_equal(a.dist, b.dist)

    def test_disconnected_after_retries(self):
        with pytest.raises(DisconnectedGraph):
            random_graph_metric(12, edge_prob=0.0, seed=3)


@st.composite
def graph_draws(draw):
    """(n, edge_prob, seed): the default probability, a complete graph, or
    one near the connectivity threshold ln(n) / n, where draws retry."""
    n = draw(st.integers(2, 80))
    sparse = st.floats(0.3, 2.0).map(lambda c: min(1.0, c * math.log(n) / n))
    edge_prob = draw(st.one_of(st.none(), st.just(1.0), sparse))
    return n, edge_prob, draw(st.integers(0, 2**32 - 1))


class TestAllSourcesBfs:
    """random_graph_metric against the per-source BFS it replaced."""

    @given(graph_draws())
    @example((50, 0.08, 4))  # connects on the 4th draw
    @example((40, 0.03, 2))  # no connected draw in 32
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit_the_per_source_bfs(self, args):
        try:
            expected = oracles.bfs_graph_metric(*args)
        except DisconnectedGraph as err:
            with pytest.raises(DisconnectedGraph, match=re.escape(str(err))):
                random_graph_metric(*args)
            return
        got = random_graph_metric(*args)
        assert got.dist.dtype == expected.dist.dtype
        assert got.dist.tobytes() == expected.dist.tobytes()
        assert (got.labels, got.triangle_slack) == (expected.labels, expected.triangle_slack)

    @pytest.mark.parametrize("args, draws", [((12, 0.1, 3), 8), ((60, 0.02, 9), 32)])
    def test_same_draws_in_the_same_order(self, monkeypatch, args, draws):
        seen = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: seen.append(s) or default_rng(s))
        for build in (oracles.bfs_graph_metric, random_graph_metric):
            try:
                build(*args)
            except DisconnectedGraph:
                pass
        assert seen == 2 * [[args[2], attempt] for attempt in range(draws)]

    def test_peak_memory_at_most_the_per_source_bfs(self, tmp_path):
        def peak(build, write):
            tracemalloc.start()
            try:
                write(build(600, None, 3), tmp_path / "graph.json")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def write_lists(space, path):  # the payload as nested lists, rendered per value
            payload = space_to_payload(space)
            payload["dist"] = payload["dist"].tolist()
            path.write_text(oracles.render_report(payload) + "\n")

        assert peak(random_graph_metric, write_space) <= peak(oracles.bfs_graph_metric, write_lists)


class TestRandomCloud:
    def test_valid_and_deterministic(self):
        a = random_lp_cloud(20, 3, p=1.0, seed=11)
        b = random_lp_cloud(20, 3, p=1.0, seed=11)
        assert np.array_equal(a.points, b.points)
        a.metric_space  # validated l_1 metric despite tight triangles

    def test_box_bounds(self):
        cloud = random_lp_cloud(15, 2, seed=4, box=2.5)
        assert cloud.points.min() >= 0.0
        assert cloud.points.max() <= 2.5

    def test_size_caps(self, monkeypatch):
        # no numpy in the fixtures module: the cap must fire before any n x n
        # allocation, which would now fail on its np attribute
        monkeypatch.setattr(fixtures, "np", None)
        with pytest.raises(SizeCapExceeded):
            random_lp_cloud(100_000, 2, seed=0)
        with pytest.raises(SizeCapExceeded):
            random_graph_metric(100_000, seed=0)
        with pytest.raises(SizeCapExceeded):
            path_metric(100_000)
        with pytest.raises(SizeCapExceeded):
            star_metric(100_000)
