"""Tests for the metrics engine, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.topology import (
    DualCube,
    Hypercube,
    measure,
    to_networkx,
)
from repro.topology.base import Topology
from repro.topology.metrics import (
    average_distance,
    bfs_distances,
    cost_metric,
    degree_stats,
    diameter,
    edge_count,
)


class _TwoIslands(Topology):
    @property
    def num_nodes(self):
        return 4

    def neighbors(self, u):
        self.check_node(u)
        return (u ^ 1,)


class TestDistances:
    def test_bfs_matches_networkx(self, family):
        dist = bfs_distances(family, list(family.nodes()))
        want = dict(nx.all_pairs_shortest_path_length(to_networkx(family)))
        for src, row in zip(family.nodes(), dist):
            assert row.tolist() == [want[src][v] for v in family.nodes()]

    def test_diameter_matches_networkx(self, family):
        assert diameter(family) == nx.diameter(to_networkx(family))

    @pytest.mark.parametrize("sources, exc", [
        ([-1], ValueError),
        ([8], ValueError),
        ([0.5], TypeError),
        ([0, 2.0], TypeError),
    ])
    def test_bad_sources_rejected(self, sources, exc):
        """Every source is an in-range integer: neither a negative index
        nor a float may stand for some node."""
        with pytest.raises(exc):
            bfs_distances(DualCube(2), sources)

    def test_unreachable_is_inf(self):
        dist = bfs_distances(_TwoIslands(), [0])
        assert dist.tolist() == [[0.0, 1.0, np.inf, np.inf]]

    def test_average_distance_matches_networkx(self):
        topo = DualCube(2)
        got = average_distance(topo)
        assert got == pytest.approx(nx.average_shortest_path_length(to_networkx(topo)))

    def test_disconnected_graph_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            diameter(_TwoIslands())


class TestSummaries:
    def test_degree_stats(self):
        lo, hi, mean = degree_stats(DualCube(3))
        assert lo == hi == 3
        assert mean == 3.0

    def test_edge_count_matches_edges_iter(self):
        dc = DualCube(3)
        assert edge_count(dc) == len(list(dc.edges()))

    def test_cost_metric(self):
        assert cost_metric(3, 6) == 18

    def test_measure_row(self):
        m = measure(DualCube(2))
        assert m.name == "D_2"
        assert m.num_nodes == 8
        assert m.num_edges == 8
        assert m.max_degree == 2
        assert m.diameter == 4
        assert m.cost == 8
        row = m.row()
        assert row[0] == "D_2"
        assert row[-1] == 8

    def test_measure_validates_paper_shape_claims(self):
        # Dual-cube vs same-size hypercube: half the degree, diameter + 1.
        for n in (2, 3):
            md = measure(DualCube(n))
            mq = measure(Hypercube(2 * n - 1))
            assert md.num_nodes == mq.num_nodes
            assert md.max_degree == n
            assert mq.max_degree == 2 * n - 1
            assert md.diameter == mq.diameter + 1


class TestSingleNode:
    def test_one_node_topology_measures_cleanly(self):
        """Regression: the all-pairs sweep divided by n*(n-1) = 0 on a
        1-node topology (ZeroDivisionError); the convention is 0/0.0."""
        h = Hypercube(0)
        assert h.num_nodes == 1
        assert diameter(h) == 0
        assert average_distance(h) == 0.0
        m = measure(h)
        assert m.diameter == 0
        assert m.average_distance == 0.0
        assert m.cost == 0
        assert m.num_edges == 0
