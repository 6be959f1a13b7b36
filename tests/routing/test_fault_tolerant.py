"""Tests for fault-tolerant routing and connectivity (experiment F1)."""

import networkx as nx
import numpy as np
import pytest

from repro.routing.fault_tolerant import (
    adaptive_route,
    ft_route,
    node_connectivity,
    node_disjoint_paths,
)
from repro.topology import DualCube, FaultSet, FaultyTopology, to_networkx


def _walk_is_valid(ft, walk):
    for a, b in zip(walk, walk[1:]):
        assert ft.has_edge(a, b), (a, b)


class TestConnectivity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_node_connectivity_is_n(self, n):
        assert node_connectivity(DualCube(n)) == n

    def test_node_connectivity_matches_networkx(self, family):
        assert node_connectivity(family) == nx.node_connectivity(
            to_networkx(family))

    def test_disjoint_path_count_matches_networkx(self, family):
        """Pairs from the first and the last node, adjacent ones included
        (the direct edge counts as one path in both)."""
        g = to_networkx(family)
        last = family.num_nodes - 1
        for u in {0, last}:
            for v in family.nodes():
                if v != u:
                    want = len(list(nx.node_disjoint_paths(g, u, v)))
                    assert len(node_disjoint_paths(family, u, v)) == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_n_disjoint_paths_between_arbitrary_pairs(self, n, rng):
        dc = DualCube(n)
        for _ in range(10):
            u, v = rng.choice(dc.num_nodes, 2, replace=False)
            paths = node_disjoint_paths(dc, int(u), int(v))
            assert len(paths) == n
            # Internally disjoint.
            interiors = [set(p[1:-1]) for p in paths]
            for i in range(len(interiors)):
                for j in range(i + 1, len(interiors)):
                    assert not interiors[i] & interiors[j]
            for p in paths:
                assert p[0] == u and p[-1] == v
                for a, b in zip(p, p[1:]):
                    assert dc.has_edge(a, b)

    def test_disjoint_paths_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            node_disjoint_paths(DualCube(2), 3, 3)


class TestFtRoute:
    def test_no_faults_matches_distance(self):
        dc = DualCube(3)
        ft = FaultyTopology(dc, FaultSet())
        for u in range(0, 32, 5):
            for v in range(0, 32, 7):
                p = ft_route(ft, u, v)
                assert len(p) - 1 == dc.distance(u, v)

    @pytest.mark.parametrize("n", [2, 3])
    def test_survives_n_minus_1_node_faults(self, n, rng):
        dc = DualCube(n)
        for trial in range(20):
            trial_rng = np.random.default_rng(100 * n + trial)
            fs = FaultSet.random(dc, n - 1, 0, trial_rng)
            ft = FaultyTopology(dc, fs)
            healthy = ft.healthy_nodes()
            u, v = trial_rng.choice(healthy, 2, replace=False)
            p = ft_route(ft, int(u), int(v))
            assert p is not None, (fs, u, v)
            _walk_is_valid(ft, p)

    def test_detects_disconnection(self):
        dc = DualCube(2)  # the 8-cycle: two node faults can disconnect it
        # Isolate node 1's two neighbors... find a separating pair.
        nbrs = dc.neighbors(0)
        ft = FaultyTopology(dc, FaultSet(nodes=list(nbrs)))
        other = [u for u in ft.healthy_nodes() if u != 0]
        assert all(ft_route(ft, 0, v) is None for v in other)

    def test_trivial_route(self):
        dc = DualCube(2)
        ft = FaultyTopology(dc, FaultSet())
        assert ft_route(ft, 5, 5) == [5]

    def test_faulty_endpoint_rejected(self):
        dc = DualCube(2)
        ft = FaultyTopology(dc, FaultSet(nodes=[0]))
        with pytest.raises(ValueError):
            ft_route(ft, 0, 5)


class TestAdaptiveRoute:
    def test_fault_free_is_near_greedy_shortest(self):
        dc = DualCube(3)
        ft = FaultyTopology(dc, FaultSet())
        for u in range(0, 32, 3):
            for v in range(0, 32, 5):
                walk = adaptive_route(ft, dc, u, v)
                assert walk is not None
                assert walk[0] == u and walk[-1] == v
                _walk_is_valid(ft, walk)

    @pytest.mark.parametrize("n", [2, 3])
    def test_succeeds_under_n_minus_1_faults(self, n):
        dc = DualCube(n)
        successes = trials = 0
        for trial in range(30):
            rng = np.random.default_rng(999 * n + trial)
            fs = FaultSet.random(dc, n - 1, 0, rng)
            ft = FaultyTopology(dc, fs)
            healthy = ft.healthy_nodes()
            u, v = rng.choice(healthy, 2, replace=False)
            if ft_route(ft, int(u), int(v)) is None:
                continue  # genuinely disconnected pair: skip
            trials += 1
            walk = adaptive_route(ft, dc, int(u), int(v))
            if walk is not None:
                assert walk[-1] == v
                _walk_is_valid(ft, walk)
                successes += 1
        # Backtracking DFS guided by distance always finds a path when one
        # exists (it explores the whole component in the worst case).
        assert successes == trials

    def test_faulty_endpoint_rejected(self):
        dc = DualCube(2)
        ft = FaultyTopology(dc, FaultSet(nodes=[2]))
        with pytest.raises(ValueError):
            adaptive_route(ft, dc, 2, 0)

    def test_returns_none_when_disconnected(self):
        dc = DualCube(2)
        nbrs = dc.neighbors(0)
        ft = FaultyTopology(dc, FaultSet(nodes=list(nbrs)))
        target = [u for u in ft.healthy_nodes() if u != 0][0]
        assert adaptive_route(ft, dc, 0, target) is None


class TestBroadcastDepth:
    def test_intact_equals_source_eccentricity(self):
        from repro.routing.fault_tolerant import broadcast_depth
        from repro.topology import FaultSet, FaultyTopology
        from repro.topology.metrics import bfs_distances

        dc = DualCube(3)
        ft = FaultyTopology(dc, FaultSet())
        for src in (0, 13, 31):
            expected = int(bfs_distances(dc, [src]).max())
            assert broadcast_depth(ft, src) == expected

    def test_disconnection_returns_none(self):
        from repro.routing.fault_tolerant import broadcast_depth
        from repro.topology import FaultSet, FaultyTopology

        dc = DualCube(2)
        nbrs = dc.neighbors(0)
        ft = FaultyTopology(dc, FaultSet(nodes=list(nbrs)))
        assert broadcast_depth(ft, 0) is None

    def test_faulty_source_rejected(self):
        from repro.routing.fault_tolerant import broadcast_depth
        from repro.topology import FaultSet, FaultyTopology

        dc = DualCube(2)
        ft = FaultyTopology(dc, FaultSet(nodes=[3]))
        import pytest as _pytest

        with _pytest.raises(ValueError):
            broadcast_depth(ft, 3)

    def test_depth_monotone_under_more_faults(self):
        from repro.routing.fault_tolerant import broadcast_depth
        from repro.topology import FaultSet, FaultyTopology

        dc = DualCube(3)
        base = broadcast_depth(FaultyTopology(dc, FaultSet()), 0)
        worse = broadcast_depth(
            FaultyTopology(dc, FaultSet(nodes=[1, 2])), 0
        )
        assert worse is None or worse >= base
