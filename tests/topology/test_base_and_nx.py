"""Tests for the Topology base classes and the networkx adapter."""

import networkx as nx
import numpy as np
import pytest

from repro.simulator.serving import bfs_router
from repro.topology import DualCube, Hypercube, Metacube, to_networkx
from repro.topology.base import Topology


class Broken(Topology):
    """Deliberately asymmetric adjacency for validate() tests."""

    def __init__(self, kind):
        self.kind = kind

    @property
    def num_nodes(self):
        return 4

    def neighbors(self, u):
        self.check_node(u)
        if self.kind == "asymmetric":
            return (1,) if u == 0 else ()
        if self.kind == "self-loop":
            return (u,)
        if self.kind == "repeat":
            return (1, 1) if u == 0 else (0,) if u == 1 else ()
        raise AssertionError


class TestValidate:
    def test_detects_asymmetry(self):
        with pytest.raises(AssertionError, match="asymmetric"):
            Broken("asymmetric").validate()

    def test_detects_self_loop(self):
        with pytest.raises(AssertionError, match="self-loop"):
            Broken("self-loop").validate()

    def test_detects_repeats(self):
        with pytest.raises(AssertionError, match="repeated"):
            Broken("repeat").validate()


class TestNodeChecks:
    def test_check_node_bounds(self):
        cube = Hypercube(2)
        cube.check_node(0)
        cube.check_node(3)
        with pytest.raises(ValueError):
            cube.check_node(4)
        with pytest.raises(ValueError):
            cube.check_node(-1)

    @pytest.mark.parametrize("u", [0.5, 1.0, "1", None])
    def test_check_node_rejects_non_integers(self, u):
        with pytest.raises(TypeError, match="integer"):
            DualCube(2).check_node(u)

    @pytest.mark.parametrize("u", [np.int64(3), np.uint8(7), np.intp(0)])
    def test_check_node_accepts_numpy_integers(self, u):
        DualCube(2).check_node(u)
        with pytest.raises(ValueError, match="out of range"):
            DualCube(2).check_node(u + 8)

    def test_a_float_node_fails_in_check_node(self):
        # It used to surface as an unrelated TypeError from `>>` inside
        # the metacube's adjacency.
        route = bfs_router(Metacube(1, 1))
        with pytest.raises(TypeError, match="integer") as info:
            route(1.5, 3)
        assert info.traceback[-1].name == "check_node"

    def test_edges_yield_each_once_ordered(self):
        cube = Hypercube(3)
        edges = list(cube.edges())
        assert len(edges) == len(set(edges)) == 12
        assert all(u < v for u, v in edges)

    def test_repr_mentions_name_and_size(self):
        assert "D_2" in repr(DualCube(2))
        assert "8" in repr(DualCube(2))


class TestNetworkxAdapter:
    def test_graph_matches_topology(self):
        dc = DualCube(2)
        g = to_networkx(dc)
        assert g.number_of_nodes() == dc.num_nodes
        assert g.number_of_edges() == len(list(dc.edges()))
        for u, v in dc.edges():
            assert g.has_edge(u, v)

    def test_annotation_labels(self):
        g = to_networkx(DualCube(2), annotate=True)
        assert g.nodes[0]["label"] == "000"
        assert g.nodes[5]["label"] == "101"

    def test_d2_is_a_cycle_of_eight(self):
        # Fig. 1's D_2 is (isomorphic to) the 8-cycle.
        g = to_networkx(DualCube(2))
        assert nx.is_isomorphic(g, nx.cycle_graph(8))

    def test_dualcube_presentations_isomorphic_via_nx(self):
        from repro.topology import RecursiveDualCube

        g1 = to_networkx(DualCube(2))
        g2 = to_networkx(RecursiveDualCube(2))
        assert nx.is_isomorphic(g1, g2)
