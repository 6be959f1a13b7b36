"""Tests for the hypercube topology."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._bits import hamming
from repro.topology import Hypercube


class TestShape:
    @pytest.mark.parametrize("q", range(6))
    def test_node_count(self, q):
        assert Hypercube(q).num_nodes == 2**q

    @pytest.mark.parametrize("q", range(1, 6))
    def test_degree_is_q(self, q):
        cube = Hypercube(q)
        assert all(cube.degree(u) == q for u in cube.nodes())

    def test_zero_cube_is_single_node(self):
        cube = Hypercube(0)
        assert cube.num_nodes == 1
        assert cube.neighbors(0) == ()

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            Hypercube(-1)

    @pytest.mark.parametrize("q", range(5))
    def test_structural_invariants(self, q):
        Hypercube(q).validate()

    @pytest.mark.parametrize("q", range(1, 6))
    def test_edge_count(self, q):
        cube = Hypercube(q)
        assert len(list(cube.edges())) == q * 2 ** (q - 1)

    def test_name(self):
        assert Hypercube(3).name == "Q_3"


class TestAdjacency:
    def test_neighbors_differ_in_one_bit(self):
        cube = Hypercube(4)
        for u in cube.nodes():
            for v in cube.neighbors(u):
                assert hamming(u, v) == 1

    def test_has_edge_exact(self):
        cube = Hypercube(3)
        for u in cube.nodes():
            for v in cube.nodes():
                assert cube.has_edge(u, v) == (hamming(u, v) == 1)

    def test_every_dimension_is_direct(self):
        cube = Hypercube(4)
        for u in cube.nodes():
            for d in cube.dimensions():
                assert cube.has_dimension_link(u, d)
                assert cube.partner(u, d) == u ^ (1 << d)

    def test_out_of_range_node_rejected(self):
        cube = Hypercube(3)
        with pytest.raises(ValueError):
            cube.neighbors(8)
        with pytest.raises(ValueError):
            cube.neighbors(-1)

    def test_out_of_range_dimension_rejected(self):
        with pytest.raises(ValueError):
            Hypercube(3).partner(0, 3)


class TestDistance:
    @given(st.integers(0, 31), st.integers(0, 31))
    def test_distance_is_hamming(self, u, v):
        assert Hypercube(5).distance(u, v) == hamming(u, v)

    @pytest.mark.parametrize("q", range(6))
    def test_diameter_closed_form(self, q):
        assert Hypercube(q).diameter() == q

    def test_diameter_matches_bfs(self):
        from repro.topology.metrics import diameter

        for q in range(1, 5):
            assert diameter(Hypercube(q)) == q


class TestArithmeticQueries:
    @pytest.mark.parametrize("q", [0, 1, 3, 5])
    def test_all_nodes_array(self, q):
        arr = Hypercube(q).all_nodes_array()
        assert arr.dtype == np.int64
        assert arr.tolist() == list(range(1 << q))
