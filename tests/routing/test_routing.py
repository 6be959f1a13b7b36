"""Tests for dual-cube shortest-path routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._bits import bit, flip_bit
from repro.routing import route, route_length
from repro.routing.dualcube_routing import dimension_order_route
from repro.topology import DualCube
from repro.topology.metrics import bfs_distances


def _fix_field(dc, u, target_bits, lo):
    """Reference walk: flip the differing bits of the width-(n-1) field
    at ``lo`` low to high, one bit test per position."""
    walk = []
    cur = u
    for i in range(dc.cluster_dim):
        if bit(cur >> lo, i) != bit(target_bits, i):
            cur = flip_bit(cur, lo + i)
            walk.append(cur)
    return walk


def _reference_route(dc, u, v):
    """The field-by-field dimension-order walk the router was first
    written as, kept branch for branch.

    ``link_loads``, ``occupancy`` and every serving percentile depend on
    *which* shortest path the router returns, not only on its length, so
    the optimized router is pinned to this walk node for node.
    """
    if u == v:
        return [u]
    m = dc.cluster_dim
    cls_u, cls_v = dc.class_of(u), dc.class_of(v)
    lo_u = 0 if cls_u == 0 else m
    path = [u]
    if cls_u == cls_v and dc.cluster_id(u) == dc.cluster_id(v):
        path.extend(_fix_field(dc, u, v >> lo_u, lo_u))
        return path
    if cls_u != cls_v:
        path.extend(_fix_field(dc, u, v >> lo_u, lo_u))
        cur = dc.cross_partner(path[-1])
        path.append(cur)
        lo_v = 0 if cls_v == 0 else m
        path.extend(_fix_field(dc, cur, v >> lo_v, lo_v))
        return path
    path.extend(_fix_field(dc, u, v >> lo_u, lo_u))
    cur = dc.cross_partner(path[-1])
    path.append(cur)
    lo_mid = 0 if dc.class_of(cur) == 0 else m
    path.extend(_fix_field(dc, cur, v >> lo_mid, lo_mid))
    path.append(dc.cross_partner(path[-1]))
    return path


class TestRouteIsPinned:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair_matches_reference_walk(self, n):
        dc = DualCube(n)
        for u in dc.nodes():
            for v in dc.nodes():
                assert route(dc, u, v) == _reference_route(dc, u, v), (u, v)

    @pytest.mark.parametrize("n", [6, 7])
    def test_seeded_pairs_match_reference_walk(self, n):
        dc = DualCube(n)
        rng = np.random.default_rng(n)
        pairs = rng.integers(0, dc.num_nodes, size=(3000, 2))
        for u, v in pairs.tolist():
            assert route(dc, u, v) == _reference_route(dc, u, v), (u, v)


class TestRouteValidity:
    def test_exhaustive_small(self, dc):
        for u in dc.nodes():
            for v in dc.nodes():
                path = route(dc, u, v)  # route() checks hops + length
                assert path[0] == u and path[-1] == v

    def test_route_is_shortest_vs_bfs(self):
        dc = DualCube(3)
        dist = bfs_distances(dc, list(dc.nodes()))
        for u in dc.nodes():
            for v in dc.nodes():
                assert route_length(dc, u, v) == int(dist[u, v])

    def test_trivial_route(self):
        dc = DualCube(2)
        assert route(dc, 5, 5) == [5]
        assert route_length(dc, 5, 5) == 0

    def test_cross_edge_route(self):
        dc = DualCube(3)
        u = dc.compose(0, 2, 3)
        v = dc.cross_partner(u)
        assert route(dc, u, v) == [u, v]

    def test_intra_cluster_route_stays_in_cluster(self):
        dc = DualCube(3)
        u = dc.compose(0, 2, 0)
        v = dc.compose(0, 2, 3)
        path = route(dc, u, v)
        assert all(dc.cluster_key(w) == dc.cluster_key(u) for w in path)

    def test_same_class_route_uses_exactly_two_cross_edges(self):
        dc = DualCube(3)
        u = dc.compose(0, 0, 0)
        v = dc.compose(0, 3, 2)
        path = route(dc, u, v)
        crossings = sum(
            1
            for a, b in zip(path, path[1:])
            if dc.class_of(a) != dc.class_of(b)
        )
        assert crossings == 2

    def test_different_class_route_uses_one_cross_edge(self):
        dc = DualCube(3)
        u = dc.compose(0, 1, 2)
        v = dc.compose(1, 3, 0)
        path = route(dc, u, v)
        crossings = sum(
            1
            for a, b in zip(path, path[1:])
            if dc.class_of(a) != dc.class_of(b)
        )
        assert crossings == 1

    def test_node_validation(self):
        dc = DualCube(2)
        with pytest.raises(ValueError):
            dimension_order_route(dc, 0, 99)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1))
    def test_random_pairs_n5(self, u, v):
        dc = DualCube(5)
        path = route(dc, u, v)
        assert len(path) - 1 == dc.distance(u, v)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**13 - 1), st.integers(0, 2**13 - 1))
    def test_random_pairs_n7(self, u, v):
        dc = DualCube(7)
        path = route(dc, u, v)
        assert len(path) - 1 == dc.distance(u, v)

    def test_d1_routes(self):
        dc = DualCube(1)
        assert route(dc, 0, 1) == [0, 1]
        assert route(dc, 1, 0) == [1, 0]


class TestRouteShape:
    def test_no_repeated_nodes(self):
        dc = DualCube(4)
        for u, v in [(0, 127), (5, 99), (64, 3), (100, 100)]:
            path = route(dc, u, v)
            assert len(set(path)) == len(path)

    def test_path_within_diameter(self):
        dc = DualCube(4)
        for u in range(0, dc.num_nodes, 13):
            for v in range(0, dc.num_nodes, 17):
                assert route_length(dc, u, v) <= dc.diameter()
