"""Tests for the Hamiltonian-ring allreduce."""

import numpy as np
import pytest

from repro.core.ops import ADD, MAX
from repro.routing.ring_allreduce import ring_allreduce_engine, ring_allreduce_steps
from repro.topology import RecursiveDualCube


class TestRingAllreduce:
    @pytest.mark.parametrize("n", [2, 3])
    def test_elementwise_sum(self, n, rng):
        rdc = RecursiveDualCube(n)
        v = rdc.num_nodes
        vecs = rng.integers(0, 100, (v, v))
        results, res = ring_allreduce_engine(rdc, vecs.tolist(), ADD)
        expected = list(vecs.sum(axis=0))
        assert all(r == expected for r in results)
        assert res.comm_steps == ring_allreduce_steps(v) == 2 * (v - 1)

    def test_elementwise_max(self, rng):
        rdc = RecursiveDualCube(2)
        vecs = rng.integers(-50, 50, (8, 8))
        results, _ = ring_allreduce_engine(rdc, vecs.tolist(), MAX)
        assert results[0] == list(vecs.max(axis=0))

    def test_bandwidth_optimality_vs_tree(self, rng):
        """Per-node payload: ring moves 2(V-1) chunks vs the tree's 2nV."""
        n = 3
        rdc = RecursiveDualCube(n)
        v = rdc.num_nodes
        vecs = rng.integers(0, 10, (v, v))
        _, res = ring_allreduce_engine(rdc, vecs.tolist(), ADD)
        per_node_payload = res.counters.payload_items / v
        assert per_node_payload == 2 * (v - 1)
        tree_per_node = 2 * n * v  # full vector every round
        assert per_node_payload < tree_per_node

    def test_latency_worse_than_tree(self):
        """The tradeoff's other side: 2(V-1) steps vs the tree's 2n."""
        for n in (2, 3, 4):
            v = 2 ** (2 * n - 1)
            assert ring_allreduce_steps(v) > 2 * n

    def test_every_hop_is_one_link(self, rng):
        """Dilation-1 embedding: each ring step is one real link."""
        rdc = RecursiveDualCube(2)
        vecs = rng.integers(0, 10, (8, 8))
        # run via run_spmd already validates links at request time; a
        # LinkError-free completion is the witness.
        results, res = ring_allreduce_engine(rdc, vecs.tolist(), ADD)
        assert res.counters.messages == 8 * 2 * 7

    def test_shape_validation(self):
        rdc = RecursiveDualCube(2)
        with pytest.raises(ValueError):
            ring_allreduce_engine(rdc, [[1, 2]] * 8, ADD)
        with pytest.raises(ValueError):
            ring_allreduce_engine(rdc, [[0] * 8] * 7, ADD)
