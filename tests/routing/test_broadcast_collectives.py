"""Tests for broadcast and reduction collectives."""

import numpy as np
import pytest

from repro.core.arrangement import dearrange
from repro.core.ops import ADD, CONCAT, MAX
from repro.routing import (
    allreduce,
    broadcast_engine,
    broadcast_steps,
    reduce_engine,
)
from repro.simulator import CostCounters
from repro.topology import DualCube


class TestBroadcast:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_node_receives_from_every_source(self, n):
        dc = DualCube(n)
        sources = list(dc.nodes()) if n <= 2 else [0, 7, 16, 31]
        for src in sources:
            got, res = broadcast_engine(dc, src, ("payload", src))
            assert got == [("payload", src)] * dc.num_nodes
            assert res.comm_steps == broadcast_steps(n) == 2 * n

    def test_broadcast_steps_match_diameter(self):
        for n in (2, 3, 4):
            assert broadcast_steps(n) == DualCube(n).diameter()

    def test_source_validated(self):
        with pytest.raises(ValueError):
            broadcast_engine(DualCube(2), 8, "x")

    def test_message_count_is_nodes_minus_source_plus_recross(self):
        dc = DualCube(2)
        _, res = broadcast_engine(dc, 0, "x")
        # Every node receives at least once; the final cross re-delivers to
        # the source class, so messages = (V-1) + (source cluster size).
        assert res.counters.messages == (dc.num_nodes - 1) + dc.nodes_per_cluster


class TestAllreduce:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sum_everywhere(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(-100, 100, dc.num_nodes)
        tot, res = allreduce(dc, [int(v) for v in vals], ADD, backend="engine")
        assert tot == [int(vals.sum())] * dc.num_nodes
        assert res.comm_steps == 2 * n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vec_matches_engine(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 50, dc.num_nodes)
        tot, _ = allreduce(dc, [int(v) for v in vals], ADD, backend="engine")
        vec = allreduce(dc, vals, ADD)
        assert list(vec) == tot

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64])
    @pytest.mark.parametrize("n", [2, 3])
    def test_engine_matches_vec_on_numpy_dtypes(self, n, dtype):
        # The engine computes on Python scalars: numpy bool ADD would be a
        # logical or, and 8 x uint8 100 would wrap.
        dc = DualCube(n)
        if dtype is np.bool_:
            vals = np.ones(dc.num_nodes, dtype=bool)
        elif dtype is np.uint8:
            vals = np.full(dc.num_nodes, 100, dtype=np.uint8)
        else:
            vals = np.full(dc.num_nodes, 2**40 + 1, dtype=np.int64)
        vec = allreduce(dc, vals, ADD).tolist()
        tot, _ = allreduce(dc, vals, ADD, backend="engine")
        total, _ = reduce_engine(dc, vals, ADD, root=dc.num_nodes - 1)
        assert tot == vec
        assert total == vec[-1]
        assert all(type(t) is int for t in tot)

    def test_max(self, rng):
        dc = DualCube(3)
        vals = rng.integers(-1000, 1000, 32)
        out = allreduce(dc, vals, MAX)
        assert all(out == vals.max())

    def test_non_commutative_fold_order_is_arranged_order(self, dc):
        vals = np.empty(dc.num_nodes, dtype=object)
        vals[:] = [(u,) for u in dc.nodes()]
        expected = CONCAT.reduce(dearrange(dc, vals))
        tot, _ = allreduce(dc, list(vals), CONCAT, backend="engine")
        assert all(t == expected for t in tot)
        vec = allreduce(dc, vals, CONCAT)
        assert all(t == expected for t in vec)

    def test_vec_counters(self, rng):
        dc = DualCube(3)
        c = CostCounters(32)
        allreduce(dc, rng.integers(0, 10, 32), ADD, counters=c)
        assert c.comm_steps == 6

    def test_shape_validation(self):
        dc = DualCube(2)
        with pytest.raises(ValueError):
            allreduce(dc, np.arange(7), ADD)
        with pytest.raises(ValueError):
            allreduce(dc, [1, 2, 3], ADD, backend="engine")


class TestReduce:
    def test_reduce_returns_root_total(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 100, 8)
        total, res = reduce_engine(dc, [int(v) for v in vals], ADD, root=5)
        assert total == int(vals.sum())
        assert res.comm_steps == 4

    def test_root_validated(self):
        with pytest.raises(ValueError):
            reduce_engine(DualCube(2), list(range(8)), ADD, root=8)
