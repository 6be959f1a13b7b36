"""Tests for the generic hypercube-algorithm emulation (paper conclusion)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emulation import (
    emulated_cube_prefix,
    emulation_comm_steps,
    run_exchange_algorithm_engine,
)
from repro.core.ops import ADD, CONCAT, MAX
from repro.core.verify import check_prefix
from repro.simulator import CostCounters
from repro.topology import Hypercube, RecursiveDualCube


class TestEmulatedPrefix:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_engine_correct_on_dual_cube(self, n, rng):
        rdc = RecursiveDualCube(n)
        vals = [int(x) for x in rng.integers(0, 100, rdc.num_nodes)]
        (t, s), _ = emulated_cube_prefix(rdc, vals, ADD, backend="engine")
        check_prefix(vals, s, ADD)
        assert all(x == sum(vals) for x in t)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vec_matches_cumsum(self, n, rng):
        rdc = RecursiveDualCube(n)
        vals = rng.integers(0, 100, rdc.num_nodes)
        _, s = emulated_cube_prefix(rdc, vals, ADD)
        assert list(s) == list(np.cumsum(vals))

    def test_non_commutative(self, rng):
        rdc = RecursiveDualCube(2)
        vals = np.empty(8, dtype=object)
        vals[:] = [(int(x),) for x in rng.integers(0, 9, 8)]
        _, s = emulated_cube_prefix(rdc, vals, CONCAT)
        check_prefix(list(vals), s, CONCAT)

    def test_diminished(self, rng):
        rdc = RecursiveDualCube(2)
        vals = rng.integers(0, 50, 8)
        _, s = emulated_cube_prefix(rdc, vals, ADD, inclusive=False)
        assert list(s) == [0] + list(np.cumsum(vals[:-1]))

    def test_on_plain_hypercube_costs_q(self, rng):
        cube = Hypercube(4)
        vals = [int(x) for x in rng.integers(0, 100, 16)]
        (_, s), res = emulated_cube_prefix(cube, vals, ADD, backend="engine")
        check_prefix(vals, s, ADD)
        assert res.comm_steps == 4  # all dimensions direct

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_emulation_cost_is_6n_minus_5(self, n, rng):
        """dim 0 direct + 3 cycles for each of the other 2n-2 dims."""
        rdc = RecursiveDualCube(n)
        vals = [int(x) for x in rng.integers(0, 100, rdc.num_nodes)]
        _, res = emulated_cube_prefix(rdc, vals, ADD, backend="engine")
        assert res.comm_steps == 6 * n - 5
        c = CostCounters(rdc.num_nodes)
        emulated_cube_prefix(rdc, np.array(vals), ADD, counters=c)
        assert c.comm_steps == 6 * n - 5

    def test_cluster_technique_beats_emulation(self):
        """The paper's closing argument: designed inter-cluster
        communication (2n) vs generic emulation (6n-5)."""
        from repro.analysis.complexity import dual_prefix_comm_exact

        for n in range(2, 10):
            assert dual_prefix_comm_exact(n) < 6 * n - 5

    def test_rejects_bad_sizes(self):
        rdc = RecursiveDualCube(2)
        with pytest.raises(ValueError):
            emulated_cube_prefix(rdc, np.arange(7), ADD)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=32, max_size=32))
    def test_property_matches_dual_prefix_result_order(self, vals):
        """Emulated prefix scans in recursive-address order (by definition)."""
        rdc = RecursiveDualCube(3)
        _, s = emulated_cube_prefix(rdc, np.array(vals), ADD)
        assert list(s) == list(np.cumsum(vals))


class TestGenericExecutor:
    def test_custom_allreduce_style_rounds(self, rng):
        """A user-written exchange algorithm: running max over all nodes."""
        rdc = RecursiveDualCube(2)
        vals = [int(x) for x in rng.integers(0, 1000, 8)]
        rounds = [
            (d, lambda st: st, lambda st, got, rank: max(st, got))
            for d in range(3)
        ]
        finals, res = run_exchange_algorithm_engine(rdc, vals, rounds)
        assert finals == [max(vals)] * 8
        assert res.comm_steps == 1 + 3 + 3  # dim 0 direct, dims 1-2 relayed

    def test_executor_validates_length(self):
        rdc = RecursiveDualCube(2)
        with pytest.raises(ValueError):
            run_exchange_algorithm_engine(rdc, [1, 2, 3], [])

    def test_emulation_comm_steps_formula(self):
        rdc = RecursiveDualCube(3)
        assert emulation_comm_steps(rdc, [0]) == 1
        assert emulation_comm_steps(rdc, [1, 2, 3, 4]) == 12
        cube = Hypercube(4)
        assert emulation_comm_steps(cube, range(4)) == 4
