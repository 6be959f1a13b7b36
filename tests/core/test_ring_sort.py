"""Tests for odd-even transposition sort on the Hamiltonian ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring_sort import ring_sort, ring_sort_steps
from repro.simulator import CostCounters
from repro.topology import RecursiveDualCube


class TestRingSort:
    @pytest.mark.parametrize("n", [2, 3])
    def test_vec_sorts_permutations(self, n, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes)
        assert list(ring_sort(rdc, keys)) == list(range(rdc.num_nodes))

    @pytest.mark.parametrize("n", [2, 3])
    def test_engine_matches_vec(self, n, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.integers(0, 50, rdc.num_nodes)
        vec = ring_sort(rdc, keys)
        eng, res = ring_sort(rdc, [int(k) for k in keys], backend="engine")
        assert eng == list(vec) == sorted(keys)
        assert res.comm_steps == ring_sort_steps(rdc.num_nodes)

    def test_duplicates_and_negatives(self, rng):
        rdc = RecursiveDualCube(3)
        keys = rng.integers(-3, 3, 32)
        assert list(ring_sort(rdc, keys)) == sorted(keys)

    def test_already_sorted_and_reversed(self):
        rdc = RecursiveDualCube(2)
        assert list(ring_sort(rdc, np.arange(8))) == list(range(8))
        assert list(ring_sort(rdc, np.arange(7, -1, -1))) == list(range(8))

    def test_step_counts(self, rng):
        rdc = RecursiveDualCube(2)
        c = CostCounters(8)
        ring_sort(rdc, rng.integers(0, 9, 8), counters=c)
        assert c.comm_steps == 8
        assert c.comp_steps == 8

    def test_crossover_against_dual_sort(self):
        """Ring sort wins tiny networks, D_sort wins from n = 4 on."""
        from repro.analysis.complexity import dual_sort_comm_exact

        assert ring_sort_steps(8) < dual_sort_comm_exact(2)  # 8 < 12
        assert ring_sort_steps(32) < dual_sort_comm_exact(3)  # 32 < 35
        assert ring_sort_steps(128) > dual_sort_comm_exact(4)  # 128 > 70
        assert ring_sort_steps(512) > dual_sort_comm_exact(5)

    def test_shape_validation(self):
        rdc = RecursiveDualCube(2)
        with pytest.raises(ValueError):
            ring_sort(rdc, np.arange(7))
        with pytest.raises(ValueError):
            ring_sort(rdc, list(range(9)), backend="engine")

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=8, max_size=8))
    def test_property_sorts_anything(self, keys):
        rdc = RecursiveDualCube(2)
        assert list(ring_sort(rdc, np.array(keys))) == sorted(keys)
