"""Tests for bitonic machinery and the hypercube baseline sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import hypercube_bitonic_steps
from repro.core.bitonic import (
    bitonic_schedule,
    hypercube_bitonic_sort,
    hypercube_bitonic_sort,
    is_bitonic,
)
from repro.simulator import CostCounters
from repro.topology import Hypercube


class TestIsBitonic:
    def test_monotone_sequences(self):
        assert is_bitonic([1, 2, 3, 4])
        assert is_bitonic([4, 3, 2, 1])
        assert is_bitonic([5, 5, 5])

    def test_rise_then_fall(self):
        assert is_bitonic([1, 4, 6, 3, 2])

    def test_fall_then_rise(self):
        assert is_bitonic([6, 2, 1, 5, 9])

    def test_cyclic_rotation(self):
        assert is_bitonic([3, 4, 5, 1, 2])  # rotation of sorted

    def test_rejects_three_direction_changes(self):
        assert not is_bitonic([1, 3, 2, 4, 1, 5])

    def test_tiny_sequences(self):
        assert is_bitonic([])
        assert is_bitonic([7])
        assert is_bitonic([2, 1])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=32), st.integers(0, 31))
    def test_rotations_of_unimodal_are_bitonic(self, vals, r):
        up = sorted(vals)
        down = sorted(vals, reverse=True)
        uni = up + down  # rises then falls
        rot = uni[r % len(uni):] + uni[: r % len(uni)]
        assert is_bitonic(rot)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=64))
    def test_sorted_always_bitonic(self, vals):
        assert is_bitonic(sorted(vals))


class TestSchedule:
    @pytest.mark.parametrize("q", range(7))
    def test_step_count(self, q):
        assert len(bitonic_schedule(q)) == hypercube_bitonic_steps(q) == q * (q + 1) // 2

    def test_dims_descend_within_stage(self):
        sched = bitonic_schedule(4)
        pos = 0
        for k in range(1, 5):
            dims = [s.dim for s in sched[pos : pos + k]]
            assert dims == list(range(k - 1, -1, -1))
            pos += k

    def test_final_stage_direction_constant(self):
        for descending in (False, True):
            sched = bitonic_schedule(3, descending=descending)
            last = sched[-3:]
            assert all(s.dir_kind == "const" and s.dir_val == int(descending) for s in last)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bitonic_schedule(-1)


class TestHypercubeSort:
    @pytest.mark.parametrize("q", range(1, 7))
    def test_sorts_random_permutation(self, q, rng):
        keys = rng.permutation(1 << q)
        assert list(hypercube_bitonic_sort(keys)) == list(range(1 << q))

    @pytest.mark.parametrize("q", range(1, 6))
    def test_sorts_with_duplicates(self, q, rng):
        keys = rng.integers(0, 4, 1 << q)
        assert list(hypercube_bitonic_sort(keys)) == sorted(keys)

    def test_descending(self, rng):
        keys = rng.integers(0, 100, 32)
        out = hypercube_bitonic_sort(keys, descending=True)
        assert list(out) == sorted(keys, reverse=True)

    def test_engine_matches_vec(self, rng):
        keys = rng.integers(0, 1000, 16)
        out_v = hypercube_bitonic_sort(keys)
        out_e, res = hypercube_bitonic_sort([int(k) for k in keys], backend="engine")
        assert list(out_v) == out_e
        assert res.comm_steps == hypercube_bitonic_steps(4)

    def test_vec_counters(self, rng):
        c = CostCounters(32)
        hypercube_bitonic_sort(rng.integers(0, 10, 32), counters=c)
        assert c.comm_steps == c.comp_steps == hypercube_bitonic_steps(5)
        assert c.messages == hypercube_bitonic_steps(5) * 32
        assert c.max_message_payload == 1  # no relaying in the hypercube

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            hypercube_bitonic_sort(np.arange(5))
        with pytest.raises(ValueError):
            hypercube_bitonic_sort([1, 2, 3], backend="engine")
        with pytest.raises(ValueError):
            hypercube_bitonic_sort([1, 2], backend="abacus")

    def test_all_equal_keys(self):
        out = hypercube_bitonic_sort(np.full(16, 7))
        assert list(out) == [7] * 16

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=16, max_size=16))
    def test_property_sorts_anything(self, keys):
        assert list(hypercube_bitonic_sort(np.array(keys))) == sorted(keys)

    def test_object_keys_on_engine(self):
        keys = ["pear", "apple", "fig", "date", "plum", "kiwi", "lime", "yuzu"]
        out, _ = hypercube_bitonic_sort(keys, backend="engine")
        assert out == sorted(keys)
