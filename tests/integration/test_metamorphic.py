"""Metamorphic and algebraic invariants across the whole library.

These tests do not check outputs against oracles; they check *relations
between runs* — the style of testing that catches subtle systematic
errors (off-by-one block boundaries, direction flips, mis-scaled
counters) that pointwise oracles can miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ADD,
    DualCube,
    Hypercube,
    MAX,
    RecursiveDualCube,
)
from repro.core.dual_prefix import dual_prefix
from repro.core.dual_sort import dual_sort
from repro.core.large_inputs import large_prefix, large_sort
from repro.simulator import CostCounters


class TestPrefixAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), min_size=32, max_size=32),
        st.lists(st.integers(-100, 100), min_size=32, max_size=32),
    )
    def test_additivity(self, a, b):
        """scan(a + b) == scan(a) + scan(b) for the linear ADD scan."""
        dc = DualCube(3)
        av, bv = np.array(a), np.array(b)
        lhs = dual_prefix(dc, av + bv, ADD)
        rhs = dual_prefix(dc, av, ADD) + dual_prefix(dc, bv, ADD)
        assert list(lhs) == list(rhs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=32, max_size=32), st.integers(-50, 50))
    def test_constant_shift(self, a, c):
        """scan(a + c) == scan(a) + c * (k+1) elementwise."""
        dc = DualCube(3)
        av = np.array(a)
        lhs = dual_prefix(dc, av + c, ADD)
        rhs = dual_prefix(dc, av, ADD) + c * np.arange(1, 33)
        assert list(lhs) == list(rhs)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=32, max_size=32))
    def test_max_scan_monotone_and_dominating(self, a):
        dc = DualCube(3)
        out = dual_prefix(dc, np.array(a), MAX)
        assert all(x <= y for x, y in zip(out, out[1:]))
        assert all(o >= v for o, v in zip(out, a))

    def test_inclusive_minus_diminished_is_input(self, rng):
        dc = DualCube(3)
        vals = rng.integers(-100, 100, 32)
        inc = dual_prefix(dc, vals, ADD)
        dim = dual_prefix(dc, vals, ADD, inclusive=False)
        assert list(inc - dim) == list(vals)


class TestSortAlgebra:
    @settings(max_examples=20, deadline=None)
    @given(st.permutations(list(range(32))))
    def test_permutation_invariance(self, perm):
        """Sorting any permutation of fixed keys gives the same output."""
        rdc = RecursiveDualCube(3)
        out = dual_sort(rdc, np.array(perm))
        assert list(out) == list(range(32))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=32, max_size=32))
    def test_idempotence(self, keys):
        rdc = RecursiveDualCube(3)
        once = dual_sort(rdc, np.array(keys))
        twice = dual_sort(rdc, once)
        assert list(once) == list(twice)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=32, max_size=32))
    def test_ascending_is_reverse_of_descending(self, keys):
        rdc = RecursiveDualCube(3)
        asc = dual_sort(rdc, np.array(keys))
        desc = dual_sort(rdc, np.array(keys), descending=True)
        assert list(asc) == list(desc[::-1])

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(-500, 500), min_size=32, max_size=32), st.integers(1, 100))
    def test_affine_equivariance(self, keys, scale):
        """sort(scale * k + 7) == scale * sort(k) + 7 for scale > 0."""
        rdc = RecursiveDualCube(3)
        kv = np.array(keys)
        lhs = dual_sort(rdc, scale * kv + 7)
        rhs = scale * dual_sort(rdc, kv) + 7
        assert list(lhs) == list(rhs)

    def test_negation_antisymmetry(self, rng):
        """sort(-k) == -reverse(sort(k))."""
        rdc = RecursiveDualCube(3)
        keys = rng.integers(-100, 100, 32)
        lhs = dual_sort(rdc, -keys)
        rhs = -dual_sort(rdc, keys)[::-1]
        assert list(lhs) == list(rhs)


class TestBlockedConsistency:
    @pytest.mark.parametrize("b", [2, 4])
    def test_large_prefix_restriction_to_boundaries(self, b, rng):
        """The blocked prefix agrees with the unblocked one at block ends."""
        dc = DualCube(2)
        vals = rng.integers(0, 100, b * 8)
        big = large_prefix(dc, vals, ADD)
        totals = vals.reshape(8, b).sum(axis=1)
        small = dual_prefix(dc, totals, ADD)
        assert list(big[b - 1 :: b]) == list(small)

    @pytest.mark.parametrize("b", [2, 4])
    def test_large_sort_blocks_are_sorted_slices(self, b, rng):
        rdc = RecursiveDualCube(2)
        keys = rng.integers(0, 1000, b * 8)
        out = large_sort(rdc, keys)
        full = sorted(keys)
        for k in range(8):
            assert list(out[k * b : (k + 1) * b]) == full[k * b : (k + 1) * b]


class TestCostScaling:
    def test_prefix_steps_grow_by_two_per_n(self, rng):
        prev = None
        for n in (1, 2, 3, 4, 5):
            dc = DualCube(n)
            c = CostCounters(dc.num_nodes)
            dual_prefix(dc, rng.integers(0, 9, dc.num_nodes), ADD, counters=c)
            if prev is not None:
                assert c.comm_steps - prev == 2
            prev = c.comm_steps

    def test_sort_step_deltas_match_recurrence(self, rng):
        """T(n) - T(n-1) = 3(4n-3) - 4 (the engine-exact recurrence)."""
        prev = None
        for n in (1, 2, 3, 4):
            rdc = RecursiveDualCube(n)
            c = CostCounters(rdc.num_nodes)
            dual_sort(rdc, rng.integers(0, 9, rdc.num_nodes), counters=c)
            if prev is not None:
                assert c.comm_steps - prev == 3 * (4 * n - 3) - 4
            prev = c.comm_steps

    def test_message_totals_scale_with_nodes(self, rng):
        """Prefix message count = V * comm_steps (every node active)."""
        for n in (2, 3, 4):
            dc = DualCube(n)
            c = CostCounters(dc.num_nodes)
            dual_prefix(dc, rng.integers(0, 9, dc.num_nodes), ADD, counters=c)
            assert c.messages == dc.num_nodes * c.comm_steps


class TestTopologyHandshakes:
    @pytest.mark.parametrize(
        "topo_factory",
        [
            lambda: Hypercube(4),
            lambda: DualCube(3),
            lambda: RecursiveDualCube(3),
        ],
    )
    def test_handshake_lemma(self, topo_factory):
        topo = topo_factory()
        assert sum(topo.degree(u) for u in topo.nodes()) == 2 * len(list(topo.edges()))

    def test_dualcube_vertex_transitivity_spotcheck(self):
        """XOR translation by any address is an automorphism of Q_q; for
        the dual-cube, translation within the same class pattern is."""
        dc = DualCube(3)
        # XOR by a class-preserving offset (class bit 0) maps edges to edges
        # when the offset keeps fields aligned: any offset with class bit 0.
        for offset in (0b00101, 0b01010, 0b01111):
            for u, v in dc.edges():
                assert dc.has_edge(u ^ offset, v ^ offset), (offset, u, v)
