"""Tests for Algorithm 1 — Cube_prefix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cube_prefix import cube_prefix
from repro.core.ops import ADD, CONCAT, MATMUL2, MAX, MIN
from repro.core.verify import check_prefix, sequential_prefix
from repro.simulator import CostCounters


def tuples_of(n, rng):
    out = np.empty(n, dtype=object)
    out[:] = [(int(x),) for x in rng.integers(0, 100, n)]
    return out


def engine(values, op, **kw):
    """``(t, s, EngineResult)`` of the engine backend."""
    (t, s), res = cube_prefix(values, op, backend="engine", **kw)
    return t, s, res


class TestEngineCorrectness:
    @pytest.mark.parametrize("q", range(5))
    def test_inclusive_prefix_add(self, q, rng):
        vals = [int(x) for x in rng.integers(0, 100, 1 << q)]
        t, s, res = engine(vals, ADD)
        check_prefix(vals, s, ADD)
        assert all(x == sum(vals) for x in t)

    @pytest.mark.parametrize("q", range(5))
    def test_diminished_prefix_add(self, q, rng):
        vals = [int(x) for x in rng.integers(0, 100, 1 << q)]
        _, s, _ = engine(vals, ADD, inclusive=False)
        check_prefix(vals, s, ADD, inclusive=False)

    @pytest.mark.parametrize("q", range(4))
    def test_non_commutative_concat(self, q, rng):
        vals = list(tuples_of(1 << q, rng))
        _, s, _ = engine(vals, CONCAT)
        check_prefix(vals, s, CONCAT)

    def test_non_commutative_matmul(self, rng):
        vals = [tuple(int(x) for x in rng.integers(-3, 4, 4)) for _ in range(16)]
        _, s, _ = engine(vals, MATMUL2)
        check_prefix(vals, s, MATMUL2)

    def test_min_max(self, rng):
        vals = [int(x) for x in rng.integers(-100, 100, 16)]
        _, smin, _ = engine(vals, MIN)
        _, smax, _ = engine(vals, MAX)
        assert smin == [min(vals[: k + 1]) for k in range(16)]
        assert smax == [max(vals[: k + 1]) for k in range(16)]

    def test_value_count_validated(self):
        for backend in ("engine", "replay"):
            with pytest.raises(ValueError, match="power of two, got 3"):
                cube_prefix([1, 2, 3], ADD, backend=backend)


class TestEngineCosts:
    @pytest.mark.parametrize("q", range(5))
    def test_theorem_costs_q_steps(self, q, rng):
        vals = [int(x) for x in rng.integers(0, 10, 1 << q)]
        _, _, res = engine(vals, ADD)
        assert res.comm_steps == q
        assert res.comp_steps == q
        assert res.counters.messages == q * (1 << q)

    def test_every_node_busy_every_cycle(self, rng):
        _, _, res = engine(list(range(8)), ADD)
        assert all(res.counters.sends == 3)
        assert all(res.counters.recvs == 3)


class TestVectorized:
    @pytest.mark.parametrize("q", range(6))
    def test_matches_cumsum(self, q, rng):
        vals = rng.integers(0, 100, 1 << q)
        t, s = cube_prefix(vals, ADD)
        assert list(s) == list(np.cumsum(vals))
        assert all(t == vals.sum())

    @pytest.mark.parametrize("q", range(5))
    def test_matches_engine_for_objects(self, q, rng):
        vals = tuples_of(1 << q, rng)
        tv, sv = cube_prefix(vals, CONCAT)
        te, se, _ = engine(list(vals), CONCAT)
        assert list(sv) == se
        assert list(tv) == te

    def test_diminished(self, rng):
        vals = rng.integers(0, 100, 16)
        _, s = cube_prefix(vals, ADD, inclusive=False)
        assert list(s) == [0] + list(np.cumsum(vals[:-1]))

    def test_counters_match_engine(self, rng):
        vals = rng.integers(0, 10, 16)
        c = CostCounters(16)
        cube_prefix(vals, ADD, counters=c)
        _, _, res = engine([int(v) for v in vals], ADD)
        assert c.comm_steps == res.comm_steps
        assert c.comp_steps == res.comp_steps
        assert c.messages == res.counters.messages

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            cube_prefix(np.arange(6), ADD)
        with pytest.raises(ValueError):
            cube_prefix(np.array([]), ADD)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(10**6), max_value=10**6),
            min_size=16,
            max_size=16,
        )
    )
    def test_prefix_matches_oracle(self, vals):
        _, s = cube_prefix(np.array(vals, dtype=np.int64), ADD)
        assert list(s) == sequential_prefix(vals, ADD)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9)), min_size=8, max_size=8
        )
    )
    def test_concat_scan_reconstructs_input_order(self, vals):
        arr = np.empty(8, dtype=object)
        arr[:] = vals
        _, s = cube_prefix(arr, CONCAT)
        assert s[-1] == CONCAT.reduce(vals)
        for k in range(8):
            assert s[k] == CONCAT.reduce(vals[: k + 1])
