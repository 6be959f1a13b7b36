"""Tests for Algorithm 2 — D_prefix — and Theorem 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import (
    dual_prefix_comm_exact,
    dual_prefix_comp_exact,
    theorem1_comm_bound,
    theorem1_comp_bound,
)
from repro.core.cube_prefix import cube_prefix
from repro.core.dual_prefix import dual_prefix
from repro.core.emulation import emulated_cube_prefix
from repro.core.large_inputs import large_prefix
from repro.core.ops import ADD, CONCAT, MATMUL2, MAX, MIN, MUL
from repro.core.verify import check_prefix
from repro.routing import allreduce
from repro.simulator import CostCounters, TraceRecorder
from repro.topology import DualCube, RecursiveDualCube


def tuple_values(n, rng):
    out = np.empty(n, dtype=object)
    out[:] = [(int(x),) for x in rng.integers(0, 100, n)]
    return out


class TestCorrectness:
    def test_engine_inclusive_concat(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        pre, _ = dual_prefix(dc, vals, CONCAT, backend="engine")
        check_prefix(list(vals), pre, CONCAT)

    def test_engine_diminished_concat(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        pre, _ = dual_prefix(dc, vals, CONCAT, inclusive=False, backend="engine")
        check_prefix(list(vals), pre, CONCAT, inclusive=False)

    def test_engine_paper_literal_same_output(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        a, _ = dual_prefix(dc, vals, CONCAT, paper_literal=False, backend="engine")
        b, _ = dual_prefix(dc, vals, CONCAT, paper_literal=True, backend="engine")
        assert list(a) == list(b)

    def test_vectorized_add_matches_cumsum(self, dc, rng):
        vals = rng.integers(-100, 100, dc.num_nodes)
        assert list(dual_prefix(dc, vals, ADD)) == list(np.cumsum(vals))

    def test_vectorized_diminished(self, dc, rng):
        vals = rng.integers(0, 100, dc.num_nodes)
        got = dual_prefix(dc, vals, ADD, inclusive=False)
        assert list(got) == [0] + list(np.cumsum(vals[:-1]))

    def test_vectorized_matmul(self, rng):
        dc = DualCube(3)
        mats = np.empty(32, dtype=object)
        mats[:] = [
            tuple(int(x) for x in rng.integers(-2, 3, 4)) for _ in range(32)
        ]
        pre = dual_prefix(dc, mats, MATMUL2)
        check_prefix(list(mats), pre, MATMUL2)

    def test_running_max(self, rng):
        dc = DualCube(3)
        vals = rng.integers(-1000, 1000, 32)
        got = dual_prefix(dc, vals, MAX)
        assert list(got) == list(np.maximum.accumulate(vals))

    def test_engine_vec_identical_results(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        a, _ = dual_prefix(dc, vals, CONCAT, backend="engine")
        b = dual_prefix(dc, vals, CONCAT)
        assert list(a) == list(b)

    def test_shape_validation(self):
        dc = DualCube(2)
        with pytest.raises(ValueError):
            dual_prefix(dc, np.arange(5), ADD)

    def test_backend_dispatch(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 10, 8)
        v = dual_prefix(dc, vals, ADD, backend="replay")
        e, _ = dual_prefix(dc, vals.astype(object), ADD, backend="engine")
        assert list(v) == list(e)
        with pytest.raises(ValueError):
            dual_prefix(dc, vals, ADD, backend="quantum")


class TestTheorem1Costs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_engine_step_counts(self, n, paper_literal, rng):
        dc = DualCube(n)
        vals = tuple_values(dc.num_nodes, rng)
        _, res = dual_prefix(dc, vals, CONCAT, paper_literal=paper_literal, backend="engine")
        assert res.comm_steps == dual_prefix_comm_exact(
            n, paper_literal=paper_literal
        )
        assert res.comp_steps == dual_prefix_comp_exact(n)
        # Theorem 1's "at most" bounds hold for both variants.
        assert res.comm_steps <= theorem1_comm_bound(n)
        assert res.comp_steps <= theorem1_comp_bound(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_vec_counters_equal_engine_formulas(self, n, paper_literal, rng):
        dc = DualCube(n)
        c = CostCounters(dc.num_nodes)
        dual_prefix(
            dc,
            rng.integers(0, 10, dc.num_nodes),
            ADD,
            paper_literal=paper_literal,
            counters=c,
        )
        assert c.comm_steps == dual_prefix_comm_exact(n, paper_literal=paper_literal)
        assert c.comp_steps == dual_prefix_comp_exact(n)

    def test_counters_fully_match_between_backends(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        _, res = dual_prefix(dc, vals, CONCAT, backend="engine")
        c = CostCounters(dc.num_nodes)
        dual_prefix(dc, vals, CONCAT, counters=c)
        assert c.comm_steps == res.comm_steps
        assert c.comp_steps == res.comp_steps
        assert c.messages == res.counters.messages

    def test_faster_than_nothing_but_close_to_hypercube(self):
        # Same-size hypercube needs 2n-1 steps; dual-cube needs 2n — the
        # paper's "almost as efficient as in hypercube".
        for n in range(1, 8):
            assert dual_prefix_comm_exact(n) == (2 * n - 1) + 1


class TestTraces:
    def test_trace_has_six_figure3_panels(self, rng):
        dc = DualCube(3)
        trace = TraceRecorder()
        dual_prefix(dc, np.arange(1, 33), ADD, trace=trace)
        labels = trace.labels()
        for tag in ("(a)", "(b)", "(c)", "(d)", "(e)", "(f)"):
            assert any(lbl.startswith(tag) for lbl in labels), tag

    def test_engine_trace_matches_vec_trace(self, rng):
        dc = DualCube(2)
        vals = tuple_values(8, rng)
        t1, t2 = TraceRecorder(), TraceRecorder()
        dual_prefix(dc, vals, CONCAT, trace=t1, backend="engine")
        dual_prefix(dc, vals, CONCAT, trace=t2)
        for lbl in t2.labels():
            assert t1.snapshot(lbl, 8) == t2.snapshot(lbl, 8), lbl


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(-(10**9), 10**9), min_size=8, max_size=8),
        st.booleans(),
    )
    def test_prefix_sum_any_ints(self, vals, inclusive):
        dc = DualCube(2)
        got = dual_prefix(
            dc, np.array(vals, dtype=np.int64), ADD, inclusive=inclusive
        )
        check_prefix(vals, got, ADD, inclusive=inclusive)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.booleans())
    def test_all_sizes_all_variants_concat(self, n, inclusive, paper_literal):
        dc = DualCube(n)
        rng = np.random.default_rng(n)
        vals = tuple_values(dc.num_nodes, rng)
        got = dual_prefix(
            dc, vals, CONCAT, inclusive=inclusive, paper_literal=paper_literal
        )
        check_prefix(list(vals), got, CONCAT, inclusive=inclusive)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=32, max_size=32))
    def test_float_prefix_close_to_cumsum(self, vals):
        dc = DualCube(3)
        got = dual_prefix(dc, np.array(vals), ADD)
        # Tree order differs from serial order; allow float reassociation.
        np.testing.assert_allclose(got, np.cumsum(vals), rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("n", [2, 3])
class TestTupleListInput:
    """A plain list of tuples is one ``CONCAT`` payload per node for the
    program factory and the suffix scan too, as it is for ``dual_prefix``
    (NumPy alone would read it as an (N, 1) array)."""

    def test_program_matches_the_engine_and_extracts(self, n):
        from repro.analysis.static import extract_schedule
        from repro.core.dual_prefix import dual_prefix_program
        from repro.simulator import run_spmd

        dc = DualCube(n)
        items = [(k,) for k in range(dc.num_nodes)]
        _, engine = dual_prefix(dc, items, CONCAT, backend="engine")
        program = lambda: dual_prefix_program(dc, items, CONCAT)
        assert run_spmd(dc, program()).returns == engine.returns
        schedule = extract_schedule(dc, program())
        assert schedule.completed
        as_array = np.empty(dc.num_nodes, dtype=object)
        as_array[:] = items
        assert schedule == extract_schedule(
            dc, dual_prefix_program(dc, as_array, CONCAT)
        )

    def test_suffix_matches_the_engine(self, n):
        from repro.core.dual_prefix import dual_suffix
        from repro.core.ops import AssocOp

        dc = DualCube(n)
        size = dc.num_nodes
        items = [(k,) for k in range(size)]
        flipped = AssocOp("concat-flipped", lambda a, b: b + a, ())
        mirror, _ = dual_prefix(dc, items[::-1], flipped, backend="engine")
        suffix = dual_suffix(dc, items, CONCAT)
        assert list(suffix) == list(mirror[::-1])
        assert list(suffix) == [tuple(range(k, size)) for k in range(size)]


class TestSuffixScan:
    def test_suffix_sum(self, rng):
        from repro.core.dual_prefix import dual_suffix

        dc = DualCube(3)
        vals = rng.integers(-100, 100, 32)
        suf = dual_suffix(dc, vals, ADD)
        assert list(suf) == list(np.cumsum(vals[::-1])[::-1])

    def test_suffix_non_commutative_order(self):
        from repro.core.dual_prefix import dual_suffix

        dc = DualCube(2)
        vals = np.empty(8, dtype=object)
        vals[:] = [(k,) for k in range(8)]
        suf = dual_suffix(dc, vals, CONCAT)
        for k in range(8):
            assert suf[k] == tuple(range(k, 8))

    def test_suffix_diminished(self, rng):
        from repro.core.dual_prefix import dual_suffix

        dc = DualCube(2)
        vals = rng.integers(0, 50, 8)
        suf = dual_suffix(dc, vals, ADD, inclusive=False)
        expect = list(np.cumsum(vals[::-1])[::-1])[1:] + [0]
        assert list(suf) == expect

    def test_suffix_costs_match_prefix(self, rng):
        from repro.core.dual_prefix import dual_suffix

        dc = DualCube(3)
        c = CostCounters(32)
        dual_suffix(dc, rng.integers(0, 9, 32), ADD, counters=c)
        assert c.comm_steps == 6

    @pytest.mark.parametrize("op", [ADD, MIN, MAX], ids=["add", "min", "max"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_commutative_suffix_mirrors_prefix(self, n, op, rng):
        """A commutative op is its own flip, so the suffix keeps the
        prefix's ufunc path: values and dtype equal the mirrored prefix."""
        from repro.core.dual_prefix import dual_suffix

        dc = DualCube(n)
        vals = rng.integers(-100, 100, dc.num_nodes)
        suf = dual_suffix(dc, vals, op)
        mirror = dual_prefix(dc, vals[::-1], op)[::-1]
        assert suf.dtype == mirror.dtype
        assert suf.tolist() == mirror.tolist()

    def test_prefix_plus_suffix_identity(self, rng):
        """inclusive prefix[k] + diminished suffix[k+1...] == total."""
        from repro.core.dual_prefix import dual_suffix

        dc = DualCube(3)
        vals = rng.integers(-50, 50, 32)
        pre = dual_prefix(dc, vals, ADD)
        suf = dual_suffix(dc, vals, ADD, inclusive=False)
        assert all(p + s == vals.sum() for p, s in zip(pre, suf))


class TestNarrowDtypes:
    """Bool and integers narrower than 64 bits accumulate in the
    identity's dtype (int64 for ``ADD``); in their own dtype ``np.add``
    is a logical or on bool and narrow integers wrap.  uint64 keeps its
    own dtype, like ``np.cumsum``: against the int64 identity it would
    promote to float64 and round."""

    DTYPES = [np.bool_, np.int8, np.int16, np.int32,
              np.uint8, np.uint16, np.uint32, np.uint64]

    @staticmethod
    def _values(dtype, num):
        if dtype is np.bool_:
            return np.ones(num, dtype=bool)
        return np.full(num, np.iinfo(dtype).max, dtype=dtype)

    @staticmethod
    def _acc(dtype):
        return np.dtype(np.uint64 if dtype is np.uint64 else np.int64)

    def test_alive_flags_compact_like_cumsum(self):
        # Stream compaction: the prefix sum of 0/1 "alive" flags.
        dc = DualCube(3)
        alive = np.random.default_rng(5).random(dc.num_nodes) < 0.5
        got = dual_prefix(dc, alive, ADD)
        assert got.dtype == np.int64
        assert got.tolist() == np.cumsum(alive).tolist()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_matches_cumsum(self, n, dtype, inclusive):
        dc = DualCube(n)
        vals = self._values(dtype, dc.num_nodes)
        acc = self._acc(dtype)
        want = np.cumsum(vals, dtype=acc)
        if not inclusive:
            want = np.concatenate([np.zeros(1, acc), want[:-1]])
        got = dual_prefix(dc, vals, ADD, inclusive=inclusive)
        assert got.dtype == acc
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_uint64_product_matches_cumprod(self, inclusive):
        dc = DualCube(3)
        vals = np.full(dc.num_nodes, 3, dtype=np.uint64)
        want = np.cumprod(vals)
        if not inclusive:
            want = np.concatenate([np.ones(1, np.uint64), want[:-1]])
        got = dual_prefix(dc, vals, MUL, inclusive=inclusive)
        assert got.dtype == np.uint64
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_large_prefix_matches_cumsum(self, n, dtype):
        dc = DualCube(n)
        vals = self._values(dtype, 3 * dc.num_nodes)
        acc = self._acc(dtype)
        got = large_prefix(dc, vals, ADD)
        assert got.dtype == acc
        assert got.tolist() == np.cumsum(vals, dtype=acc).tolist()

    # The blocked large_prefix is inclusive only.
    ASCEND_CASES = [("cube_prefix", True), ("cube_prefix", False),
                    ("emulated_cube_prefix", True),
                    ("emulated_cube_prefix", False), ("large_prefix", True)]

    @staticmethod
    def _ascend(path, n, vals, op, inclusive, engine=False):
        """``(t, s)`` of one ascend path: lists from the engine, arrays
        from replay; ``large_prefix`` has no ``t``."""
        backend = "engine" if engine else "replay"
        if path == "large_prefix":
            out = large_prefix(DualCube(n), vals, op, backend=backend)
            return None, out[0] if engine else out
        topo = (RecursiveDualCube(n),) if path == "emulated_cube_prefix" else ()
        run = emulated_cube_prefix if topo else cube_prefix
        out = run(*topo, vals, op, inclusive=inclusive, backend=backend)
        return out[0] if engine else out

    @pytest.mark.parametrize("path,inclusive", ASCEND_CASES)
    @pytest.mark.parametrize("engine", [False, True], ids=["replay", "engine"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_ascend_paths_match_cumsum(self, path, inclusive, engine, n,
                                       dtype):
        # The engine's ⊕ runs on Python scalars: exact, like an object
        # cumsum (numpy's bool + is a logical or, narrow ints wrap).
        num = DualCube(n).num_nodes * (2 if path == "large_prefix" else 1)
        vals = self._values(dtype, num)
        acc = self._acc(dtype)
        want = np.cumsum(vals, dtype=object if engine else acc)
        total = want[-1]
        if not inclusive:
            want = np.concatenate([np.zeros(1, acc), want[:-1]])
        t, s = self._ascend(path, n, vals, ADD, inclusive, engine)
        if not engine:
            assert s.dtype == acc and (t is None or t.dtype == acc)
        assert list(s) == want.tolist()
        assert t is None or list(t) == [total] * num

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_allreduce_matches_total(self, n, dtype):
        dc = DualCube(n)
        vals = self._values(dtype, dc.num_nodes)
        acc = self._acc(dtype)
        got = allreduce(dc, vals, ADD)
        assert got.dtype == acc
        assert got.tolist() == [np.sum(vals, dtype=acc)] * dc.num_nodes

    @pytest.mark.parametrize("path", ["cube_prefix", "emulated_cube_prefix"])
    def test_exclusive_python_int_product_is_exact(self, path):
        # Regression: the diminished s used to start from the int64
        # identity column, so the products overflowed int64 and raised.
        vals = np.empty(32, dtype=object)
        vals[:] = list(range(2, 34))
        _, s = self._ascend(path, 3, vals, MUL, False)
        want, acc = [], 1
        for v in range(2, 34):
            want.append(acc)
            acc *= v
        assert s.tolist() == want
        assert all(type(x) is int for x in s)

    @pytest.mark.parametrize("op", [MIN, MAX], ids=["min", "max"])
    def test_min_max_keep_the_narrow_dtype(self, op):
        # MIN/MAX never leave the input's range, so only ADD/MUL widen.
        dc = DualCube(3)
        vals = np.random.default_rng(7).integers(
            -128, 128, 3 * dc.num_nodes).astype(np.int8)
        _, s = cube_prefix(vals[:dc.num_nodes], op)
        got = large_prefix(dc, vals, op)
        for arr, want in ((s, op.ufunc.accumulate(vals[:dc.num_nodes])),
                          (got, op.ufunc.accumulate(vals))):
            assert arr.dtype == np.int8
            assert arr.tolist() == want.tolist()


class TestIntegerMinMax:
    """Integer ``MIN``/``MAX`` take the dtype's extreme as identity, not
    ±inf: against ±inf the values promoted to float64 and rounded above
    2**53.  Inclusive prefixes equal ``np.minimum``/``np.maximum``
    ``.accumulate`` in value and dtype; the exclusive identity slot holds
    the extreme, where the engine returns ``inf``."""

    BIG = 2**60 + 1
    BASES = {np.int64: 2**60, np.uint64: 2**63}

    def _values(self, dtype, num, seed):
        low = np.random.default_rng(seed).integers(0, 2**12, num)
        return (np.asarray(self.BASES[dtype], dtype) + low.astype(dtype))

    @staticmethod
    def _want(vals, op, inclusive):
        want = op.ufunc.accumulate(vals)
        if inclusive:
            return want
        info = np.iinfo(vals.dtype)
        extreme = info.max if op is MIN else info.min
        return np.concatenate([np.array([extreme], vals.dtype), want[:-1]])

    def test_dual_prefix_min_is_exact(self):
        got = dual_prefix(DualCube(2), np.full(8, self.BIG), MIN)
        assert got.dtype == np.int64
        assert got.tolist() == [self.BIG] * 8

    def test_large_prefix_min_is_exact(self):
        from repro.core.large_inputs import large_prefix

        got = large_prefix(DualCube(2), np.full(16, self.BIG), MIN)
        assert got.dtype == np.int64
        assert got.tolist() == [self.BIG] * 16

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize("op", [MIN, MAX], ids=["min", "max"])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_dual_prefix_matches_accumulate(self, n, dtype, op, inclusive):
        dc = DualCube(n)
        vals = self._values(dtype, dc.num_nodes, n)
        want = self._want(vals, op, inclusive)
        got = dual_prefix(dc, vals, op, inclusive=inclusive)
        _, s = cube_prefix(vals, op, inclusive=inclusive)
        for arr in (got, s):
            assert arr.dtype == dtype
            assert arr.tolist() == want.tolist()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize("op", [MIN, MAX], ids=["min", "max"])
    def test_large_prefix_matches_accumulate(self, n, dtype, op):
        from repro.core.large_inputs import large_prefix

        dc = DualCube(n)
        vals = self._values(dtype, 3 * dc.num_nodes, n)
        got = large_prefix(dc, vals, op)
        assert got.dtype == dtype
        assert got.tolist() == op.ufunc.accumulate(vals).tolist()

    def test_engine_keeps_inf_in_the_identity_slot(self):
        dc = DualCube(2)
        vals = np.full(8, self.BIG)
        eng, _ = dual_prefix(dc, vals, MIN, backend="engine",
                             inclusive=False)
        got = dual_prefix(dc, vals, MIN, inclusive=False)
        assert eng[0] == float("inf")
        assert got[0] == np.iinfo(np.int64).max
        assert eng[1:].tolist() == got[1:].tolist()
