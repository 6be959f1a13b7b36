"""The array backend's ufunc-buffer scope and `D_prefix`'s fused fold.

Tile passes, and the `D_prefix` ascend phases once clusters hold
``2**_LOW_BITS`` nodes, run under a short numpy ufunc buffer that must be
restored to the caller's size, also when a pass raises, and that is
never touched below D_7.

The fold reads the partner class half transposed instead of running a
second cross exchange into its own column.  ``_frozen_prefix`` is the
kernel as it was before that, kept here as the oracle where no engine
runs (D_6-D_9): steps 1-3 on position-major state, the return cross
exchange into a fresh column, and the fold written through a transposed
view of the result.  The new kernel must return the same bytes and
dtype, and allocate no more."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    ADD,
    CONCAT,
    MATMUL2,
    MUL,
    dual_prefix,
    dual_sort,
    large_prefix,
    large_sort,
)
from repro.core.replay import (
    _BUFSIZE,
    _accumulation,
    _compile_passes,
    _dual_sort_plan,
    bit_pair_views,
    dual_prefix_replay,
    get_prefix_plan,
)
from repro.topology import DualCube, RecursiveDualCube


def _frozen_prefix(dc, vals, op, *, inclusive=True, paper_literal=False):
    plan = get_prefix_plan(dc, paper_literal=paper_literal)
    n, m = dc.num_nodes, dc.cluster_dim
    half, w = n >> 1, 1 << m
    bits = [m + b for b in plan.rounds]
    dt_t, ident, combine = _accumulation(vals.dtype, op)
    ident = np.full(n, ident, ident.dtype)
    dt_s2 = np.result_type(dt_t, ident.dtype)
    dt_s = dt_t if inclusive else dt_s2

    def input_order(col):
        return col.reshape(2, w, w).transpose(0, 2, 1)

    def ascend(t, s):
        for b in bits:
            t_lo, t_hi = bit_pair_views(t, b)
            s_hi = bit_pair_views(s, b)[1]
            combine(t_lo, s_hi, s_hi)
            combine(t_lo, t_hi, t_hi)
            t_lo[...] = t_hi

    def cross(src, out):
        out[:half].reshape(w, w)[...] = src[half:].reshape(w, w).T
        out[half:].reshape(w, w)[...] = src[:half].reshape(w, w).T
        return out

    t, t2 = np.empty(n, dt_t), np.empty(n, dt_t)
    s, s2 = np.empty(n, dt_s), np.empty(n, dt_s2)
    input_order(t)[...] = vals.reshape(2, w, w)
    s[...] = t if inclusive else ident
    ascend(t, s)
    cross(t, t2)
    s2[...] = ident
    ascend(t2, s2)
    got = cross(s2, np.empty_like(s2))
    res = np.empty(n, np.result_type(dt_s2, dt_s))
    out = input_order(res)
    combine(got.reshape(2, w, w), s.reshape(2, w, w), out)
    combine(t2[half:].reshape(w, w), out[1], out[1])
    return res


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFusedFold:
    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    @pytest.mark.parametrize("op", [ADD, MUL], ids=["add", "mul"])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_float_equals_frozen_fold(self, n, op, inclusive):
        dc = DualCube(n)
        vals = np.random.default_rng(n).standard_normal(dc.num_nodes)
        got = dual_prefix_replay(dc, vals, op, inclusive=inclusive)
        want = _frozen_prefix(dc, vals, op, inclusive=inclusive)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_paper_literal_and_int64_equal_frozen_fold(self, n):
        dc = DualCube(n)
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(dc.num_nodes)
        ints = rng.integers(-2**40, 2**40, dc.num_nodes, dtype=np.int64)
        for vals, kw in ((floats, {"paper_literal": True}),
                         (floats, {"paper_literal": True, "inclusive": False}),
                         (ints, {}), (ints, {"inclusive": False})):
            got = dual_prefix_replay(dc, vals, ADD, **kw)
            want = _frozen_prefix(dc, vals, ADD, **kw)
            assert got.dtype == want.dtype, kw
            assert got.tobytes() == want.tobytes(), kw

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_non_commutative_ops_equal_engine(self, n, inclusive):
        # The fold's operand order: MATMUL2 and CONCAT do not commute.
        dc = DualCube(n)
        rng = np.random.default_rng(n)
        mats = np.empty(dc.num_nodes, dtype=object)
        mats[:] = [tuple(int(x) for x in rng.integers(-2, 3, 4))
                   for _ in range(dc.num_nodes)]
        tups = np.empty(dc.num_nodes, dtype=object)
        tups[:] = [(k,) for k in range(dc.num_nodes)]
        for op, vals in ((MATMUL2, mats), (CONCAT, tups)):
            got = dual_prefix(dc, vals, op, inclusive=inclusive)
            eng, _ = dual_prefix(dc, vals, op, backend="engine",
                                 inclusive=inclusive)
            assert got.tolist() == list(eng), op.name

    def test_d9_peak_does_not_exceed_the_frozen_fold(self):
        # The frozen kernel holds seven length-N columns at its peak
        # (t, t', s, s', the identity, the returned s' and the result);
        # the fused fold needs four when s' reuses t's column.
        dc = DualCube(9)
        vals = np.random.default_rng(9).standard_normal(dc.num_nodes)
        for inclusive in (True, False):
            dual_prefix_replay(dc, vals, ADD, inclusive=inclusive)
            new = _traced_peak(lambda: dual_prefix_replay(
                dc, vals, ADD, inclusive=inclusive))
            old = _traced_peak(lambda: _frozen_prefix(
                dc, vals, ADD, inclusive=inclusive))
            assert new <= old, (inclusive, new, old)


class TestBufferScope:
    CALLER = 4096

    @pytest.fixture
    def caller_bufsize(self):
        old = np.setbufsize(self.CALLER)
        yield
        np.setbufsize(old)

    @pytest.fixture
    def bufsize_calls(self, monkeypatch):
        calls, real = [], np.setbufsize

        def counting(size):
            calls.append(size)
            return real(size)

        monkeypatch.setattr(np, "setbufsize", counting)
        return calls

    @pytest.mark.parametrize("kind,n", [("sort", 7), ("prefix", 7),
                                        ("prefix", 10)])
    def test_caller_setting_survives(self, kind, n, caller_bufsize,
                                     bufsize_calls):
        rng = np.random.default_rng(n)
        if kind == "sort":
            rdc = RecursiveDualCube(n)
            keys = rng.permutation(rdc.num_nodes)
            assert np.array_equal(dual_sort(rdc, keys), np.sort(keys))
        else:
            dc = DualCube(n)
            vals = rng.integers(0, 1000, dc.num_nodes)
            assert np.array_equal(dual_prefix(dc, vals, ADD), np.cumsum(vals))
        assert np.getbufsize() == self.CALLER
        # The scope was entered, and each entry restored the caller's.
        assert bufsize_calls
        assert bufsize_calls[::2] == [_BUFSIZE] * (len(bufsize_calls) // 2)
        assert bufsize_calls[1::2] == [self.CALLER] * (len(bufsize_calls) // 2)

    def test_restored_when_a_pass_raises(self, caller_bufsize,
                                         bufsize_calls):
        # Object keys mixing str and int: at D_7 (2**13 keys, 16-bit
        # tiles) the whole schedule is one tile pass, and its first
        # comparison raises inside it.
        rdc = RecursiveDualCube(7)
        keys = np.empty(rdc.num_nodes, dtype=object)
        keys[:] = [str(k) if k % 2 else k for k in range(rdc.num_nodes)]
        plan = _dual_sort_plan(rdc, False)
        passes = _compile_passes(plan.steps, 13, keys.itemsize)
        assert len(passes) == 1 and passes[0].bits is not None
        with pytest.raises(TypeError):
            dual_sort(rdc, keys)
        assert bufsize_calls == [_BUFSIZE, self.CALLER]
        assert np.getbufsize() == self.CALLER

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_small_calls_never_set_it(self, n, bufsize_calls):
        dc, rdc = DualCube(n), RecursiveDualCube(n)
        rng = np.random.default_rng(n)
        vals = rng.integers(0, 1000, dc.num_nodes)
        for inclusive in (True, False):
            dual_prefix(dc, vals, ADD, inclusive=inclusive)
        dual_sort(rdc, rng.permutation(rdc.num_nodes))
        large_prefix(dc, np.tile(vals, 2), ADD)
        large_sort(rdc, rng.permutation(2 * rdc.num_nodes))
        assert bufsize_calls == []
