"""The array backend's long-row kernels: the compare-exchange pass
executor against a step-by-step reference, the position-major `D_prefix`
state (sharded and not), profiler spans per pass, and a D_9 oracle.

``_reference`` is the step loop the executor replaced, kept here as the
oracle: one whole-column compare-exchange per step through the pair and
direction bit views, ping-ponging two key columns.  The executor must
return the same bytes, which pins every tie such as ``-0.0`` vs ``0.0``.
Forced 2-4-bit tiles make multi-tile passes, permuted layouts and
tile-index directions occur at sizes the engine also runs."""

import numpy as np
import pytest

from repro.core import ADD, CONCAT, MIN, dual_prefix, dual_sort
from repro.core.bitonic import _sort_cube, bitonic_schedule
from repro.core.replay import (
    _compile_passes,
    _dual_sort_plan,
    _run_passes,
    ascend_prefix,
    ascend_totals,
    bit_pair_views,
    clear_plan_cache,
    dir_bit_views,
    dual_prefix_replay,
    dual_sort_replay,
    get_schedule_plan,
)
from repro.obs.profile import PhaseProfiler
from repro.simulator import TraceRecorder
from repro.topology import DualCube, RecursiveDualCube


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _reference(keys, steps):
    src = np.array(keys, copy=True)
    dst = np.empty_like(src)
    for st in steps:
        lo, hi = np.minimum, np.maximum
        if st.dir_bit is None:
            if st.descending:
                lo, hi = hi, lo
            a, b = bit_pair_views(src, st.dim)
            x, y = bit_pair_views(dst, st.dim)
            lo(a, b, out=x)
            hi(b, a, out=y)
        else:
            al, ah, dl, dh = dir_bit_views(src, st.dir_bit, st.dim)
            xl, xh, yl, yh = dir_bit_views(dst, st.dir_bit, st.dim)
            lo(al, ah, out=xl)
            hi(ah, al, out=xh)
            hi(dl, dh, out=yl)
            lo(dh, dl, out=yh)
        src, dst = dst, src
    return src


def _keys(kind, num, rng):
    if kind == "int64-perm":
        return rng.permutation(num).astype(np.int64)
    if kind == "int32-dups":
        return rng.integers(-3, 4, num).astype(np.int32)
    signed = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf])
    return rng.choice(signed, num)


def _sort_plan(family, size, descending):
    if family == "dual_sort":
        return _dual_sort_plan(RecursiveDualCube(size), descending)
    cube = _sort_cube(1 << size)
    return get_schedule_plan(
        cube, lambda: bitonic_schedule(size, descending=descending),
        kind="bitonic", descending=descending)


def _run(plan, keys, **kw):
    q = plan.num_nodes.bit_length() - 1
    passes = _compile_passes(plan.steps, q, keys.itemsize, **kw)
    return _run_passes(keys.copy(), np.empty_like(keys), passes), passes


KINDS = ["int64-perm", "int32-dups", "float64-signed"]


class TestPassExecutor:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("family,size", [
        ("dual_sort", 7), ("dual_sort", 8), ("dual_sort", 9),
        ("bitonic", 13), ("bitonic", 15), ("bitonic", 17),
    ])
    def test_equals_step_reference(self, family, size, descending, kind,
                                   rng):
        plan = _sort_plan(family, size, descending)
        keys = _keys(kind, plan.num_nodes, rng)
        got, passes = _run(plan, keys)
        assert any(ps.bits is not None for ps in passes)
        assert got.tobytes() == _reference(keys, plan.steps).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tile_bits", [2, 3, 4])
    @pytest.mark.parametrize("family,sizes", [
        ("dual_sort", (2, 3, 4, 5)), ("bitonic", range(1, 10)),
    ])
    def test_forced_small_tiles(self, family, sizes, tile_bits, kind, rng):
        for size in sizes:
            for descending in (False, True):
                plan = _sort_plan(family, size, descending)
                keys = _keys(kind, plan.num_nodes, rng)
                want = _reference(keys, plan.steps).tobytes()
                for per_step in (False, True):
                    got, _ = _run(plan, keys, tile_bits=tile_bits,
                                  per_step=per_step)
                    assert got.tobytes() == want, (size, descending,
                                                   per_step)

    def test_forced_tiles_cover_every_pass_shape(self):
        # D_5 with 4-bit tiles: several tiles per pass, direction bits
        # taken from the tile index, and permuted low-bit segments with
        # and without an in-tile direction bit.
        plan = _dual_sort_plan(RecursiveDualCube(5), False)
        passes = _compile_passes(plan.steps, 9, 8, tile_bits=4)
        tiles = [ps for ps in passes if ps.bits is not None]
        assert tiles and all(ps.bits == 4 for ps in tiles)
        local = [st for ps in tiles for _, seg in ps.segments for st in seg]
        layouts = [lay for ps in tiles for lay, _ in ps.segments]
        assert any(st[3] is not None for st in local)  # tile-index direction
        assert any(lay is None for lay in layouts)
        assert {len(lay[0]) for lay in layouts if lay is not None} == {2, 4}
        assert [st for ps in passes for st in ps.steps] == list(plan.steps)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_forced_tiles_trace_matches_engine(self, n, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes).astype(np.int64)
        plan = _dual_sort_plan(rdc, True)
        passes = _compile_passes(plan.steps, 2 * n - 1, 8, tile_bits=2,
                                 per_step=True)
        rep, eng = TraceRecorder(), TraceRecorder()
        rep.record_array("input", keys)
        _run_passes(keys.copy(), np.empty_like(keys), passes, trace=rep)
        dual_sort(rdc, [int(k) for k in keys], backend="engine",
                  descending=True, trace=eng)
        num = rdc.num_nodes
        assert [(lab, list(rep.snapshot(lab, num))) for lab in rep.labels()] \
            == [(lab, list(eng.snapshot(lab, num))) for lab in eng.labels()]

    def test_short_columns_run_step_by_step(self):
        # Below 2**12 keys every step is a whole-column pass.
        plan = _dual_sort_plan(RecursiveDualCube(6), False)
        passes = _compile_passes(plan.steps, 11, 8)
        assert len(passes) == len(plan.steps)
        assert all(ps.bits is None for ps in passes)

    def test_tile_bits_follow_key_size(self):
        plan = _dual_sort_plan(RecursiveDualCube(10), False)
        for itemsize, bits in ((8, 16), (4, 17), (1, 19)):
            passes = _compile_passes(plan.steps, 19, itemsize)
            assert {ps.bits for ps in passes} - {None} == {bits}
            assert all(st.dim >= bits for ps in passes if ps.bits is None
                       for st in ps.steps)

    def test_profiled_sort_one_span_per_pass(self, rng):
        rdc = RecursiveDualCube(7)
        keys = rng.permutation(rdc.num_nodes)
        prof = PhaseProfiler()
        out = dual_sort_replay(rdc, keys, profiler=prof)
        assert out.tobytes() == dual_sort_replay(rdc, keys).tobytes()
        plan = _dual_sort_plan(rdc, False)
        passes = plan.passes[(keys.itemsize, False)]
        assert [s.name for s in prof.spans] == [ps.name for ps in passes]
        assert [s.meta["step"] for s in prof.spans] == [
            ps.steps[0].index for ps in passes]
        tile = next(s for s in prof.spans if s.name == "tile-pass")
        assert len(tile.meta["dims"]) == tile.meta["last"] - tile.meta[
            "step"] + 1


class TestPositionMajorPrefix:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_sharded_equals_unsharded(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(-1000, 1000, dc.num_nodes)
        for op, inclusive, shards in ((ADD, True, 2), (MIN, False, 3)):
            one = dual_prefix_replay(dc, vals, op, inclusive=inclusive)
            got = dual_prefix_replay(dc, vals, op, inclusive=inclusive,
                                     shards=shards)
            assert got.dtype == one.dtype
            assert got.tobytes() == one.tobytes()

    def test_trace_in_node_order(self, rng):
        # Position-major state is reported in the engine's node order.
        dc = DualCube(3)
        vals = rng.integers(0, 100, dc.num_nodes)
        rep, eng = TraceRecorder(), TraceRecorder()
        dual_prefix(dc, vals, ADD, inclusive=False, trace=rep)
        dual_prefix(dc, vals, ADD, backend="engine", inclusive=False,
                    trace=eng)
        num = dc.num_nodes
        assert [list(rep.snapshot(lab, num)) for lab in rep.labels()] == [
            list(eng.snapshot(lab, num)) for lab in eng.labels()]


class TestOracleD9:
    def test_prefix_equals_cumsum(self, rng):
        dc = DualCube(9)
        vals = rng.integers(-2**40, 2**40, dc.num_nodes, dtype=np.int64)
        out = dual_prefix(dc, vals, ADD)
        want = np.cumsum(vals)
        assert out.dtype == want.dtype
        assert np.array_equal(out, want)

    def test_sort_equals_np_sort(self, rng):
        rdc = RecursiveDualCube(9)
        keys = rng.permutation(rdc.num_nodes)
        out = dual_sort(rdc, keys)
        want = np.sort(keys)
        assert out.dtype == want.dtype
        assert np.array_equal(out, want)


class TestAscendTotals:
    """``ascend_totals`` (the rounds ``allreduce`` runs) is
    ``ascend_prefix``'s ``t`` without the prefixes, in value and dtype."""

    @pytest.mark.parametrize("dtype", ["int64", "uint8", "bool", "float64"])
    @pytest.mark.parametrize("op", [ADD, MIN], ids=["add", "min"])
    @pytest.mark.parametrize("bits", [range(3), range(3, 6), range(6)])
    def test_equals_the_prefix_totals(self, dtype, op, bits, rng):
        vals = rng.integers(0, 200, 64).astype(dtype)
        want = ascend_prefix(vals, op, bits)[0]
        got = ascend_totals(vals, op, bits)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_object_payloads_keep_operand_order(self):
        vals = np.empty(16, dtype=object)
        vals[:] = [(k,) for k in range(16)]
        got = ascend_totals(vals, CONCAT, range(2, 4))
        assert got.tolist() == ascend_prefix(vals, CONCAT, range(2, 4))[0].tolist()
        assert got[0] == (0, 4, 8, 12)
