"""The array backend's in-place view kernels: view primitives,
differential parity against the engine (results and full ledgers),
static-schedule step parity, memory scaling, and the
dispatchers' handling of the retired ``columnar``/``vectorized`` names.

The reshape-view kernels began as a separate ``columnar`` backend; they
now run every array-backend step (:mod:`repro.core.replay`)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ADD,
    CONCAT,
    MATMUL2,
    dual_prefix,
    dual_sort,
    large_prefix,
    large_sort,
    sequential_prefix,
)
from repro.analysis.static.compile import compile_schedule_plan
from repro.core.dual_prefix import dual_prefix_program
from repro.core.dual_sort import dual_sort_schedule, schedule_program
from repro.core.replay import (
    bit_pair_views,
    dir_bit_views,
    dual_prefix_replay,
    dual_sort_replay,
    get_prefix_plan,
    large_prefix_replay,
    large_sort_replay,
)
from repro.obs.timeline import TimelineRecorder
from repro.simulator import CostCounters
from repro.topology import DualCube, RecursiveDualCube


def _obj(items):
    out = np.empty(len(items), dtype=object)
    out[:] = list(items)
    return out


def _ledger(c):
    """The bulk ledger both backends keep: totals plus the per-rank
    computation arrays (per-rank send/recv tallies are engine-only)."""
    return c.summary(), c.comp_calls.tolist(), c.comp_ops.tolist()


class TestPairViews:
    @pytest.mark.parametrize("b", [0, 1, 2, 3])
    def test_matches_partner_indexing(self, b, rng):
        col = rng.integers(0, 100, 16)
        lo, hi = bit_pair_views(col, b)
        idx = np.arange(16)
        assert np.array_equal(lo.reshape(-1), col[idx[(idx >> b) & 1 == 0]])
        assert np.array_equal(hi.reshape(-1), col[idx[(idx >> b) & 1 == 1]])

    def test_views_write_through(self):
        col = np.zeros(8, dtype=np.int64)
        lo, hi = bit_pair_views(col, 1)
        hi[...] = 7
        assert np.array_equal(col, [0, 0, 7, 7, 0, 0, 7, 7])

    def test_object_column_and_half_slice(self):
        col = _obj([(i,) for i in range(8)])
        lo, hi = bit_pair_views(col[4:], 0)
        lo[0, 0] = (99,)
        lo[1, 0] = (98,)
        assert col[4] == (99,) and col[6] == (98,)

    def test_bit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            bit_pair_views(np.zeros(8), 3)

    @pytest.mark.parametrize("dir_bit,dim", [(1, 0), (2, 0), (2, 1), (3, 1)])
    def test_dir_bit_views_match_masks(self, dir_bit, dim, rng):
        col = rng.integers(0, 100, 16)
        asc_lo, asc_hi, desc_lo, desc_hi = dir_bit_views(col, dir_bit, dim)
        idx = np.arange(16)
        for view, want_dir, want_dim in (
            (asc_lo, 0, 0), (asc_hi, 0, 1), (desc_lo, 1, 0), (desc_hi, 1, 1)
        ):
            sel = ((idx >> dir_bit) & 1 == want_dir) & ((idx >> dim) & 1 == want_dim)
            assert sorted(view.reshape(-1)) == sorted(col[sel])

    def test_dir_bit_must_exceed_dim(self):
        with pytest.raises(ValueError, match="must exceed"):
            dir_bit_views(np.zeros(16), 1, 1)

    def test_strided_column_is_checked(self):
        # A non-contiguous column still gets the shares_memory proof.
        col = np.zeros(16, dtype=np.int64)[::2]
        lo, hi = bit_pair_views(col, 1)
        hi[...] = 5
        assert np.array_equal(col, [0, 0, 5, 5, 0, 0, 5, 5])


@pytest.mark.parametrize("n", [2, 3, 4])
class TestPrefixDifferential:
    def test_vs_vectorized_all_variants(self, n, rng):
        dc = DualCube(n)
        for op, vals in (
            (ADD, rng.integers(0, 1000, dc.num_nodes)),
            (CONCAT, _obj([(int(x),) for x in rng.integers(0, 99, dc.num_nodes)])),
            (MATMUL2, _obj([
                tuple(int(v) for v in rng.integers(-2, 3, 4))
                for _ in range(dc.num_nodes)
            ])),
        ):
            for inclusive in (True, False):
                for paper_literal in (False, True):
                    cc = CostCounters(dc.num_nodes)
                    a, res = dual_prefix(
                        dc, vals, op, inclusive=inclusive,
                        paper_literal=paper_literal, backend="engine",
                    )
                    b = dual_prefix_replay(
                        dc, vals, op, inclusive=inclusive,
                        paper_literal=paper_literal, counters=cc,
                    )
                    assert list(a) == list(b)
                    assert _ledger(res.counters) == _ledger(cc)

    def test_vs_engine(self, n, rng):
        dc = DualCube(n)
        vals = _obj([(int(x),) for x in rng.integers(0, 99, dc.num_nodes)])
        for inclusive in (True, False):
            cc = CostCounters(dc.num_nodes)
            got = dual_prefix_replay(
                dc, vals, CONCAT, inclusive=inclusive, counters=cc
            )
            want, res = dual_prefix(
                dc, vals, CONCAT, inclusive=inclusive, backend="engine"
            )
            assert list(got) == list(want)
            e = res.counters
            assert cc.comm_steps == e.comm_steps
            assert cc.comp_steps == e.comp_steps
            assert cc.messages == e.messages
            assert cc.payload_items == e.payload_items
            assert cc.max_message_payload == e.max_message_payload


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("policy", ["packed", "single"])
class TestSortDifferential:
    def test_vs_vectorized(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.integers(0, 999, rdc.num_nodes)
        for descending in (False, True):
            cc = CostCounters(rdc.num_nodes)
            a, res = dual_sort(
                rdc, [int(k) for k in keys], descending=descending,
                payload_policy=policy, backend="engine",
            )
            b = dual_sort_replay(
                rdc, keys, descending=descending,
                payload_policy=policy, counters=cc,
            )
            assert b.tolist() == a
            assert _ledger(res.counters) == _ledger(cc)

    def test_vs_engine(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.integers(0, 999, rdc.num_nodes)
        cc = CostCounters(rdc.num_nodes)
        got = dual_sort_replay(rdc, keys, payload_policy=policy, counters=cc)
        want, res = dual_sort(
            rdc, [int(k) for k in keys], payload_policy=policy, backend="engine"
        )
        assert list(got) == want
        e = res.counters
        assert cc.comm_steps == e.comm_steps
        assert cc.comp_steps == e.comp_steps
        assert cc.messages == e.messages
        assert cc.payload_items == e.payload_items


@pytest.mark.parametrize("n", [2, 3, 4, 5])
class TestStaticScheduleParity:
    """Array-backend comm step counts equal the static extraction."""

    def test_prefix_steps(self, n, rng):
        from repro.analysis.static.extract import extract_schedule

        dc = DualCube(n)
        vals = [int(v) for v in rng.integers(0, 100, dc.num_nodes)]
        c = CostCounters(dc.num_nodes)
        dual_prefix_replay(dc, np.asarray(vals), ADD, counters=c)
        static = extract_schedule(dc, dual_prefix_program(dc, vals, ADD))
        assert c.comm_steps == static.steps

    def test_sort_steps(self, n, rng):
        from repro.analysis.static.extract import extract_schedule

        rdc = RecursiveDualCube(n)
        keys = [int(k) for k in rng.permutation(rdc.num_nodes)]
        c = CostCounters(rdc.num_nodes)
        dual_sort_replay(rdc, np.asarray(keys), counters=c)
        static = extract_schedule(
            rdc, schedule_program(rdc, keys, dual_sort_schedule(rdc.n))
        )
        assert c.comm_steps == static.steps


class TestLargeVariants:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    def test_large_prefix_parity(self, n, block, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 100, dc.num_nodes * block)
        cc = CostCounters(dc.num_nodes)
        a, res = large_prefix(dc, vals, ADD, backend="engine")
        b = large_prefix_replay(dc, vals, ADD, counters=cc)
        assert b.tolist() == list(a) == np.cumsum(vals).tolist()
        assert _ledger(res.counters) == _ledger(cc)

    def test_large_prefix_concat_objects(self, rng):
        dc = DualCube(2)
        vals = _obj([(i,) for i in range(dc.num_nodes * 3)])
        a, _ = large_prefix(dc, vals, CONCAT, backend="engine")
        b = large_prefix_replay(dc, vals, CONCAT)
        assert list(a) == list(b)
        assert b[-1] == tuple(range(dc.num_nodes * 3))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    @pytest.mark.parametrize("descending", [False, True])
    def test_large_sort_parity(self, n, block, descending, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes * block)
        cc, c1 = CostCounters(rdc.num_nodes), CostCounters(rdc.num_nodes)
        b = large_sort_replay(rdc, keys, descending=descending, counters=cc)
        assert b.tolist() == sorted(keys.tolist(), reverse=descending)
        # The D_sort ledger with B-key messages and a local-sort round.
        dual_sort(rdc, keys[:rdc.num_nodes], counters=c1)
        s, s1 = cc.summary(), c1.summary()
        assert (s["comm_steps"], s["messages"]) == (
            s1["comm_steps"], s1["messages"])
        assert s["payload_items"] == block * s1["payload_items"]
        assert s["comp_steps"] == s1["comp_steps"] + 1

    def test_large_sort_rejects_objects(self):
        rdc = RecursiveDualCube(2)
        keys = _obj([(i,) for i in range(rdc.num_nodes)])
        with pytest.raises(TypeError, match="numeric"):
            large_sort_replay(rdc, keys)


class TestDispatchers:
    """``columnar`` and ``vectorized`` are retired names: the registry
    rejects them like any unknown backend, and ``replay`` (the default)
    runs the view kernels."""

    def test_prefix_backend_flag(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 100, dc.num_nodes)
        assert np.array_equal(
            dual_prefix(dc, vals, ADD, backend="replay"),
            dual_prefix(dc, vals, ADD),
        )
        for retired in ("columnar", "vectorized"):
            with pytest.raises(ValueError, match="unknown backend"):
                dual_prefix(dc, vals, ADD, backend=retired)

    def test_sort_backend_flag(self, rng):
        rdc = RecursiveDualCube(3)
        keys = rng.permutation(rdc.num_nodes)
        assert np.array_equal(
            dual_sort(rdc, keys, backend="replay"), np.sort(keys)
        )
        for retired in ("columnar", "vectorized"):
            with pytest.raises(ValueError, match="unknown backend"):
                dual_sort(rdc, keys, backend=retired)

    def test_large_backend_flags(self, rng):
        dc, rdc = DualCube(2), RecursiveDualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes * 4)
        assert np.array_equal(
            large_prefix(dc, vals, ADD, backend="replay"), np.cumsum(vals)
        )
        assert np.array_equal(
            large_sort(rdc, vals, backend="replay"), np.sort(vals)
        )
        with pytest.raises(ValueError, match="unknown backend"):
            large_prefix(dc, vals, ADD, backend="columnar")
        with pytest.raises(ValueError, match="unknown backend"):
            large_sort(rdc, vals, backend="vectorized")

    def test_columnar_rejects_trace(self):
        from repro.simulator import TraceRecorder

        dc = DualCube(2)
        with pytest.raises(ValueError, match="unknown backend 'columnar'"):
            dual_prefix(
                dc, np.zeros(dc.num_nodes), ADD, backend="columnar",
                trace=TraceRecorder(),
            )
        rdc = RecursiveDualCube(2)
        tr = TraceRecorder()
        dual_sort(rdc, np.zeros(rdc.num_nodes), trace=tr)
        assert tr.labels()[0] == "input"

    def test_unknown_backend_names_columnar(self):
        dc = DualCube(2)
        with pytest.raises(
            ValueError, match=r"choose one of 'engine', 'replay'$"
        ):
            dual_prefix(dc, np.zeros(dc.num_nodes), ADD, backend="columnar")
        with pytest.raises(
            ValueError, match=r"choose one of 'engine', 'replay'$"
        ):
            large_prefix(dc, np.zeros(dc.num_nodes), ADD, backend="nope")

    def test_degenerate_schedule_step_rejected(self):
        from repro.core.dual_sort import ScheduleStep

        rdc = RecursiveDualCube(2)
        bad = [ScheduleStep(dim=1, dir_kind="bit", dir_val=1, phase="x")]
        with pytest.raises(ValueError, match="must lie above"):
            compile_schedule_plan(rdc, bad, kind="custom")
        below = [ScheduleStep(dim=2, dir_kind="bit", dir_val=0, phase="x")]
        with pytest.raises(ValueError, match="must lie above"):
            compile_schedule_plan(rdc, below, kind="custom")


@given(data=st.data(), n=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_property_prefix_matches_sequential_oracle(data, n):
    dc = DualCube(n)
    vals = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=-(10**6), max_value=10**6),
                min_size=dc.num_nodes,
                max_size=dc.num_nodes,
            )
        )
    )
    got = dual_prefix_replay(dc, vals, ADD)
    assert list(got) == sequential_prefix(list(vals), ADD)
    sorted_keys = dual_sort_replay(RecursiveDualCube(n), vals)
    assert np.array_equal(sorted_keys, np.sort(vals))


class TestMemoryScaling:
    def test_prefix_memory_is_o_nodes(self):
        """Peak heap stays within a small constant times the node count."""
        dc = DualCube(8)  # 32768 nodes
        vals = np.arange(dc.num_nodes, dtype=np.int64)
        dual_prefix_replay(dc, vals, ADD)  # plan compiled outside the probe
        tracemalloc.start()
        try:
            dual_prefix_replay(dc, vals, ADD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 4 int64 state columns + the received s' + output = ~48 B/node
        # (no arrangement permutation); 200 B/node plus fixed slack leaves
        # generous headroom
        # while still catching any O(nodes * rounds) or edge-list blowup.
        assert peak < 200 * dc.num_nodes + 4 * 1024 * 1024


class TestTimelineMirroring:
    def test_columnar_emits_same_step_records_as_vec(self, rng):
        # One comm record per static schedule step (the engine's count),
        # one comp record per computation step, in the engine's order.
        dc = DualCube(3)
        vals = rng.integers(0, 100, dc.num_nodes)
        c = CostCounters(dc.num_nodes)
        tl = TimelineRecorder(num_nodes=dc.num_nodes)
        c.attach_timeline(tl)
        dual_prefix_replay(dc, vals, ADD, counters=c)
        _, res = dual_prefix(dc, vals, ADD, backend="engine")
        kinds = [s.kind for s in tl.steps]
        assert kinds.count("comm") == res.counters.comm_steps
        assert kinds.count("comp") == res.counters.comp_steps
        assert kinds[:2] == ["comm", "comp"]
        assert get_prefix_plan(dc).comm_steps == res.counters.comm_steps
