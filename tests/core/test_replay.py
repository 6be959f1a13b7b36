"""The array backend (``replay``): descriptor plans vs the extractor,
parity with the engine oracle and numpy (results, counters, timelines),
the per-cluster sharded prefix path, and the plan cache's
statistics/metrics surface.

The ``*_matches_vectorized`` tests predate the removal of the separate
``vectorized`` backend, which was byte-identical to the engine; they now
pin the array backend to the engine's results and ledger directly.
Plan validation against the extractor runs here (``TestPlanValidation``)
rather than on first use at runtime."""

import numpy as np
import pytest

from repro.analysis.static import extract_schedule
from repro.analysis.static.compile import (
    PlanError,
    check_plan,
    compile_prefix_plan,
    compile_schedule_plan,
    plan_comm_schedule,
)
from repro.core import (
    ADD,
    CONCAT,
    MAX,
    bitonic_schedule,
    clear_plan_cache,
    dual_prefix,
    dual_sort,
    hypercube_bitonic_sort,
    large_prefix,
    plan_cache_stats,
    sequential_prefix,
)
from repro.core.dual_prefix import dual_prefix_program
from repro.core.dual_sort import dual_sort_schedule, schedule_program
from repro.core.replay import (
    dual_prefix_replay,
    dual_sort_replay,
    get_prefix_plan,
    get_schedule_plan,
    hypercube_bitonic_sort_replay,
    large_prefix_replay,
    large_sort_replay,
)
from repro.obs import TimelineRecorder, cross_validate_timeline
from repro.simulator import CostCounters, TraceRecorder, run_spmd
from repro.topology import DualCube, Hypercube, RecursiveDualCube


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test sees an empty plan cache (and leaves none behind)."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def _obj(items):
    out = np.empty(len(items), dtype=object)
    out[:] = list(items)
    return out


class TestCompiledPlans:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_prefix_plan_validates_against_extractor(self, n, paper_literal):
        dc = DualCube(n)
        plan = compile_prefix_plan(dc, paper_literal=paper_literal)
        assert plan.comm_steps == 2 * n + (1 if paper_literal else 0)
        sched = plan_comm_schedule(plan, dc)
        extracted = extract_schedule(
            dc,
            dual_prefix_program(
                dc, _obj(range(dc.num_nodes)), ADD,
                paper_literal=paper_literal,
            ),
        )
        assert sched.steps == extracted.steps
        assert sched.comp_steps == extracted.comp_steps
        key = lambda s: sorted(
            (e.step, e.src, e.dst, e.kind, e.size) for e in s.events
        )
        assert key(sched) == key(extracted)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_sort_plan_schedule_matches_extractor(self, n, policy):
        rdc = RecursiveDualCube(n)
        schedule = dual_sort_schedule(rdc.n)
        plan = compile_schedule_plan(rdc, schedule, kind="dual_sort")
        sched = plan_comm_schedule(plan, rdc, payload_policy=policy)
        extracted = extract_schedule(
            rdc,
            schedule_program(
                rdc, list(range(rdc.num_nodes)), list(schedule),
                payload_policy=policy,
            ),
        )
        assert sched.steps == extracted.steps
        key = lambda s: sorted(
            (e.step, e.src, e.dst, e.kind, e.size) for e in s.events
        )
        assert key(sched) == key(extracted)

    def test_engine_timeline_matches_plan_schedule(self):
        # The compiled plan's predicted CommSchedule is exactly what a
        # recorded engine run produces, cycle for cycle.
        dc = DualCube(3)
        plan = compile_prefix_plan(dc)
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        run_spmd(
            dc,
            dual_prefix_program(dc, _obj(range(dc.num_nodes)), ADD),
            timeline=t,
        )
        assert cross_validate_timeline(t, plan_comm_schedule(plan, dc)) == []

    def test_engine_timeline_matches_sort_plan_schedule(self):
        rdc = RecursiveDualCube(2)
        schedule = dual_sort_schedule(rdc.n)
        plan = compile_schedule_plan(rdc, schedule, kind="dual_sort")
        t = TimelineRecorder(num_nodes=rdc.num_nodes)
        run_spmd(
            rdc,
            schedule_program(
                rdc, list(range(rdc.num_nodes)), list(schedule)
            ),
            timeline=t,
        )
        assert cross_validate_timeline(t, plan_comm_schedule(plan, rdc)) == []

    def test_validate_false_skips_extraction(self, monkeypatch):
        # Compilation is structural: it never runs the extractor (the
        # test suite validates plans instead, see TestPlanValidation).
        import repro.analysis.static.compile as compile_mod

        def boom(*args, **kwargs):
            raise AssertionError("compilation ran the extractor")

        monkeypatch.setattr(compile_mod, "extract_schedule", boom)
        assert compile_prefix_plan(DualCube(2)).rounds == (0,)
        plan = compile_schedule_plan(
            RecursiveDualCube(2), dual_sort_schedule(2), kind="dual_sort",
        )
        assert len(plan.steps) == 6

    def test_doctored_plan_fails_validation(self):
        # A plan claiming the paper-literal extra cross step predicts
        # one more communication step than the non-literal program runs.
        from dataclasses import replace

        dc = DualCube(2)
        check_plan(compile_prefix_plan(dc), dc)
        doctored = replace(compile_prefix_plan(dc), rounds=())
        with pytest.raises(PlanError, match="step count"):
            check_plan(doctored, dc)

    def test_plan_comm_schedule_rejects_other_types(self):
        with pytest.raises(
            TypeError,
            match="expected PrefixDescriptor or ScheduleDescriptor",
        ):
            plan_comm_schedule(object(), DualCube(2))


class TestPlanValidation:
    """Every plan the algorithms use up to 512 nodes, checked against the
    record-only extractor (formerly done on first use at runtime)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_prefix(self, n, paper_literal):
        dc = DualCube(n)
        check_plan(get_prefix_plan(dc, paper_literal=paper_literal), dc)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("descending", [False, True])
    def test_dual_sort(self, n, descending):
        rdc = RecursiveDualCube(n)
        plan = get_schedule_plan(
            rdc, lambda: dual_sort_schedule(n, descending=descending),
            kind="dual_sort", descending=descending,
        )
        check_plan(plan, rdc)

    @pytest.mark.parametrize("q", range(1, 10))
    @pytest.mark.parametrize("descending", [False, True])
    def test_bitonic(self, q, descending):
        cube = Hypercube(q)
        plan = get_schedule_plan(
            cube, lambda: bitonic_schedule(q, descending=descending),
            kind="bitonic", descending=descending,
        )
        check_plan(plan, cube)

    def test_second_default_call_hits_the_cache(self, rng):
        dc, rdc = DualCube(3), RecursiveDualCube(3)
        for _ in range(2):
            dual_prefix(dc, rng.integers(0, 9, dc.num_nodes), ADD)
            dual_sort(rdc, rng.permutation(rdc.num_nodes))
        s = plan_cache_stats()
        assert (s["misses"], s["hits"]) == (2, 2)


class TestCountersSize:
    """Counters sized for another network are rejected on every entry
    point's array backend; a ledger of the wrong length used to report
    silently wrong ``comp_steps`` and ``total_ops``."""

    @staticmethod
    def _calls(n):
        from repro.core import cube_prefix, emulated_cube_prefix, ring_sort
        from repro.core.large_inputs import large_prefix, large_sort
        from repro.routing import allreduce

        dc, rdc = DualCube(n), RecursiveDualCube(n)
        num = dc.num_nodes
        return {
            "dual_prefix": lambda c: dual_prefix(
                dc, np.arange(num), ADD, counters=c),
            "dual_sort": lambda c: dual_sort(
                rdc, np.arange(num)[::-1], counters=c),
            "large_prefix": lambda c: large_prefix(
                dc, np.arange(2 * num), ADD, counters=c),
            "large_sort": lambda c: large_sort(
                rdc, np.arange(2 * num)[::-1], counters=c),
            "bitonic": lambda c: hypercube_bitonic_sort(
                np.arange(num)[::-1], counters=c),
            "cube_prefix": lambda c: cube_prefix(
                np.arange(num), ADD, counters=c),
            "emulated_cube_prefix": lambda c: emulated_cube_prefix(
                rdc, np.arange(num), ADD, counters=c),
            "allreduce": lambda c: allreduce(
                dc, np.arange(num), ADD, counters=c),
            "ring_sort": lambda c: ring_sort(
                rdc, np.arange(num)[::-1], counters=c),
        }

    @pytest.mark.parametrize("entry", ["dual_prefix", "dual_sort",
                                       "large_prefix", "large_sort",
                                       "bitonic", "cube_prefix",
                                       "emulated_cube_prefix", "allreduce",
                                       "ring_sort"])
    @pytest.mark.parametrize("size", [4, 31, 33, 1000])
    def test_wrong_size_rejected(self, entry, size):
        c = CostCounters(size)
        with pytest.raises(ValueError, match="counters are sized for"):
            self._calls(3)[entry](c)
        assert c.summary() == CostCounters(size).summary()


class TestTraceAndTimeline:
    """``trace=`` snapshots equal the engine's record for record, and the
    engine's timeline cross-validates against every plan's schedule."""

    @staticmethod
    def _records(tr, num):
        return [(label, list(tr.snapshot(label, num)))
                for label in tr.labels()]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_prefix_trace_matches_engine(self, n, inclusive, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 100, dc.num_nodes)
        rep, eng = TraceRecorder(), TraceRecorder()
        dual_prefix(dc, vals, ADD, inclusive=inclusive, trace=rep)
        dual_prefix(dc, vals, ADD, backend="engine", inclusive=inclusive,
                    trace=eng)
        assert self._records(rep, dc.num_nodes) == self._records(
            eng, dc.num_nodes)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sort_trace_matches_engine(self, n, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes)
        rep, eng = TraceRecorder(), TraceRecorder()
        dual_sort(rdc, keys, descending=True, trace=rep)
        dual_sort(rdc, [int(k) for k in keys], backend="engine",
                  descending=True, trace=eng)
        assert self._records(rep, rdc.num_nodes) == self._records(
            eng, rdc.num_nodes)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_prefix_engine_timeline_cross_validates(self, n, paper_literal):
        dc = DualCube(n)
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        run_spmd(dc, dual_prefix_program(
            dc, _obj(range(dc.num_nodes)), ADD, paper_literal=paper_literal,
        ), timeline=t)
        plan = get_prefix_plan(dc, paper_literal=paper_literal)
        assert cross_validate_timeline(t, plan_comm_schedule(plan, dc)) == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_sort_engine_timeline_cross_validates(self, n, policy):
        rdc = RecursiveDualCube(n)
        t = TimelineRecorder(num_nodes=rdc.num_nodes)
        run_spmd(rdc, schedule_program(
            rdc, list(range(rdc.num_nodes)), dual_sort_schedule(n),
            payload_policy=policy,
        ), timeline=t)
        plan = get_schedule_plan(rdc, lambda: dual_sort_schedule(n),
                                 kind="dual_sort")
        assert cross_validate_timeline(
            t, plan_comm_schedule(plan, rdc, payload_policy=policy)) == []


def _engine_prefix(dc, vals, **kw):
    out, res = dual_prefix(dc, vals, ADD, **kw, backend="engine")
    return [int(x) for x in out], res.counters.summary()


class TestDualPrefixReplay:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_vectorized(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes)
        c_rep = CostCounters(dc.num_nodes)
        rep = dual_prefix_replay(dc, vals, ADD, counters=c_rep)
        assert rep.dtype == vals.dtype
        assert rep.tolist() == np.cumsum(vals).tolist()
        if n <= 3:
            assert (rep.tolist(), c_rep.summary()) == _engine_prefix(dc, vals)

    @pytest.mark.parametrize("inclusive", [True, False])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_variants_match(self, inclusive, paper_literal, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 1000, dc.num_nodes)
        c_rep = CostCounters(dc.num_nodes)
        rep = dual_prefix_replay(
            dc, vals, ADD, inclusive=inclusive, paper_literal=paper_literal,
            counters=c_rep,
        )
        assert (rep.tolist(), c_rep.summary()) == _engine_prefix(
            dc, vals, inclusive=inclusive, paper_literal=paper_literal
        )

    def test_non_commutative_object_op(self):
        # CONCAT catches any operand-order or dtype slip in the in-place
        # rounds (it is non-commutative and object-dtype).
        dc = DualCube(2)
        vals = _obj([(k,) for k in range(dc.num_nodes)])
        out = dual_prefix_replay(dc, vals, CONCAT)
        assert list(out) == sequential_prefix(list(vals), CONCAT)

    def test_other_ufunc_op(self, rng):
        dc = DualCube(3)
        vals = rng.integers(-500, 500, dc.num_nodes)
        rep = dual_prefix_replay(dc, vals, MAX)
        assert rep.tolist() == np.maximum.accumulate(vals).tolist()

    def test_shape_check(self):
        dc = DualCube(2)
        for backend in ("replay", "engine"):
            with pytest.raises(ValueError, match="expected 8 values"):
                dual_prefix(dc, np.arange(7), ADD, backend=backend)

    def test_timeline_mirrors_vectorized(self, rng):
        # The bulk step records match the plan's static schedule step for
        # step, as the engine's cycle records do.
        dc = DualCube(3)
        vals = rng.integers(0, 100, dc.num_nodes)
        c = CostCounters(dc.num_nodes)
        tl = TimelineRecorder(num_nodes=dc.num_nodes)
        c.attach_timeline(tl)
        dual_prefix_replay(dc, vals, ADD, counters=c)
        sched = plan_comm_schedule(get_prefix_plan(dc), dc)
        comm = [r for r in tl.steps if r.kind == "comm"]
        assert [r.messages for r in comm] == [dc.num_nodes] * sched.steps
        assert sum(r.kind == "comp" for r in tl.steps) == sched.comp_steps


class TestShardedReplay:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_matches_unsharded(self, n, shards, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes)
        c_one, c_sh = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        one = dual_prefix_replay(dc, vals, ADD, counters=c_one)
        out = dual_prefix_replay(
            dc, vals, ADD, counters=c_sh, shards=shards
        )
        assert out.tolist() == one.tolist() == np.cumsum(vals).tolist()
        # The cost ledger is data-independent: sharding must not change it.
        assert c_sh.summary() == c_one.summary()
        assert c_sh.comp_ops.tolist() == c_one.comp_ops.tolist()

    def test_exclusive_scan_sharded(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 1000, dc.num_nodes)
        out = dual_prefix_replay(
            dc, vals, ADD, inclusive=False, shards=2
        )
        one = dual_prefix_replay(dc, vals, ADD, inclusive=False)
        assert out.tolist() == one.tolist()

    def test_shards_one_is_the_plain_path(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes)
        out = dual_prefix_replay(dc, vals, ADD, shards=1)
        assert out.tolist() == np.cumsum(vals).tolist()

    def test_shards_validated(self):
        dc = DualCube(2)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            dual_prefix_replay(dc, np.arange(dc.num_nodes), ADD, shards=0)

    def test_requires_ufunc_op(self):
        dc = DualCube(2)
        vals = _obj(["a"] * dc.num_nodes)
        with pytest.raises(
            ValueError, match="requires an operation with a numpy ufunc"
        ):
            dual_prefix_replay(dc, vals, CONCAT, shards=2)

    def test_requires_numeric_dtype(self):
        dc = DualCube(2)
        vals = _obj(range(dc.num_nodes))
        with pytest.raises(ValueError, match="numeric values only"):
            dual_prefix_replay(dc, vals, ADD, shards=2)


class TestScheduleReplay:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_dual_sort_matches_vectorized(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes)
        c_rep = CostCounters(rdc.num_nodes)
        rep = dual_sort_replay(
            rdc, keys, payload_policy=policy, counters=c_rep
        )
        assert rep.tolist() == sorted(keys.tolist())
        if n <= 3:
            eng, res = dual_sort(rdc, keys, payload_policy=policy, backend="engine")
            assert rep.tolist() == [int(k) for k in eng]
            assert c_rep.summary() == res.counters.summary()

    @pytest.mark.parametrize("descending", [False, True])
    def test_descending_and_duplicates(self, descending, rng):
        rdc = RecursiveDualCube(2)
        keys = rng.integers(0, 4, rdc.num_nodes)
        rep = dual_sort_replay(rdc, keys, descending=descending)
        assert rep.tolist() == sorted(keys.tolist(), reverse=descending)

    def test_object_keys_fall_back(self):
        rdc = RecursiveDualCube(2)
        keys = _obj(list(reversed(range(rdc.num_nodes))))
        c_rep = CostCounters(rdc.num_nodes)
        rep = dual_sort_replay(rdc, keys, counters=c_rep)
        assert rep.dtype == object
        eng, res = dual_sort(rdc, keys, backend="engine")
        assert rep.tolist() == list(eng) == sorted(keys.tolist())
        assert c_rep.summary() == res.counters.summary()

    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_bitonic_matches_vectorized(self, q, rng):
        keys = rng.permutation(2**q)
        c_rep = CostCounters(len(keys))
        rep = hypercube_bitonic_sort_replay(keys, counters=c_rep)
        eng, res = hypercube_bitonic_sort(list(keys), backend="engine")
        assert rep.tolist() == [int(k) for k in eng] == sorted(keys.tolist())
        assert c_rep.summary() == res.counters.summary()

    def test_bitonic_power_of_two_check(self):
        for backend in ("replay", "engine"):
            with pytest.raises(
                ValueError, match="key count must be a power of two, got 6"
            ):
                hypercube_bitonic_sort(np.arange(6), backend=backend)


class TestLargeInputReplay:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("b", [1, 4])
    def test_large_prefix_matches_vectorized(self, n, b, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes * b)
        c_rep = CostCounters(dc.num_nodes)
        rep = large_prefix_replay(dc, vals, ADD, counters=c_rep)
        eng, res = large_prefix(dc, vals, ADD, backend="engine")
        assert rep.tolist() == [int(x) for x in eng] == np.cumsum(
            vals).tolist()
        assert c_rep.summary() == res.counters.summary()

    def test_large_prefix_sharded_network_phase(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 1000, dc.num_nodes * 4)
        c_one, c_rep = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        one = large_prefix_replay(dc, vals, ADD, counters=c_one)
        rep = large_prefix_replay(
            dc, vals, ADD, counters=c_rep, shards=2
        )
        assert rep.tolist() == one.tolist() == np.cumsum(vals).tolist()
        assert c_rep.summary() == c_one.summary()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_large_sort_matches_vectorized(self, n, policy, rng):
        # Merge-split rounds: the D_sort ledger with B-key messages and
        # 2B-op merges, plus one local-sort round.
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes * 4)
        c_rep, c_one = CostCounters(rdc.num_nodes), CostCounters(rdc.num_nodes)
        rep = large_sort_replay(
            rdc, keys, payload_policy=policy, counters=c_rep
        )
        dual_sort_replay(rdc, keys[:rdc.num_nodes], payload_policy=policy,
                         counters=c_one)
        assert rep.tolist() == sorted(keys.tolist())
        s_rep, s_one = c_rep.summary(), c_one.summary()
        assert s_rep["comm_steps"] == s_one["comm_steps"]
        assert s_rep["messages"] == s_one["messages"]
        assert s_rep["payload_items"] == 4 * s_one["payload_items"]
        assert s_rep["comp_steps"] == s_one["comp_steps"] + 1

    def test_large_sort_profiler_spans(self, rng):
        from repro.obs.profile import PhaseProfiler

        rdc = RecursiveDualCube(2)
        keys = rng.permutation(rdc.num_nodes * 2)
        prof = PhaseProfiler()
        large_sort_replay(rdc, keys, profiler=prof)
        totals = prof.totals()
        assert "local-sort" in totals
        assert len(totals) > 1  # plus the schedule's recursion segments

    def test_large_sort_object_keys_rejected(self):
        rdc = RecursiveDualCube(2)
        keys = _obj(range(rdc.num_nodes * 2))
        with pytest.raises(TypeError, match="numeric keys only"):
            large_sort_replay(rdc, keys)


class TestPlanCache:
    def test_hits_and_misses(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes)
        assert plan_cache_stats() == {
            "hits": 0, "misses": 0, "compile_seconds": 0.0, "size": 0,
        }
        dual_prefix_replay(dc, vals, ADD)
        s1 = plan_cache_stats()
        assert (s1["hits"], s1["misses"], s1["size"]) == (0, 1, 1)
        assert s1["compile_seconds"] > 0
        dual_prefix_replay(dc, vals, ADD)
        s2 = plan_cache_stats()
        assert (s2["hits"], s2["misses"], s2["size"]) == (1, 1, 1)
        # compile time is only spent on misses.
        assert s2["compile_seconds"] == s1["compile_seconds"]

    def test_distinct_keys_compile_separately(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes)
        dual_prefix_replay(dc, vals, ADD)
        dual_prefix_replay(dc, vals, ADD, paper_literal=True)
        dual_prefix_replay(DualCube(3), np.arange(32), ADD)
        assert plan_cache_stats()["size"] == 3

    def test_payload_policy_shares_one_plan(self, rng):
        # The plan content is policy-independent (the policy only changes
        # runtime counter charging), so both policies hit one cache entry.
        rdc = RecursiveDualCube(2)
        keys = rng.permutation(rdc.num_nodes)
        dual_sort_replay(rdc, keys, payload_policy="packed")
        dual_sort_replay(rdc, keys, payload_policy="single")
        s = plan_cache_stats()
        assert (s["hits"], s["misses"]) == (1, 1)

    def test_clear_resets(self, rng):
        dc = DualCube(2)
        dual_prefix_replay(dc, np.arange(dc.num_nodes), ADD)
        clear_plan_cache()
        assert plan_cache_stats() == {
            "hits": 0, "misses": 0, "compile_seconds": 0.0, "size": 0,
        }

    def test_factory_only_called_on_miss(self):
        rdc = RecursiveDualCube(2)
        calls = []

        def factory():
            calls.append(1)
            return dual_sort_schedule(rdc.n)

        get_schedule_plan(rdc, factory, kind="dual_sort")
        get_schedule_plan(rdc, factory, kind="dual_sort")
        assert len(calls) == 1

    def test_get_prefix_plan_is_cached(self):
        dc = DualCube(2)
        assert get_prefix_plan(dc) is get_prefix_plan(dc)

