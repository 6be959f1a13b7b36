"""Fault-injection layer: FaultPlan schedules + engine recovery semantics.

Covers plan validation, determinism of the seeded drop/delay hash, the
engine's crash/cut/drop/delay/timeout behaviors, and the headline
differential guarantee: an *empty* plan is byte-identical to no plan at
all.  Seeded drop, delay and downtime runs are pinned to golden
fingerprints in ``test_engine_differential.py``.  Engine tests taking
the ``faulty_run`` fixture run bare and again under a timeline recorder,
whose fault events must account for the run's fault counters.
"""

import math
import random

import pytest

from repro.core.dual_prefix import dual_prefix
from repro.core.dual_sort import dual_sort
from repro.core.ops import ADD
from repro.obs import TimelineRecorder
from repro.simulator import (
    FAULTED,
    FaultPlan,
    Idle,
    Recv,
    RequestTimeoutError,
    RetryLimitError,
    Send,
    SendRecv,
    run_spmd,
    use_fault_plan,
)
from repro.simulator.campaign import _coalesce_downtimes
from repro.simulator.faults import _down_at
from repro.topology import DualCube, Hypercube, RecursiveDualCube


def pairswap(ctx):
    """Every rank swaps with its bit-0 neighbor (D_1 and hypercubes)."""
    peer = ctx.rank ^ 1
    got = yield SendRecv(peer, ctx.rank)
    return got


def recv_facing_idle(ctx):
    """Rank 0 waits on rank 1, which idles once and returns."""
    if ctx.rank == 0:
        yield Recv(1)
    else:
        yield Idle()


def _run_recorded(topo, program, **kw):
    """``run_spmd`` under a timeline recorder that must account for the run.

    The recording holds one link event per counted delivery (per rank,
    by sender and receiver) and one fault event per counted drop, timeout
    and crash.  A run that fails on a fault has that fault as its last
    recorded event.
    """
    tl = TimelineRecorder(topo.num_nodes)
    try:
        result = run_spmd(topo, program, timeline=tl, **kw)
    except (RequestTimeoutError, RetryLimitError) as err:
        kind = "timeout" if isinstance(err, RequestTimeoutError) else "drop"
        last = tl.faults[-1]
        assert (last.cycle, last.kind, last.rank) == (err.cycle, kind, err.rank)
        raise
    c = result.counters
    n = topo.num_nodes
    assert [sum(e.src == r for e in tl.events) for r in range(n)] == (
        c.sends.tolist()
    )
    assert [sum(e.dst == r for e in tl.events) for r in range(n)] == (
        c.recvs.tolist()
    )
    assert max((e.cycle for e in tl.events), default=0) <= c.comm_steps
    counts = tl.fault_counts()
    assert counts["drop"] == c.messages_dropped
    assert counts["timeout"] == c.timeouts
    assert counts["crash"] == c.node_crashes == len(result.crashed_ranks)
    return result


@pytest.fixture(params=["bare", "recorded"])
def faulty_run(request):
    """``run_spmd`` as is, and again under an accounted timeline recorder."""
    return run_spmd if request.param == "bare" else _run_recorded


def _fingerprint(result):
    return {
        "returns": list(result.returns),
        "summary": result.counters.summary(),
        "sends": result.counters.sends.tolist(),
        "recvs": result.counters.recvs.tolist(),
        "active_cycles": result.counters.active_cycles,
        "crashed": result.crashed_ranks,
    }


class TestFaultPlanValidation:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(drop_rate=0.1).is_empty
        assert not FaultPlan(node_crashes={0: 1}).is_empty
        assert not FaultPlan(timeout=5).is_empty

    def test_self_loop_link_cut_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FaultPlan(link_cuts={(3, 3): 1})

    def test_self_loop_drop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FaultPlan(drops=[(2, 2, 1)])

    @pytest.mark.parametrize("kw", [
        {"drop_rate": -0.1},
        {"drop_rate": 1.5},
        {"delay_rate": 2.0},
        {"max_delay": 0},
        {"max_retries": -1},
        {"timeout": 0},
        {"on_timeout": "explode"},
        {"node_crashes": {0: 0}},
        {"link_cuts": {(0, 1): 0}},
        {"delays": {(0, 0): 0}},
    ])
    def test_bad_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            FaultPlan(**kw)

    def test_validate_for_checks_nodes_and_links(self):
        dc = DualCube(2)
        with pytest.raises(ValueError):
            FaultPlan(node_crashes={dc.num_nodes: 1}).validate_for(dc)
        # (0, 3) differ in two bits: never a dual-cube edge.
        with pytest.raises(ValueError, match="not an edge"):
            FaultPlan(link_cuts={(0, 3): 1}).validate_for(dc)

    def test_link_cuts_normalized(self):
        plan = FaultPlan(link_cuts={(1, 0): 2})
        assert not plan.link_up(0, 1, 2)
        assert not plan.link_up(1, 0, 2)
        assert plan.link_up(0, 1, 1)  # before the cut fires


class TestDeterminism:
    def test_drop_verdicts_are_pure(self):
        a = FaultPlan(drop_rate=0.3, seed=11)
        b = FaultPlan(drop_rate=0.3, seed=11)
        verdicts_a = [a.dropped(s, d, c) for s in range(4) for d in range(4)
                      for c in range(1, 20) if s != d]
        verdicts_b = [b.dropped(s, d, c) for s in range(4) for d in range(4)
                      for c in range(1, 20) if s != d]
        assert verdicts_a == verdicts_b
        assert any(verdicts_a) and not all(verdicts_a)

    def test_different_seeds_differ(self):
        a = FaultPlan(drop_rate=0.5, seed=1)
        b = FaultPlan(drop_rate=0.5, seed=2)
        va = [a.dropped(0, 1, c) for c in range(1, 200)]
        vb = [b.dropped(0, 1, c) for c in range(1, 200)]
        assert va != vb

    def test_per_link_drop_state_gives_the_rate_verdicts(self):
        """A caller that hashes a link's endpoints once (the serving loop)
        gets :meth:`FaultPlan.dropped`'s rate verdicts, which are the
        whole-hash draws ``_u01`` gives."""
        from repro.simulator.faults import _TAG_DROP, _rate_dropped, _u01

        plan = FaultPlan(drop_rate=0.3, seed=2**40 + 11)
        for s, d in [(0, 1), (1, 0), (5, 3), (1000, 2047)]:
            state = plan._drop_state(s, d)
            cycles = range(1, 400)
            verdicts = [plan.dropped(s, d, c) for c in cycles]
            assert [_rate_dropped(state, c, plan.drop_rate)
                    for c in cycles] == verdicts
            assert [_u01(plan.seed, _TAG_DROP, s, d, c) < plan.drop_rate
                    for c in cycles] == verdicts
            assert any(verdicts) and not all(verdicts)

    def test_delay_draws_bounded(self):
        plan = FaultPlan(delay_rate=1.0, max_delay=3, seed=5)
        for r in range(8):
            for c in range(10):
                assert 1 <= plan.issue_delay(r, c) <= 3

    def test_explicit_delay_precedes_rate(self):
        plan = FaultPlan(delay_rate=1.0, max_delay=3, delays={(0, 0): 7})
        assert plan.issue_delay(0, 0) == 7


class TestEmptyPlanDifferential:
    """Empty FaultPlan == no plan, byte for byte."""

    def test_dual_prefix_identical(self):
        dc = DualCube(2)
        vals = list(range(dc.num_nodes))
        _, bare = dual_prefix(dc, vals, ADD, backend="engine")
        with use_fault_plan(FaultPlan()):
            _, planned = dual_prefix(dc, vals, ADD, backend="engine")
        assert _fingerprint(planned) == _fingerprint(bare)

    def test_dual_sort_identical(self):
        rdc = RecursiveDualCube(2)
        keys = [(i * 5) % rdc.num_nodes for i in range(rdc.num_nodes)]
        _, bare = dual_sort(rdc, keys, backend="engine")
        with use_fault_plan(FaultPlan()):
            _, planned = dual_sort(rdc, keys, backend="engine")
        assert _fingerprint(planned) == _fingerprint(bare)


class TestDropsAndRetries:
    def test_explicit_drop_forces_one_retry(self, faulty_run):
        dc = DualCube(1)
        plan = FaultPlan(drops={(0, 1, 1)})
        r = faulty_run(dc, pairswap, fault_plan=plan)
        assert r.comm_steps == 2  # one blocked cycle, then the retry lands
        assert r.counters.messages_dropped == 1
        assert r.counters.retries == 1
        assert r.returns[0] == 1 and r.returns[1] == 0

    def test_certain_drop_exhausts_retries(self, faulty_run):
        dc = DualCube(1)
        plan = FaultPlan(drop_rate=1.0, max_retries=4)
        with pytest.raises(RetryLimitError) as exc:
            faulty_run(dc, pairswap, fault_plan=plan)
        assert exc.value.retries == 5

    def test_drop_blocks_both_sides_of_exchange(self):
        # Only 0->1 is scheduled to drop, but the whole SendRecv exchange
        # stays pending, so neither direction delivers that cycle.
        dc = DualCube(1)
        plan = FaultPlan(drops={(0, 1, 1)})
        tl = TimelineRecorder(dc.num_nodes)
        run_spmd(dc, pairswap, fault_plan=plan, timeline=tl)
        assert sorted((e.cycle, e.src, e.dst) for e in tl.events) == [
            (2, 0, 1), (2, 1, 0)]


class TestDelays:
    def test_explicit_delay_stretches_run(self, faulty_run):
        dc = DualCube(1)
        plan = FaultPlan(delays={(0, 0): 3})
        r = faulty_run(dc, pairswap, fault_plan=plan)
        assert r.comm_steps == 3  # held for cycles 1-2, lands at 3
        assert r.returns[0] == 1


class TestCrashesAndTimeouts:
    def test_crash_with_cancel_resumes_faulted(self, faulty_run):
        dc = DualCube(1)
        plan = FaultPlan(node_crashes={1: 1}, timeout=3, on_timeout="cancel")
        r = faulty_run(dc, pairswap, fault_plan=plan)
        assert r.crashed_ranks == (1,)
        assert r.returns[0] is FAULTED
        assert r.returns[1] is None
        assert r.counters.node_crashes == 1
        assert r.counters.timeouts == 1

    # (program, plan, rank that times out): a request issued at cycle 0
    # times out in cycle ``timeout`` exactly.
    TIMEOUTS = {
        "link-cut": (pairswap, FaultPlan(link_cuts={(0, 1): 1}, timeout=2), 0),
        "recv-facing-idle": (recv_facing_idle, FaultPlan(timeout=3), 0),
    }

    @pytest.mark.parametrize("case", TIMEOUTS)
    def test_timeout_raises_at_its_cycle(self, case, faulty_run):
        program, plan, rank = self.TIMEOUTS[case]
        with pytest.raises(RequestTimeoutError) as exc:
            faulty_run(Hypercube(1), program, fault_plan=plan)
        assert exc.value.rank == rank
        assert exc.value.timeout == plan.timeout
        assert exc.value.cycle == plan.timeout

    def test_late_link_cut_lets_early_traffic_through(self, faulty_run):
        h = Hypercube(1)

        def two_swaps(ctx):
            first = yield SendRecv(ctx.rank ^ 1, ("a", ctx.rank))
            second = yield SendRecv(ctx.rank ^ 1, ("b", ctx.rank))
            return (first, second)

        plan = FaultPlan(link_cuts={(0, 1): 2}, timeout=2, on_timeout="cancel")
        r = faulty_run(h, two_swaps, fault_plan=plan)
        assert r.returns[0][0] == ("a", 1)  # cycle 1 predates the cut
        assert r.returns[0][1] is FAULTED  # cycle 2 exchange never matches

    def test_cancelled_rank_can_reroute(self, faulty_run):
        # Rank 0's partner crashes; after FAULTED it reroutes the payload
        # to its other neighbor, exercising the recovery hook end-to-end.
        h = Hypercube(2)  # nodes 0..3, 0 is adjacent to 1 and 2

        def program(ctx):
            if ctx.rank == 0:
                got = yield SendRecv(1, "hello")
                if got is FAULTED:
                    got = yield SendRecv(2, "hello")
                return got
            if ctx.rank == 2:
                got = yield Idle()
                got = yield SendRecv(0, "fallback")
                return got
            if ctx.rank == 3:
                return None
            got = yield SendRecv(0, "primary")  # rank 1: crashes first
            return got

        plan = FaultPlan(node_crashes={1: 1}, timeout=1, on_timeout="cancel")
        r = faulty_run(h, program, fault_plan=plan)
        assert r.returns[0] == "fallback"
        assert r.returns[2] == "hello"
        assert r.crashed_ranks == (1,)

    def test_crash_before_any_cycle_discards_program(self, faulty_run):
        dc = DualCube(1)
        plan = FaultPlan(node_crashes={0: 1, 1: 1})
        r = faulty_run(dc, pairswap, fault_plan=plan)
        assert r.crashed_ranks == (0, 1)
        assert r.returns == [None] * dc.num_nodes


class TestTrafficFaults:
    def test_retransmissions_counted_and_deterministic(self):
        from repro.simulator.traffic import run_traffic
        dc = DualCube(2)
        from repro.routing.dualcube_routing import route
        pairs = [(0, 5), (3, 6), (1, 4)]
        plan = FaultPlan(drop_rate=0.3, seed=13, max_retries=50)
        a = run_traffic(dc, lambda u, v: route(dc, u, v), pairs, fault_plan=plan)
        b = run_traffic(dc, lambda u, v: route(dc, u, v), pairs, fault_plan=plan)
        clean = run_traffic(dc, lambda u, v: route(dc, u, v), pairs)
        assert a == b
        assert a.retransmissions > 0
        assert clean.retransmissions == 0
        assert a.total_hops == clean.total_hops + a.retransmissions

    def test_path_hops_exclude_retransmitted_attempts(self):
        """Regression: avg_hops used to inflate under a drop plan because
        retransmitted attempts were folded into the only hop total."""
        from repro.routing.dualcube_routing import route
        from repro.simulator.traffic import run_traffic
        dc = DualCube(2)
        pairs = [(0, 5), (3, 6), (1, 4)]
        plan = FaultPlan(drop_rate=0.3, seed=13, max_retries=50)
        a = run_traffic(dc, lambda u, v: route(dc, u, v), pairs, fault_plan=plan)
        clean = run_traffic(dc, lambda u, v: route(dc, u, v), pairs)
        # Logical hops: fault-independent, so a lossy run reports the same
        # path metrics as the clean run over the same pairs.
        assert a.path_hops == clean.path_hops == clean.total_hops
        assert a.avg_hops == clean.avg_hops
        # Physical hops: attempts included, and the two ledgers reconcile.
        assert a.total_hops == a.path_hops + a.retransmissions
        # Link-load metrics keep counting physical crossings.
        assert a.max_link_load >= clean.max_link_load
        assert a.load_imbalance > 0

    def test_certain_drop_exhausts_hop_retries(self):
        from repro.simulator.traffic import run_traffic
        dc = DualCube(1)
        plan = FaultPlan(drop_rate=1.0, max_retries=3)
        with pytest.raises(RetryLimitError):
            run_traffic(dc, lambda u, v: [u, v], [(0, 1)], fault_plan=plan)


class TestUseFaultPlan:
    def test_type_checked(self):
        with pytest.raises(TypeError):
            with use_fault_plan("not a plan"):
                pass

    def test_nested_runs_inherit_and_restore(self, faulty_run):
        dc = DualCube(1)
        plan = FaultPlan(drops={(0, 1, 1)})
        with use_fault_plan(plan):
            r = faulty_run(dc, pairswap)
            assert r.counters.messages_dropped == 1
        r = faulty_run(dc, pairswap)
        assert r.counters.messages_dropped == 0


class TestValidationGaps:
    """Schedule keys that can never fire are configuration bugs: reject
    them at construction instead of silently matching nothing."""

    @pytest.mark.parametrize("cycle", [0, -1, -7])
    def test_drop_trigger_cycle_before_first_match_rejected(self, cycle):
        # Messages first cross links at matching cycle 1; a trigger at
        # cycle 0 or below can never match an in-flight message.
        with pytest.raises(ValueError, match="cycle must be >= 1"):
            FaultPlan(drops=[(0, 1, cycle)])

    def test_drop_trigger_cycle_one_accepted(self):
        assert not FaultPlan(drops=[(0, 1, 1)]).is_empty

    def test_delay_negative_issue_cycle_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan(delays={(0, -1): 2})

    def test_delay_issue_cycle_zero_fires(self, faulty_run):
        # Initial requests are issued at cycle 0, before the first
        # matching cycle, so (rank, 0) keys are real and must fire.
        h = Hypercube(1)
        plain = faulty_run(h, pairswap)
        delayed = faulty_run(
            h, pairswap, fault_plan=FaultPlan(delays={(0, 0): 4}),
        )
        assert delayed.returns == plain.returns
        assert delayed.comm_steps > plain.comm_steps

    def test_issue_delay_clamps_at_upper_boundary(self):
        # Regression: the draw used to wrap modulo max_delay, so a
        # uniform draw at the top of the window produced a 1-cycle delay
        # instead of the maximum.  The clamp keeps every draw in
        # [1, max_delay] and the extremes stay reachable.
        for max_delay in (1, 2, 3, 7):
            plan = FaultPlan(delay_rate=1.0, max_delay=max_delay, seed=13)
            seen = {
                plan.issue_delay(r, c) for r in range(16) for c in range(64)
            }
            assert min(seen) >= 1
            assert max(seen) <= max_delay
            if max_delay > 1:
                # A quarter of draws land in each band at rate 1.0; 1024
                # draws make missing either extreme astronomically rare.
                assert 1 in seen and max_delay in seen

    def test_issue_delay_pure_across_instances(self):
        a = FaultPlan(delay_rate=0.7, max_delay=5, seed=21)
        b = FaultPlan(delay_rate=0.7, max_delay=5, seed=21)
        draws_a = [a.issue_delay(r, c) for r in range(8) for c in range(32)]
        draws_b = [b.issue_delay(r, c) for r in range(8) for c in range(32)]
        assert draws_a == draws_b


class TestDowntimeValidation:
    def test_basic_downtime_accepted(self):
        plan = FaultPlan(downtimes=[(1, 2, 5)])
        assert not plan.is_empty
        assert plan.downtimes == {1: ((2, 5),)}

    @pytest.mark.parametrize("interval", [(5, 5), (5, 2), (-1, 3)])
    def test_degenerate_intervals_rejected(self, interval):
        with pytest.raises(ValueError):
            FaultPlan(downtimes=[(0, *interval)])

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(downtimes=[(0, 1, 4), (0, 3, 6)])

    def test_touching_intervals_allowed_and_sorted(self):
        plan = FaultPlan(downtimes=[(0, 4, 6), (0, 1, 4)])
        assert plan.downtimes[0] == ((1, 4), (4, 6))
        assert all(plan.down(0, c) for c in range(1, 6))

    def test_validate_for_checks_ranks(self):
        dc = DualCube(2)
        with pytest.raises(ValueError):
            FaultPlan(downtimes=[(dc.num_nodes, 1, 2)]).validate_for(dc)
        FaultPlan(downtimes=[(0, 1, 2)]).validate_for(dc)

    def test_down_interval_is_half_open(self):
        plan = FaultPlan(downtimes=[(3, 2, 4)])
        assert not plan.down(3, 1)
        assert plan.down(3, 2)
        assert plan.down(3, 3)
        assert not plan.down(3, 4)  # rejoined

    def test_crash_implies_down(self):
        plan = FaultPlan(node_crashes={2: 3})
        assert not plan.down(2, 2)
        assert plan.down(2, 3) and plan.down(2, 99)

    def test_link_up_consults_downtimes(self):
        plan = FaultPlan(downtimes=[(1, 2, 4)])
        assert plan.link_up(0, 1, 1)
        assert not plan.link_up(0, 1, 2)
        assert not plan.link_up(1, 0, 3)
        assert plan.link_up(0, 1, 4)

    def test_static_view_carries_downs(self):
        view = FaultPlan(downtimes=[(1, 2, 4), (0, 1, 2)]).static_view()
        assert view.downs == ((0, 1, 2), (1, 2, 4))
        assert not view.is_empty


def _mixed_plan(topo, rng: random.Random) -> FaultPlan:
    """Crashes, cuts and coalesced downtimes at random cycles: overlapping
    and touching windows on one rank, and on both ends of one link."""
    edges = list(topo.edges())
    downs = [
        (rng.randrange(topo.num_nodes), start, start + rng.randint(1, 6))
        for start in (rng.randint(1, 20) for _ in range(rng.randint(0, 12)))
    ]
    return FaultPlan(
        node_crashes={
            r: rng.randint(1, 25)
            for r in rng.sample(range(topo.num_nodes), rng.randint(0, 2))
        },
        link_cuts={
            e: rng.randint(1, 25)
            for e in rng.sample(edges, rng.randint(0, 3))
        },
        downtimes=_coalesce_downtimes(downs),
    )


class TestLinkDownSpans:
    """``link_down_spans`` is the one definition of link liveness: the
    serving loop tests a link queue's spans and ``link_up`` answers from
    them, so they must agree with the plan's own cut and node verdicts."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_spans_match_cut_and_endpoint_verdicts(self, n, seed):
        dc = DualCube(n)
        plan = _mixed_plan(dc, random.Random(seed * 31 + n))
        for u, v in dc.edges():
            for a, b in ((u, v), (v, u)):
                spans = plan.link_down_spans(a, b)
                assert spans == plan.link_down_spans(b, a)
                # Sorted and disjoint, touching windows merged.
                for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                    assert s0 < e0 < s1 < e1
                ends = [e for _, e in spans if e != math.inf]
                last = max([s for s, _ in spans] + ends, default=0)
                cut = plan.link_cuts.get((u, v), math.inf)
                for c in range(last + 3):
                    down = cut <= c or plan.down(a, c) or plan.down(b, c)
                    assert _down_at(spans, c) == down, (a, b, c, spans)
                    assert plan.link_up(a, b, c) == (not down)

    def test_the_plans_exercise_every_span_shape(self):
        shapes = set()
        dc = DualCube(3)
        for seed in range(12):
            plan = _mixed_plan(dc, random.Random(seed * 31 + 3))
            for u, v in dc.edges():
                spans = plan.link_down_spans(u, v)
                shapes.add(len(spans))
                shapes.update(
                    "open" if e == math.inf else "closed" for _, e in spans
                )
        assert {0, 1, 2, "open", "closed"} <= shapes

    def test_a_link_without_faults_has_no_spans(self):
        plan = FaultPlan(node_crashes={5: 3}, downtimes=[(6, 2, 4)])
        assert plan.link_down_spans(0, 1) == ()
        assert plan.link_down_spans(4, 5) == ((3, math.inf),)


class TestDowntimeEngine:
    def test_downtime_stalls_but_preserves_results(self, faulty_run):
        # An offline window only delays the exchange: the rejoined node
        # completes its program and every return value matches the
        # fault-free run.
        h = Hypercube(1)
        plain = faulty_run(h, pairswap)
        plan = FaultPlan(downtimes=[(1, 1, 5)])
        faulty = faulty_run(h, pairswap, fault_plan=plan)
        assert faulty.returns == plain.returns
        assert faulty.crashed_ranks == ()
        assert faulty.comm_steps >= plain.comm_steps + 4

    def test_dual_prefix_values_survive_churn(self):
        dc = DualCube(2)
        vals = list(range(dc.num_nodes))
        expect, _ = dual_prefix(dc, vals, ADD, backend="engine")
        plan = FaultPlan(downtimes=[(0, 2, 4), (6, 3, 7)])
        with use_fault_plan(plan):
            got, _ = dual_prefix(dc, vals, ADD, backend="engine")
        assert list(got) == list(expect)

    def test_partner_timeout_can_fire_while_peer_is_down(self, faulty_run):
        # The held (offline) rank's own clock is suspended, but a healthy
        # partner waiting on it still times out like any other stall.
        h = Hypercube(1)
        plan = FaultPlan(
            downtimes=[(1, 1, 9)], timeout=3, on_timeout="raise"
        )
        with pytest.raises(RequestTimeoutError):
            faulty_run(h, pairswap, fault_plan=plan)

    def test_down_rank_does_not_timeout_while_offline(self, faulty_run):
        # With cancel semantics the down rank must not burn its timeout
        # budget while offline: after rejoining, the exchange completes.
        h = Hypercube(1)
        plan = FaultPlan(
            downtimes=[(1, 1, 3)], timeout=10, on_timeout="cancel"
        )
        r = faulty_run(h, pairswap, fault_plan=plan)
        assert r.returns == [1, 0]
