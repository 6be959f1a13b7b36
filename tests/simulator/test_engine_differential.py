"""The engine against its oracles: the static extractor and golden runs.

:func:`~repro.analysis.static.extract_schedule` is a separate
implementation of the engine's lockstep matching rule.  Every
engine-backed run with a program to extract is recorded with a timeline
recorder, and the recording must equal the extracted schedule event for
event (cycle, endpoints, request kind, payload size).  The run's counters
must equal the tallies of the extracted events: per-rank sends and
receives, messages, payload items, active cycles and computation steps.

Runs with no program factory to extract (the collectives, the ring
allreduce, the blocked ``large_prefix``) and runs under fault plans,
which the extractor does not model, are pinned to the fingerprints in
``engine_golden.json``.  They were recorded while a second,
whole-snapshot matcher still checked every engine run against this one.
The file has no write mode: change a value only when the matching
semantics change on purpose, and say why.
"""

import json
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.static import extract_schedule
from repro.core.dual_prefix import dual_prefix, dual_prefix_program
from repro.core.dual_sort import (
    dual_sort,
    dual_sort_schedule,
    schedule_program,
)
from repro.core.large_inputs import large_prefix
from repro.core.ops import ADD, MAX, AssocOp
from repro.obs import TimelineRecorder, cross_validate_timeline
from repro.routing import (
    allgather_engine,
    allreduce,
    broadcast_engine,
    gather_engine,
    scatter_engine,
)
from repro.routing.fault_tolerant import ft_route
from repro.routing.ring_allreduce import ring_allreduce_engine
from repro.simulator import (
    FaultPlan,
    Idle,
    Recv,
    Send,
    SendRecv,
    run_spmd,
    use_timeline,
)
from repro.topology import (
    DualCube,
    FaultSet,
    FaultyTopology,
    Hypercube,
    RecursiveDualCube,
)

GOLDEN = Path(__file__).with_name("engine_golden.json")


def assert_matches_extractor(topo, program, run=None):
    """Check one engine run of ``program`` against its extracted schedule.

    ``run`` performs the run (an engine-backed algorithm that runs
    ``program``) and returns its EngineResult; by default ``program`` is
    run directly.
    """
    tl = TimelineRecorder(topo.num_nodes)
    with use_timeline(tl):
        result = run() if run is not None else run_spmd(topo, program)
    sched = extract_schedule(topo, program)
    assert sched.completed
    assert cross_validate_timeline(tl, sched) == []
    events = sched.events
    sends = Counter(e.src for e in events)
    recvs = Counter(e.dst for e in events)
    c = result.counters
    assert c.sends.tolist() == [sends[r] for r in range(topo.num_nodes)]
    assert c.recvs.tolist() == [recvs[r] for r in range(topo.num_nodes)]
    assert c.messages == len(events)
    assert c.payload_items == sum(e.size for e in events)
    assert c.active_cycles == len({e.step for e in events})
    assert c.comp_steps == sched.comp_steps
    return result


def _fingerprint(result):
    """Everything a golden run pins, as JSON-ready data."""
    fp = {
        "returns": list(result.returns),
        "summary": result.counters.summary(),
        "sends": result.counters.sends.tolist(),
        "recvs": result.counters.recvs.tolist(),
        "active_cycles": result.counters.active_cycles,
        "crashed": list(result.crashed_ranks),
    }
    # Round trip: numpy scalars become ints, tuples lists, int keys strs.
    return json.loads(json.dumps(fp, default=int))


@cache
def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def assert_matches_golden(key, result):
    assert _fingerprint(result) == _golden()[key], key


class TestCoreAlgorithms:
    @pytest.mark.parametrize("op", [ADD, MAX], ids=["add", "max"])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_dual_prefix_engine(self, small_n, op, paper_literal, rng):
        dc = DualCube(small_n)
        vals = [int(x) for x in rng.integers(0, 100, dc.num_nodes)]

        expected = []
        for v in vals:
            expected.append(v if not expected else op(expected[-1], v))

        def run():
            out, result = dual_prefix(
                dc, vals, op, paper_literal=paper_literal, backend="engine"
            )
            assert list(out) == expected
            return result

        program = dual_prefix_program(dc, vals, op, paper_literal=paper_literal)
        assert_matches_extractor(dc, program, run)

    def test_dual_prefix_engine_non_commutative(self, small_n):
        dc = DualCube(small_n)
        strcat = AssocOp("strcat", lambda a, b: a + b, "", commutative=False)
        vals = [f"<{k}>" for k in range(dc.num_nodes)]

        def run():
            out, result = dual_prefix(dc, vals, strcat, backend="engine")
            assert out[-1] == "".join(vals)
            return result

        assert_matches_extractor(dc, dual_prefix_program(dc, vals, strcat), run)

    @pytest.mark.parametrize("payload_policy", ["packed", "single"])
    def test_dual_sort_engine(self, small_n, payload_policy, rng):
        rdc = RecursiveDualCube(small_n)
        keys = [int(x) for x in rng.permutation(rdc.num_nodes)]

        def run():
            out, result = dual_sort(
                rdc, keys, payload_policy=payload_policy, backend="engine"
            )
            assert out == sorted(keys)
            return result

        program = schedule_program(
            rdc, keys, dual_sort_schedule(small_n),
            payload_policy=payload_policy,
        )
        assert_matches_extractor(rdc, program, run)

    def test_large_prefix_engine(self, rng):
        dc = DualCube(2)
        vals = [int(x) for x in rng.integers(0, 50, dc.num_nodes * 4)]
        out, result = large_prefix(dc, vals, ADD, backend="engine")
        assert list(out) == list(np.cumsum(vals))
        assert_matches_golden("large_prefix/D_2", result)


class TestCollectives:
    def test_broadcast(self, small_n):
        dc = DualCube(small_n)
        values, result = broadcast_engine(dc, 0, "tok")
        assert values == ["tok"] * dc.num_nodes
        assert_matches_golden(f"broadcast/D_{small_n}", result)

    def test_allreduce(self, small_n, rng):
        dc = DualCube(small_n)
        vals = [int(x) for x in rng.integers(0, 100, dc.num_nodes)]
        totals, result = allreduce(dc, vals, ADD, backend="engine")
        assert totals == [sum(vals)] * dc.num_nodes
        assert_matches_golden(f"allreduce/D_{small_n}", result)

    def test_scatter_gather_allgather(self, small_n):
        dc = DualCube(small_n)
        items = [f"item{k}" for k in range(dc.num_nodes)]
        _, result = scatter_engine(dc, 0, items)
        assert_matches_golden(f"scatter/D_{small_n}", result)
        _, result = gather_engine(dc, 0, items)
        assert_matches_golden(f"gather/D_{small_n}", result)
        _, result = allgather_engine(dc, items)
        assert_matches_golden(f"allgather/D_{small_n}", result)

    def test_ring_allreduce_shift_heavy(self, small_n, rng):
        rdc = RecursiveDualCube(small_n)
        if rdc.num_nodes < 3:
            pytest.skip("ring needs >= 3 nodes")
        vectors = rng.integers(0, 20, (rdc.num_nodes, rdc.num_nodes)).tolist()
        results, result = ring_allreduce_engine(rdc, vectors, ADD)
        expected = list(np.asarray(vectors).sum(axis=0))
        assert all(list(r) == expected for r in results)
        assert_matches_golden(f"ring_allreduce/RDC_{small_n}", result)


class TestFaultPlans:
    """Seeded fault plans: the engine's fault semantics, pinned."""

    @staticmethod
    def pairswap(ctx):
        got = yield SendRecv(ctx.rank ^ 1, ctx.rank)
        return got

    def test_seeded_drops(self):
        plan = FaultPlan(drop_rate=0.25, seed=3, max_retries=100)
        result = run_spmd(Hypercube(3), self.pairswap, fault_plan=plan)
        assert result.counters.messages_dropped > 0
        assert_matches_golden("drops/Q_3", result)

    def test_seeded_delays(self):
        plan = FaultPlan(delay_rate=0.5, max_delay=2, seed=9)
        result = run_spmd(Hypercube(3), self.pairswap, fault_plan=plan)
        assert_matches_golden("delays/Q_3", result)

    def test_downtimes(self):
        dc = DualCube(2)
        vals = list(range(dc.num_nodes))
        plan = FaultPlan(downtimes=[(3, 2, 6), (5, 1, 3), (5, 7, 9)])
        result = run_spmd(dc, dual_prefix_program(dc, vals, ADD),
                          fault_plan=plan)
        assert_matches_golden("downtimes/D_2", result)


class TestFaultTolerantRouting:
    def test_store_and_forward_over_ft_paths(self):
        """Tokens relayed hop-by-hop along fault-tolerant routes.

        The per-hop Send/Recv/Idle weave exercises the snapshot pruning:
        most requests block for many cycles while one hop at a time
        completes.
        """
        dc = DualCube(2)
        ft = FaultyTopology(dc, FaultSet(links=[(0, dc.neighbors(0)[0])]))
        healthy = ft.healthy_nodes()
        pairs = [(healthy[0], healthy[-1]), (healthy[-1], healthy[1])]
        paths = [ft_route(ft, u, v) for u, v in pairs]
        assert all(p is not None for p in paths)

        def program(ctx):
            u = ctx.rank
            received = []
            for path in paths:
                token = f"msg-from-{path[0]}" if u == path[0] else None
                pos = path.index(u) if u in path else -1
                for k in range(len(path) - 1):
                    if pos == k:
                        yield Send(path[k + 1], token)
                    elif pos == k + 1:
                        token = yield Recv(path[k])
                    else:
                        yield Idle()
                if pos == len(path) - 1:
                    received.append(token)
            return received

        result = assert_matches_extractor(ft, program)
        for (u, v), path in zip(pairs, paths):
            assert f"msg-from-{u}" in result.returns[v]
        assert result.comm_steps == sum(len(p) - 1 for p in paths)


class TestStaggeredStress:
    def test_staggered_pairwise_exchanges(self):
        """Pairs idle different amounts before exchanging: heavy pruning."""
        cube = Hypercube(3)

        def program(ctx):
            u = ctx.rank
            total = 0
            for d in range(3):
                partner = u ^ (1 << d)
                # Both pair members agree on the stagger; distinct pairs
                # do not, so every cycle's snapshot mixes ready and
                # blocked requests.
                for _ in range((min(u, partner) * 7 + d) % 3):
                    yield Idle()
                got = yield SendRecv(partner, u + total)
                total += got
            return total

        assert_matches_extractor(cube, program)

    def test_relay_wave_worst_case_for_rescan(self):
        """A token snaking down a Gray-code path with all receivers posted
        up front: one delivery per cycle, every other request pruned."""
        cube = Hypercube(3)
        gray = [0, 1, 3, 2, 6, 7, 5, 4]
        pos_of = {node: k for k, node in enumerate(gray)}

        def program(ctx):
            pos = pos_of[ctx.rank]
            if pos == 0:
                yield Send(gray[1], 1)
                return 0
            token = yield Recv(gray[pos - 1])
            if pos + 1 < len(gray):
                yield Send(gray[pos + 1], token + 1)
            return token

        result = assert_matches_extractor(cube, program)
        assert [result.returns[gray[k]] for k in range(8)] == list(range(8))
        assert result.comm_steps == 7
