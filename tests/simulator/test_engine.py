"""Tests for the synchronous lockstep engine.

Tests taking the ``run`` fixture run bare and again checked against
the static extractor (see ``conftest.py``).
"""

import pytest

from repro.simulator import (
    DeadlockError,
    Idle,
    LinkError,
    ProgramError,
    Recv,
    Send,
    SendRecv,
    TraceRecorder,
    run_spmd,
)
from repro.topology import DualCube, Hypercube


class TestBasicDelivery:
    def test_send_recv_pair(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(1, "ping")
                return "sent"
            got = yield Recv(0)
            return got

        res = run_spmd(Hypercube(1), program)
        assert res.returns == ["sent", "ping"]
        assert res.comm_steps == 1
        assert res.counters.messages == 1

    def test_sendrecv_full_duplex_single_cycle(self):
        def program(ctx):
            got = yield SendRecv(ctx.rank ^ 1, ctx.rank * 10)
            return got

        res = run_spmd(Hypercube(1), program)
        assert res.returns == [10, 0]
        assert res.comm_steps == 1
        assert res.counters.messages == 2

    def test_idle_consumes_a_cycle(self):
        def program(ctx):
            yield Idle()
            yield Idle()
            return ctx.rank

        res = run_spmd(Hypercube(2), program)
        assert res.comm_steps == 2
        assert res.counters.active_cycles == 0
        assert res.counters.messages == 0

    def test_empty_program_costs_nothing(self):
        def program(ctx):
            return ctx.rank
            yield  # pragma: no cover

        res = run_spmd(Hypercube(2), program)
        assert res.returns == [0, 1, 2, 3]
        assert res.comm_steps == 0

    def test_payload_defaults_to_none(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(1)
            else:
                got = yield Recv(0)
                assert got is None
            return True

        res = run_spmd(Hypercube(1), program)
        assert res.counters.payload_items == 0


class TestLockstepSemantics:
    def test_unmatched_send_waits_for_late_receiver(self, run):
        def program(ctx):
            if ctx.rank == 0:
                got = yield SendRecv(1, "a")  # posted at cycle 1
                return got
            yield Idle()  # receiver is late by one cycle
            got = yield SendRecv(0, "b")
            return got

        res = run(Hypercube(1), program)
        assert res.returns == ["b", "a"]
        assert res.comm_steps == 2  # cycle 1: idle only; cycle 2: exchange

    def test_request_issued_mid_cycle_waits_for_next_cycle(self):
        # Rank 1's second request must not complete in the same cycle it
        # was issued, even though rank 2 is already waiting.
        log = []

        def program(ctx):
            if ctx.rank == 0:
                yield Send(1, "x")
            elif ctx.rank == 1:
                yield Recv(0)
                got = yield SendRecv(3, "y")
                log.append(got)
            elif ctx.rank == 3:
                got = yield SendRecv(1, "z")
                log.append(got)
            return None

        res = run_spmd(Hypercube(2), program)
        assert sorted(log) == ["y", "z"]
        assert res.comm_steps == 2

    def test_chain_of_dependent_sends(self, run):
        def program(ctx):
            q = ctx.topo.q
            token = 0 if ctx.rank == 0 else None
            for d in range(q):
                partner = ctx.rank ^ (1 << d)
                if ctx.rank < (1 << d) and token is not None:
                    yield Send(partner, token + 1)
                elif partner < (1 << d):
                    token = yield Recv(partner)
                else:
                    yield Idle()
            return token

        res = run(Hypercube(3), program)
        # Binomial broadcast: the token counts tree depth (popcount of rank).
        assert res.returns == [0, 1, 1, 2, 1, 2, 2, 3]
        assert res.comm_steps == 3


class TestErrorDetection:
    def test_deadlock_on_unmatched_recv(self, run):
        def program(ctx):
            if ctx.rank == 0:
                got = yield Recv(1)  # nobody sends
                return got
            return None
            yield  # pragma: no cover

        with pytest.raises(DeadlockError, match="rank 0"):
            run(Hypercube(1), program)

    def test_deadlock_on_send_facing_send(self, run):
        def program(ctx):
            yield Send(ctx.rank ^ 1, "x")

        with pytest.raises(DeadlockError):
            run(Hypercube(1), program)

    def test_deadlock_on_sendrecv_facing_recv(self, run):
        def program(ctx):
            if ctx.rank == 0:
                yield SendRecv(1, "x")
            else:
                yield Recv(0)

        with pytest.raises(DeadlockError):
            run(Hypercube(1), program)

    def test_non_neighbor_send_rejected(self):
        def program(ctx):
            yield Send(3, "x")  # 0 and 3 differ in two bits

        with pytest.raises(LinkError, match="non-neighbor"):
            run_spmd(Hypercube(2), program)

    def test_self_send_rejected(self):
        def program(ctx):
            yield Send(ctx.rank, "x")

        with pytest.raises(LinkError, match="itself"):
            run_spmd(Hypercube(2), program)

    def test_out_of_range_peer_rejected(self):
        def program(ctx):
            yield Recv(99)

        with pytest.raises(ValueError):
            run_spmd(Hypercube(2), program)

    def test_bad_request_object_rejected(self):
        def program(ctx):
            yield "not a request"

        with pytest.raises(ProgramError):
            run_spmd(Hypercube(1), program)

    def test_non_generator_program_rejected(self):
        def program(ctx):
            return 42

        with pytest.raises(ProgramError):
            run_spmd(Hypercube(1), program)

    def test_max_cycles_guard(self, run):
        def program(ctx):
            while True:
                yield Idle()

        with pytest.raises(DeadlockError):
            run(Hypercube(1), program, max_cycles=10)


class TestAccounting:
    def test_dual_cube_cross_exchange_counts(self):
        dc = DualCube(2)

        def program(ctx):
            got = yield SendRecv(dc.cross_partner(ctx.rank), ctx.rank)
            return got

        res = run_spmd(dc, program)
        assert res.comm_steps == 1
        assert res.counters.messages == dc.num_nodes
        assert all(res.counters.sends == 1)
        assert all(res.counters.recvs == 1)
        for u in dc.nodes():
            assert res.returns[u] == dc.cross_partner(u)

    def test_compute_tallies_per_node(self):
        def program(ctx):
            ctx.compute(3)
            if ctx.rank == 0:
                ctx.compute(2)
            yield Idle()
            return None

        res = run_spmd(Hypercube(1), program)
        assert res.comp_steps == 2  # rank 0 had two compute rounds
        assert res.counters.max_node_ops == 5
        assert res.counters.total_ops == 8

    def test_payload_item_counting(self):
        from repro.simulator import Packed

        def program(ctx):
            got = yield SendRecv(ctx.rank ^ 1, Packed(("a", "b")))
            return got

        res = run_spmd(Hypercube(1), program)
        assert res.counters.payload_items == 4
        assert res.counters.max_message_payload == 2

    def test_trace_recording_via_ctx(self):
        trace = TraceRecorder()

        def program(ctx):
            ctx.record("state", ctx.rank * 2)
            yield Idle()
            ctx.record("state", ctx.rank * 2 + 1)
            return None

        run_spmd(Hypercube(2), program, trace=trace)
        assert trace.labels() == ("state",)
        assert trace.snapshot("state", 4, 0) == [0, 2, 4, 6]
        assert trace.snapshot("state", 4, 1) == [1, 3, 5, 7]
