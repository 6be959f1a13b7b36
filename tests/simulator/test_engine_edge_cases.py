"""Edge-case behaviour of the engine: exceptions, mixed requests, reuse.

Tests taking the ``run`` fixture run bare and again checked against
the static extractor (see ``conftest.py``).
"""

import pytest

from repro.simulator import (
    DeadlockError,
    Idle,
    Recv,
    Send,
    SendRecv,
    Shift,
    run_spmd,
)
from repro.topology import Hypercube


class TestProgramExceptions:
    def test_user_exception_propagates_with_traceback(self):
        class Boom(RuntimeError):
            pass

        def program(ctx):
            if ctx.rank == 1:
                raise Boom("node 1 exploded")
            yield Idle()

        with pytest.raises(Boom, match="node 1 exploded"):
            run_spmd(Hypercube(1), program)

    def test_exception_after_communication_propagates(self):
        def program(ctx):
            yield SendRecv(ctx.rank ^ 1, "x")
            raise ValueError("post-exchange failure")

        with pytest.raises(ValueError, match="post-exchange"):
            run_spmd(Hypercube(1), program)


class TestMixedRequests:
    def test_ragged_termination(self, run):
        """Nodes may finish at different times; stragglers keep running."""

        def program(ctx):
            if ctx.rank == 0:
                return "early"
            for _ in range(ctx.rank):
                yield Idle()
            return f"after {ctx.rank}"

        res = run(Hypercube(2), program)
        assert res.returns == ["early", "after 1", "after 2", "after 3"]
        assert res.comm_steps == 3

    def test_idle_nodes_do_not_mask_deadlock(self, run):
        def program(ctx):
            if ctx.rank == 0:
                yield Recv(1)  # never satisfied
            else:
                yield Idle()

        with pytest.raises(DeadlockError):
            run(Hypercube(1), program)

    def test_shift_chain_with_unidirectional_flow(self, run):
        """A line (not ring) of shifts: ends use Send/Recv, middle Shift."""
        cube = Hypercube(2)
        # Path 1 - 0 - 2: 1 sends, 0 shifts, 2 receives.

        def program(ctx):
            if ctx.rank == 1:
                yield Send(0, "head")
                return None
            if ctx.rank == 0:
                got = yield Shift(2, "middle", 1)
                return got
            if ctx.rank == 2:
                got = yield Recv(0)
                return got
            return None

        res = run(cube, program)
        assert res.returns[0] == "head"
        assert res.returns[2] == "middle"
        assert res.comm_steps == 1

    def test_two_node_ring_shift(self, run):
        """dst == src is legal: a Shift facing a matching Shift."""
        def program(ctx):
            got = yield Shift(ctx.rank ^ 1, ctx.rank, ctx.rank ^ 1)
            return got

        res = run(Hypercube(1), program)
        assert res.returns == [1, 0]
        assert res.comm_steps == 1


class TestEngineReuse:
    def test_program_can_run_twice(self):
        def program(ctx):
            got = yield SendRecv(ctx.rank ^ 1, ctx.rank)
            return got

        a = run_spmd(Hypercube(1), program)
        b = run_spmd(Hypercube(1), program)
        assert a.returns == b.returns
        # Counters are fresh per run.
        assert a.counters.messages == b.counters.messages == 2

    def test_max_cycles_configurable(self):
        def program(ctx):
            for _ in range(100):
                yield Idle()

        with pytest.raises(DeadlockError):
            run_spmd(Hypercube(1), program, max_cycles=5)
