"""Matching semantics, pinned exactly.

The contracts the paper's step counts rest on: a whole Shift ring
resolves in one cycle, deliberately asymmetric pairs deadlock with an
exact cycle and blocked set, and a livelocked program trips
``max_cycles``.  Tests taking the ``run`` fixture run bare and again
checked against the static extractor (see ``conftest.py``).
"""

import inspect

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
from repro.topology import Hypercube, RecursiveDualCube
from repro.topology.hamiltonian import hamiltonian_cycle


def _ring(n=2):
    rdc = RecursiveDualCube(n)
    cyc = hamiltonian_cycle(n)
    size = rdc.num_nodes
    succ = {cyc[k]: cyc[(k + 1) % size] for k in range(size)}
    pred = {cyc[k]: cyc[(k - 1) % size] for k in range(size)}
    return rdc, succ, pred


class TestShiftRings:
    def test_full_ring_resolves_in_one_cycle(self, run):
        rdc, succ, pred = _ring()

        def program(ctx):
            got = yield Shift(succ[ctx.rank], ctx.rank, pred[ctx.rank])
            return got

        res = run(rdc, program)
        assert res.comm_steps == 1
        assert res.counters.messages == rdc.num_nodes
        for u in rdc.nodes():
            assert res.returns[u] == pred[u]

    def test_ring_with_one_defector_deadlocks(self, run):
        """One ring member idles instead of shifting: the whole ring blocks
        once the idler has finished (nothing can complete -> deadlock)."""
        rdc, succ, pred = _ring()

        def program(ctx):
            if ctx.rank == succ[0]:
                yield Idle()
                return None
            got = yield Shift(succ[ctx.rank], ctx.rank, pred[ctx.rank])
            return got

        with pytest.raises(DeadlockError) as exc:
            run(rdc, program)
        assert len(exc.value.blocked) == rdc.num_nodes - 1

    def test_shift_chain_with_send_recv_endcaps(self, run):
        """An open chain: Send feeds the first Shift, Recv drains the last;
        the whole pipeline still resolves in one cycle."""
        rdc, succ, pred = _ring()
        cyc = hamiltonian_cycle(2)
        head, tail = cyc[0], cyc[-1]

        def program(ctx):
            u = ctx.rank
            if u == head:
                yield Send(succ[u], "start")
                return None
            if u == tail:
                got = yield Recv(pred[u])
                return got
            got = yield Shift(succ[u], u, pred[u])
            return got

        res = run(rdc, program)
        assert res.comm_steps == 1
        assert res.returns[succ[head]] == "start"
        assert res.returns[tail] == pred[tail]


class TestAsymmetricDeadlocks:
    def test_send_facing_send(self, run):
        def program(ctx):
            yield Send(ctx.rank ^ 1, "x")

        with pytest.raises(DeadlockError, match="blocked"):
            run(Hypercube(1), program)

    def test_recv_facing_recv(self, run):
        def program(ctx):
            yield Recv(ctx.rank ^ 1)

        with pytest.raises(DeadlockError):
            run(Hypercube(1), program)

    def test_sendrecv_facing_bare_recv(self, run):
        def program(ctx):
            if ctx.rank == 0:
                yield SendRecv(1, "x")
            else:
                yield Recv(0)

        with pytest.raises(DeadlockError):
            run(Hypercube(1), program)

    def test_sendrecv_facing_bare_send(self, run):
        def program(ctx):
            if ctx.rank == 0:
                yield SendRecv(1, "x")
            else:
                yield Send(0, "y")

        with pytest.raises(DeadlockError):
            run(Hypercube(1), program)

    # (topology, per-rank request scripts, deadlock cycle, blocked set)
    DEADLOCKS = {
        # Rank 0 idles once, then waits on a rank that never sends.
        "recv-after-idle": (
            Hypercube(1), [[Idle(), Recv(1)], []], 2, {0: Recv(1)},
        ),
        # Rank 2's receive leg faces the idler, so rank 2 is pruned, then
        # rank 0 (whose receive leg faces rank 2) and rank 1 with it.
        "shift-chain-into-idle": (
            Hypercube(2),
            [[Shift(1, "a", 2)], [Recv(0)], [Shift(0, "c", 3)], [Idle()]],
            2,
            {0: Shift(1, "a", 2), 1: Recv(0), 2: Shift(0, "c", 3)},
        ),
    }

    @pytest.mark.parametrize("case", DEADLOCKS)
    def test_deadlock_reports_cycle_and_blocked_set(self, case, run):
        topo, scripts, cycle, blocked = self.DEADLOCKS[case]

        def program(ctx):
            for req in scripts[ctx.rank]:
                yield req

        with pytest.raises(DeadlockError) as exc:
            run(topo, program)
        assert exc.value.cycle == cycle
        assert exc.value.blocked == blocked


class TestLivelock:
    def test_max_cycles_guard_on_idle_spin(self):
        # The default valve is one constant, run_spmd's default;
        # test_max_cycles_configurable shows an idle spin firing it at
        # max_cycles + 1, so no run spins a million cycles here.
        from repro.simulator.engine import DEFAULT_MAX_CYCLES

        default = inspect.signature(run_spmd).parameters["max_cycles"].default
        assert default is DEFAULT_MAX_CYCLES
        assert DEFAULT_MAX_CYCLES == 1_000_000

    def test_max_cycles_configurable(self, run):
        def program(ctx):
            while True:
                yield Idle()

        with pytest.raises(DeadlockError) as exc:
            run(Hypercube(2), program, max_cycles=17)
        assert exc.value.cycle == 18
        assert len(exc.value.blocked) == 4

    def test_one_sided_progress_is_not_livelock(self, run):
        """Idles completing keep the clock ticking while a pair waits."""

        def program(ctx):
            if ctx.rank == 0:
                got = yield SendRecv(1, "a")
                return got
            for _ in range(5):
                yield Idle()
            got = yield SendRecv(0, "b")
            return got

        res = run(Hypercube(1), program)
        assert res.returns == ["b", "a"]
        assert res.comm_steps == 6
