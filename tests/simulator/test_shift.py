"""Tests for the Shift request and the fixed-point matcher.

Tests taking the ``run`` fixture run bare and again checked against
the static extractor (see ``conftest.py``).
"""

import pytest

from repro.simulator import (
    DeadlockError,
    LinkError,
    Recv,
    Send,
    SendRecv,
    Shift,
    run_spmd,
)
from repro.topology import Hypercube, RecursiveDualCube
from repro.topology.hamiltonian import hamiltonian_cycle


class TestShiftSemantics:
    def test_full_ring_resolves_in_one_cycle(self, run):
        """Every node shifts simultaneously around a Hamiltonian ring."""
        rdc = RecursiveDualCube(2)
        cyc = hamiltonian_cycle(2)
        succ = {cyc[k]: cyc[(k + 1) % 8] for k in range(8)}
        pred = {cyc[k]: cyc[(k - 1) % 8] for k in range(8)}

        def program(ctx):
            got = yield Shift(succ[ctx.rank], ctx.rank, pred[ctx.rank])
            return got

        res = run(rdc, program)
        assert res.comm_steps == 1
        assert res.counters.messages == 8
        for u in rdc.nodes():
            assert res.returns[u] == pred[u]

    def test_k_rotations_take_k_cycles(self, run):
        rdc = RecursiveDualCube(2)
        cyc = hamiltonian_cycle(2)
        succ = {cyc[k]: cyc[(k + 1) % 8] for k in range(8)}
        pred = {cyc[k]: cyc[(k - 1) % 8] for k in range(8)}

        def program(ctx):
            token = ctx.rank
            for _ in range(3):
                token = yield Shift(succ[ctx.rank], token, pred[ctx.rank])
            return token

        res = run(rdc, program)
        assert res.comm_steps == 3
        pos = {node: k for k, node in enumerate(cyc)}
        for u in rdc.nodes():
            assert res.returns[u] == cyc[(pos[u] - 3) % 8]

    def test_shift_pairs_with_send_and_recv(self, run):
        """A Shift's legs can face plain Send/Recv counterparts."""
        cube = Hypercube(2)
        # Path 1 -> 0 -> 2: node 0 shifts (sends to 2, receives from 1).

        def program(ctx):
            if ctx.rank == 0:
                got = yield Shift(2, "fwd", 1)
                return got
            if ctx.rank == 1:
                yield Send(0, "from-1")
            elif ctx.rank == 2:
                got = yield Recv(0)
                return got
            return None

        res = run(cube, program)
        assert res.comm_steps == 1
        assert res.returns[0] == "from-1"
        assert res.returns[2] == "fwd"

    def test_partial_shift_blocks_until_both_legs_ready(self, run):
        from repro.simulator import Idle

        cube = Hypercube(2)

        def program(ctx):
            if ctx.rank == 0:
                got = yield Shift(2, "x", 1)
                return got
            if ctx.rank == 1:
                yield Idle()
                yield Send(0, "late")
            elif ctx.rank == 2:
                yield Idle()
                got = yield Recv(0)
                return got
            return None

        res = run(cube, program)
        assert res.returns[0] == "late"
        assert res.comm_steps == 2  # cycle 1: idles only; cycle 2: all legs

    def test_unsatisfiable_shift_deadlocks(self, run):
        cube = Hypercube(2)

        def program(ctx):
            if ctx.rank == 0:
                yield Shift(2, "x", 1)  # nobody sends from 1
            elif ctx.rank == 2:
                yield Recv(0)

        with pytest.raises(DeadlockError):
            run(cube, program)

    def test_shift_validates_both_endpoints(self):
        cube = Hypercube(2)

        def program(ctx):
            yield Shift(3, "x", 1)  # 0-3 is not an edge

        with pytest.raises(LinkError):
            run_spmd(cube, program)

    def test_shift_counts_one_send_one_recv(self, run):
        rdc = RecursiveDualCube(2)
        cyc = hamiltonian_cycle(2)
        succ = {cyc[k]: cyc[(k + 1) % 8] for k in range(8)}
        pred = {cyc[k]: cyc[(k - 1) % 8] for k in range(8)}

        def program(ctx):
            yield Shift(succ[ctx.rank], "tok", pred[ctx.rank])

        res = run(rdc, program)
        assert all(res.counters.sends == 1)
        assert all(res.counters.recvs == 1)


class TestFixedPointRegression:
    """The generalized matcher must not change old request semantics."""

    def test_sendrecv_still_rejects_mixed_pairing(self, run):
        def program(ctx):
            if ctx.rank == 0:
                yield SendRecv(1, "x")
            else:
                yield Recv(0)

        with pytest.raises(DeadlockError):
            run(Hypercube(1), program)

    def test_dependent_chains_still_wait_cycles(self, run):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(1, "a")
            elif ctx.rank == 1:
                got = yield Recv(0)
                yield Send(3, got + "b")
            elif ctx.rank == 3:
                got = yield Recv(1)
                return got
            return None

        res = run(Hypercube(2), program)
        assert res.returns[3] == "ab"
        assert res.comm_steps == 2
