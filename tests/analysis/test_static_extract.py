"""Schedule extraction: RecordingCtx, the lockstep interpreter, and its
cross-check against an engine run's recorded timeline."""

import pytest

from repro.analysis.static import RecordingCtx, extract_schedule
from repro.core.dual_prefix import dual_prefix_program
from repro.core.dual_sort import dual_sort_schedule, schedule_program
from repro.core.ops import ADD
from repro.obs import TimelineRecorder, cross_validate_timeline
from repro.simulator import Idle, Recv, Send, SendRecv, Shift, run_spmd
from repro.simulator.errors import ProgramError
from repro.topology import DualCube, Hypercube, RecursiveDualCube


class TestRecordingCtx:
    def test_counts_compute_rounds(self):
        rounds = [0, 0]
        ctx = RecordingCtx(1, Hypercube(1), rounds)
        ctx.compute()
        ctx.compute(5)
        assert rounds == [0, 2]

    def test_negative_ops_rejected(self):
        ctx = RecordingCtx(0, Hypercube(1), [0, 0])
        with pytest.raises(ValueError, match="non-negative"):
            ctx.compute(-1)

    def test_record_is_noop_and_neighbors_delegate(self):
        cube = Hypercube(2)
        ctx = RecordingCtx(0, cube, [0] * 4)
        ctx.record("label", {"arbitrary": "state"})
        assert ctx.neighbors() == cube.neighbors(0)


class TestExtractBasics:
    def test_single_exchange(self):
        cube = Hypercube(1)

        def program(ctx):
            got = yield SendRecv(ctx.rank ^ 1, ctx.rank)
            return got

        sched = extract_schedule(cube, program)
        assert sched.completed
        assert sched.steps == 1
        assert sched.messages == 2
        assert {(e.src, e.dst) for e in sched.events} == {(0, 1), (1, 0)}
        assert all(e.step == 1 and e.kind == "sendrecv" for e in sched.events)

    def test_payloads_are_forwarded(self):
        # Data-dependent control flow: rank 1 only talks again if the
        # received value is even.  Extraction must forward payloads or
        # this program cannot be interpreted.
        cube = Hypercube(1)

        def program(ctx):
            got = yield SendRecv(ctx.rank ^ 1, 2 * ctx.rank)
            if got % 2 == 0:
                got = yield SendRecv(ctx.rank ^ 1, got)
            return got

        sched = extract_schedule(cube, program)
        assert sched.completed
        assert sched.steps == 2

    def test_idle_steps_counted_like_engine_cycles(self):
        cube = Hypercube(1)

        def program(ctx):
            if ctx.rank == 0:
                yield Idle()
                yield Idle()
            yield SendRecv(ctx.rank ^ 1, ctx.rank)

        sched = extract_schedule(cube, program)
        result = run_spmd(cube, program)
        assert sched.completed
        assert sched.comm_steps == result.comm_steps

    def test_comp_steps_max_chain(self):
        cube = Hypercube(1)

        def program(ctx):
            for _ in range(ctx.rank + 1):
                ctx.compute()
            yield SendRecv(ctx.rank ^ 1, None)

        sched = extract_schedule(cube, program)
        assert sched.comp_steps == 2

    def test_shift_ring(self):
        cube = Hypercube(1)

        def program(ctx):
            got = yield Shift(ctx.rank ^ 1, ctx.rank, ctx.rank ^ 1)
            return got

        sched = extract_schedule(cube, program)
        assert sched.completed
        assert sched.messages == 2
        assert all(e.kind == "shift" for e in sched.events)

    def test_bad_yield_raises(self):
        def program(ctx):
            yield "not a request"

        with pytest.raises(ProgramError, match="expected"):
            extract_schedule(Hypercube(1), program)

    def test_non_generator_program_raises(self):
        def program(ctx):
            return 42

        with pytest.raises(ProgramError, match="generator"):
            extract_schedule(Hypercube(1), program)

    def test_max_steps_truncates(self):
        cube = Hypercube(1)

        def program(ctx):
            while True:
                yield SendRecv(ctx.rank ^ 1, None)

        sched = extract_schedule(cube, program, max_steps=10)
        assert sched.truncated
        assert not sched.completed
        assert sched.steps == 10
        assert len(sched.blocked) == 2


class TestStallDiagnostics:
    def test_orphan_recv_captured(self):
        cube = Hypercube(1)

        def program(ctx):
            if ctx.rank == 0:
                yield Recv(1)

        sched = extract_schedule(cube, program)
        assert not sched.completed
        assert not sched.truncated
        assert sched.stalled_at == 1
        (b,) = sched.blocked
        assert b.rank == 0
        assert b.kind == "recv"
        assert b.waits_on() == (1,)

    def test_deadlock_cycle_captured(self):
        # 0 waits on 1, 1 waits on 2, 2 waits on 0: classic recv cycle.
        cube = Hypercube(2)

        def program(ctx):
            if ctx.rank < 3:
                yield Recv((ctx.rank + 1) % 3)

        sched = extract_schedule(cube, program)
        assert not sched.completed
        assert {b.rank for b in sched.blocked} == {0, 1, 2}

    def test_partial_progress_before_stall(self):
        cube = Hypercube(1)

        def program(ctx):
            yield SendRecv(ctx.rank ^ 1, ctx.rank)
            if ctx.rank == 0:
                yield Recv(1)

        sched = extract_schedule(cube, program)
        assert not sched.completed
        assert sched.steps == 1
        assert sched.messages == 2
        assert sched.stalled_at == 2


class TestCrossValidation:
    """The extractor must agree with the real engine, event for event."""

    @staticmethod
    def _engine_vs_extractor(topo, program):
        sched = extract_schedule(topo, program)
        tl = TimelineRecorder(topo.num_nodes)
        result = run_spmd(topo, program, timeline=tl)
        assert cross_validate_timeline(tl, sched) == []
        assert sched.comm_steps == result.comm_steps
        assert sched.comp_steps == result.comp_steps

    @pytest.mark.parametrize("n", [2, 3])
    def test_prefix_matches_engine_timeline(self, n):
        dc = DualCube(n)
        vals = list(range(dc.num_nodes))
        self._engine_vs_extractor(dc, dual_prefix_program(dc, vals, ADD))

    def test_sort_matches_engine_timeline(self):
        rdc = RecursiveDualCube(2)
        keys = list(range(rdc.num_nodes))[::-1]
        self._engine_vs_extractor(
            rdc, schedule_program(rdc, keys, dual_sort_schedule(2))
        )
