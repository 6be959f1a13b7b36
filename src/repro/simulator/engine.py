"""The synchronous lockstep engine, run by :func:`run_spmd`.

Semantics
---------
All node programs advance together in clock cycles.  Each program has at
most one outstanding request.  Per cycle the engine:

1. takes a snapshot of all outstanding requests;
2. completes every :class:`Idle`;
3. computes the greatest fixed point of "all my legs face a completing
   counterpart" over the snapshot: ``Send(dst) <-> Recv(src)`` pairs,
   ``SendRecv(peer) <-> SendRecv(peer)`` pairs, and :class:`Shift` chains
   (whose send and receive legs may face different neighbors — a whole
   ring of shifts resolves simultaneously).  A request never reacts to
   one issued later in the same cycle, which is what makes the cycle
   count equal the paper's synchronous step count;
4. delivers the surviving payloads, then resumes exactly the completed
   programs.

The 1-port constraint (<= 1 send and <= 1 receive per node per cycle) holds
by construction — one request per node — and link existence is checked when
a request is issued.  A cycle in which nothing completes while requests are
pending raises :class:`DeadlockError`; asymmetric pairs (``Send`` facing
``Send``, ``SendRecv`` facing bare ``Recv``) deadlock deliberately, since
every algorithm in the paper is lockstep-symmetric and such a mismatch is a
program bug.

Scheduling
----------
One matcher realizes step 3 (see ``docs/model.md``) by counterpart-indexed
worklist pruning.  Requests live in per-rank slot arrays; when a request
is pruned, only the requests whose legs reference it are rechecked, so
each cycle's fixed point costs O(requests + prunes).  Link validation of
repeated (rank, peer) endpoints is cached (the topology is fixed for the
life of a run).  Its oracle is the static schedule extractor
(:func:`repro.analysis.static.extract_schedule`), a separate
implementation of the same matching rule: a timeline recorded from a run
must equal the extracted schedule event for event.

The engine tallies deliveries in plain Python scalars and lists, and
buffers timeline link events with their cycle numbers; both are flushed
once when the run ends (fault counters are charged as they happen).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.simulator.counters import CostCounters, payload_size
from repro.simulator.errors import (
    DeadlockError,
    LinkError,
    ProgramError,
    RequestTimeoutError,
    RetryLimitError,
)
from repro.simulator.faults import FAULTED, FaultPlan
from repro.simulator.node import NodeCtx
from repro.simulator.requests import Idle, Recv, Request, Send, SendRecv, Shift
from repro.simulator.trace import TraceRecorder
from repro.topology.base import Topology

__all__ = [
    "DEFAULT_MAX_CYCLES",
    "EngineResult",
    "run_spmd",
    "use_fault_plan",
    "use_timeline",
]

Program = Callable[[NodeCtx], Generator[Request, Any, Any]]

_DEFAULT_FAULT_PLAN: FaultPlan | None = None
_DEFAULT_TIMELINE = None

#: The ``max_cycles`` default of :func:`run_spmd`: a run still pending
#: after this many cycles raises :class:`DeadlockError`.
DEFAULT_MAX_CYCLES = 1_000_000

# Request kind codes for the slot-array representation, and their IR
# names; timelines tag each delivery with its sending leg's kind so
# recorded events compare field-for-field with the static extractor's.
_IDLE, _SEND, _RECV, _SENDRECV, _SHIFT = range(5)
_KIND_NAMES = ("idle", "send", "recv", "sendrecv", "shift")


@contextmanager
def use_fault_plan(plan: FaultPlan | None):
    """Temporarily install a default :class:`FaultPlan` for nested runs.

    Algorithms call :func:`run_spmd` without exposing engine knobs; this
    context manager routes those internal runs through a fault schedule::

        with use_fault_plan(FaultPlan(drop_rate=0.05, seed=7)):
            prefixes, result = dual_prefix(dc, values, ADD, backend="engine")
    """
    global _DEFAULT_FAULT_PLAN
    if plan is not None and not isinstance(plan, FaultPlan):
        raise TypeError(f"expected a FaultPlan or None, got {type(plan)!r}")
    previous = _DEFAULT_FAULT_PLAN
    _DEFAULT_FAULT_PLAN = plan
    try:
        yield
    finally:
        _DEFAULT_FAULT_PLAN = previous


# The recorder methods the engine calls.
_TIMELINE_HOOKS = ("record_fault", "bulk_load_messages", "set_cycles")


def _check_timeline(recorder) -> None:
    """Reject a recorder missing a hook before any program starts (a
    missing hook would otherwise fail mid-run, in the matcher's cleanup)."""
    if recorder is not None and not all(
        hasattr(recorder, hook) for hook in _TIMELINE_HOOKS
    ):
        raise TypeError(
            f"expected a timeline recorder ({'/'.join(_TIMELINE_HOOKS)}) "
            f"or None, got {type(recorder)!r}"
        )


@contextmanager
def use_timeline(recorder):
    """Temporarily install a default timeline recorder for nested runs.

    Like :func:`use_fault_plan`, this routes the internal :func:`run_spmd`
    runs of algorithms through a
    :class:`~repro.obs.timeline.TimelineRecorder`::

        tl = TimelineRecorder(dc.num_nodes)
        with use_timeline(tl):
            prefixes, result = dual_prefix(dc, values, ADD, backend="engine")

    The recorder is duck-typed (anything with ``record_fault``,
    ``bulk_load_messages`` and ``set_cycles``) so the simulator has no
    import dependency on :mod:`repro.obs`.
    """
    global _DEFAULT_TIMELINE
    _check_timeline(recorder)
    previous = _DEFAULT_TIMELINE
    _DEFAULT_TIMELINE = recorder
    try:
        yield
    finally:
        _DEFAULT_TIMELINE = previous


@dataclass
class EngineResult:
    """Outcome of one SPMD run."""

    returns: list
    counters: CostCounters
    crashed_ranks: tuple[int, ...] = ()

    @property
    def comm_steps(self) -> int:
        """Clock cycles consumed (the paper's communication steps)."""
        return self.counters.comm_steps

    @property
    def comp_steps(self) -> int:
        """Parallel computation steps (longest per-node round chain)."""
        return self.counters.comp_steps


def _blocked_dict(has_req: bytearray, reqs: list) -> dict[int, Request]:
    """Occupied slots -> {rank: request} for DeadlockError reporting."""
    return {r: reqs[r] for r in range(len(has_req)) if has_req[r]}


def run_spmd(
    topo: Topology,
    program: Program,
    *,
    trace: TraceRecorder | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    fault_plan: FaultPlan | None = None,
    timeline=None,
) -> EngineResult:
    """Run one SPMD program on every node of a topology to completion.

    Each issued request is decoded exactly once (at yield time) into
    preallocated per-rank slot arrays — a kind code, the send-leg
    endpoint, the receive-leg endpoint, and the payload — so the
    per-cycle matching, delivery, and resumption loops run on plain ints
    and never re-inspect request objects.

    Parameters
    ----------
    topo:
        The network; request endpoints are validated against its edges.
    program:
        Generator function ``program(ctx)``; its return value becomes the
        rank's entry in :attr:`EngineResult.returns`.
    trace:
        Optional :class:`TraceRecorder` for figure snapshots.
    max_cycles:
        Safety valve against livelock (e.g. an all-``Idle`` spin).
    fault_plan:
        Optional :class:`~repro.simulator.faults.FaultPlan` consulted
        during matching (crashes, link cuts, drops, delays) with the
        recovery semantics described in ``docs/model.md``.  ``None`` uses
        the :func:`use_fault_plan` default (normally no plan).  An empty
        plan takes the exact fault-free code path.
    timeline:
        Optional per-cycle :class:`~repro.obs.timeline.TimelineRecorder`
        receiving one link event per delivered message and one fault
        event per drop/timeout/crash.  ``None`` uses the
        :func:`use_timeline` default (normally no recorder).
    """
    _check_timeline(timeline)
    tl = timeline if timeline is not None else _DEFAULT_TIMELINE
    if fault_plan is None:
        fault_plan = _DEFAULT_FAULT_PLAN
    if fault_plan is not None:
        fault_plan.validate_for(topo)
    # The engine's fault logic only engages for a non-empty plan; an
    # empty plan is guaranteed byte-identical to no plan at all.
    fp = (
        fault_plan
        if fault_plan is not None and not fault_plan.is_empty
        else None
    )
    n = topo.num_nodes
    counters = CostCounters(n)
    # Timeline buffer: (cycle, src, dst, size, kind) tuples, flushed
    # once at the end with each event's own cycle.
    tl_buffer: list[tuple[int, int, int, int, str]] = []

    IDLE, SENDRECV = _IDLE, _SENDRECV
    SEND, RECV, SHIFT = _SEND, _RECV, _SHIFT

    gens: list[Generator[Request, Any, Any] | None] = [None] * n
    returns: list[Any] = [None] * n
    npending = 0
    cycle = 0

    # Fault bookkeeping (used only when a non-empty plan is active).
    issue_cycle = [0] * n  # cycle at which the current request was issued
    ready_at = [0] * n  # issue-delayed requests are invisible before this
    retry_count = [0] * n  # drop-forced retries of the current request
    crash_watch = set(fp.node_crashes) if fp is not None else set()
    crashed: list[int] = []
    has_down = fp is not None and bool(fp.downtimes)
    # Downtime boundaries for timeline marks: cycle -> [(kind, rank)].
    down_marks: dict[int, list[tuple[str, int]]] = {}
    if has_down:
        for dr, spans in fp.downtimes.items():
            for start, end in spans:
                down_marks.setdefault(start, []).append(("leave", dr))
                down_marks.setdefault(end, []).append(("join", dr))

    # Decoded request slots (valid where has_req[rank] is set).
    has_req = bytearray(n)
    kind = bytearray(n)
    send_to = [-1] * n  # dst/peer of the send leg, -1 if none
    recv_from = [-1] * n  # src/peer of the receive leg, -1 if none
    payloads: list[Any] = [None] * n
    reqs: list[Request | None] = [None] * n  # originals, for errors only

    ok_endpoints: set[int] = set()

    def check_endpoint(rank: int, other: int, req: Request) -> None:
        # Full validation on cache miss; the topology is fixed for the
        # life of the run, so a validated (rank, other) pair is final.
        if other == rank:
            raise LinkError(f"rank {rank} addressed itself with {req!r}")
        topo.check_node(other)
        if not topo.has_edge(rank, other):
            raise LinkError(
                f"rank {rank} addressed non-neighbor {other} with {req!r} "
                f"on {topo.name}"
            )
        ok_endpoints.add(rank * n + other)

    def advance(rank: int, value: Any) -> None:
        nonlocal npending
        gen = gens[rank]
        if gen is None:
            raise ProgramError(
                f"internal error: rank {rank} resumed after completion"
            )
        try:
            req = gen.send(value)
        except StopIteration as stop:
            returns[rank] = stop.value
            gens[rank] = None
            return
        # Decode + validate once; every later cycle works on the slots.
        if isinstance(req, SendRecv):
            peer = req.peer
            if rank * n + peer not in ok_endpoints:
                check_endpoint(rank, peer, req)
            kind[rank] = SENDRECV
            send_to[rank] = peer
            recv_from[rank] = peer
            payloads[rank] = req.payload
        elif isinstance(req, Send):
            dst = req.dst
            if rank * n + dst not in ok_endpoints:
                check_endpoint(rank, dst, req)
            kind[rank] = SEND
            send_to[rank] = dst
            recv_from[rank] = -1
            payloads[rank] = req.payload
        elif isinstance(req, Recv):
            src = req.src
            if rank * n + src not in ok_endpoints:
                check_endpoint(rank, src, req)
            kind[rank] = RECV
            send_to[rank] = -1
            recv_from[rank] = src
            payloads[rank] = None
        elif isinstance(req, Idle):
            kind[rank] = IDLE
            send_to[rank] = -1
            recv_from[rank] = -1
            payloads[rank] = None
        elif isinstance(req, Shift):
            dst, src = req.dst, req.src
            if rank * n + dst not in ok_endpoints:
                check_endpoint(rank, dst, req)
            if rank * n + src not in ok_endpoints:
                check_endpoint(rank, src, req)
            kind[rank] = SHIFT
            send_to[rank] = dst
            recv_from[rank] = src
            payloads[rank] = req.payload
        else:
            raise ProgramError(
                f"rank {rank} yielded {req!r}; expected "
                f"Send/Recv/SendRecv/Shift/Idle"
            )
        reqs[rank] = req
        has_req[rank] = 1
        npending += 1
        if fp is not None:
            issue_cycle[rank] = cycle
            retry_count[rank] = 0
            ready_at[rank] = cycle + fp.issue_delay(rank, cycle)

    for rank in range(n):
        ctx = NodeCtx(rank, topo, counters, trace)
        gen = program(ctx)
        if not hasattr(gen, "send"):
            raise ProgramError(
                f"program must be a generator function, got {type(gen)!r} "
                f"at rank {rank}"
            )
        gens[rank] = gen
        advance(rank, None)

    # Per-cycle scratch, allocated once: ``alive`` marks requests still
    # completable this cycle, ``deps[p]`` lists the ranks whose legs
    # reference rank ``p`` (the counterpart index), ``incoming`` the
    # value each completing program resumes with.
    alive = bytearray(n)
    deps: list[list[int]] = [[] for _ in range(n)]
    incoming: list[Any] = [None] * n

    def satisfied(rank: int) -> bool:
        # A SendRecv pairs only with a SendRecv back at it; every other
        # leg pairs with the matching opposite leg of a non-SendRecv.
        # An active fault plan additionally requires every leg's link
        # to be alive this cycle (a cut link simply never matches).
        # A send leg tests neither the counterpart's kind nor the link:
        # the receive leg it faces must itself survive, a SendRecv
        # facing a non-SendRecv never does, and a surviving receive
        # leg has tested the same (symmetric) link.
        if kind[rank] == SENDRECV:
            p = send_to[rank]
            if not (alive[p] and kind[p] == SENDRECV and send_to[p] == rank):
                return False
            return fp is None or fp.link_up(rank, p, cycle)
        st = send_to[rank]
        if st >= 0 and not (alive[st] and recv_from[st] == rank):
            return False
        rf = recv_from[rank]
        if rf >= 0:
            if not (
                alive[rf] and send_to[rf] == rank and kind[rf] != SENDRECV
            ):
                return False
            if fp is not None and not fp.link_up(rank, rf, cycle):
                return False
        return True

    # Delivery tallies, flushed to ``counters`` in one shot.
    f_cycles = f_active = f_payload = f_maxp = 0
    f_sends = [0] * n
    f_recvs = [0] * n

    try:
        while npending:
            cycle += 1
            if cycle > max_cycles:
                raise DeadlockError(cycle, _blocked_dict(has_req, reqs))

            # Fault plan: execute scheduled node crashes at cycle start.
            if fp is not None and crash_watch:
                for rank in sorted(crash_watch):
                    if fp.node_crashes[rank] > cycle:
                        continue
                    crash_watch.discard(rank)
                    crashed.append(rank)
                    counters.record_crash()
                    if tl is not None:
                        tl.record_fault(cycle, "crash", rank=rank)
                    gen = gens[rank]
                    if gen is not None:
                        gen.close()
                        gens[rank] = None
                    if has_req[rank]:
                        has_req[rank] = 0
                        npending -= 1
                if not npending:
                    break

            if has_down and tl is not None and cycle in down_marks:
                for ev_kind, ev_rank in down_marks.pop(cycle):
                    tl.record_fault(cycle, ev_kind, rank=ev_rank)

            held = 0
            completed: list[int] = []
            active_ranks: list[int] = []
            touched: list[int] = []
            for rank in range(n):
                if not has_req[rank]:
                    continue
                if fp is not None and (
                    ready_at[rank] > cycle
                    or (has_down and fp.down(rank, cycle))
                ):
                    held += 1  # delayed or offline: invisible this cycle
                    continue
                if kind[rank] == IDLE:
                    incoming[rank] = None
                    completed.append(rank)
                else:
                    alive[rank] = 1
                    active_ranks.append(rank)

            # Build the counterpart index for this snapshot.
            for rank in active_ranks:
                st = send_to[rank]
                if st >= 0:
                    lst = deps[st]
                    if not lst:
                        touched.append(st)
                    lst.append(rank)
                rf = recv_from[rank]
                if rf >= 0 and rf != st:
                    lst = deps[rf]
                    if not lst:
                        touched.append(rf)
                    lst.append(rank)

            # Greatest fixed point by worklist: one full pass, then only
            # the dependents of whatever was pruned are rechecked.
            stack: list[int] = []
            for rank in active_ranks:
                if not satisfied(rank):
                    alive[rank] = 0
                    stack.extend(deps[rank])
            while stack:
                rank = stack.pop()
                if alive[rank] and not satisfied(rank):
                    alive[rank] = 0
                    stack.extend(deps[rank])

            # Fault plan: drop messages among the survivors.  A dropped
            # send blocks its whole exchange (the drop cascades through
            # the same worklist), so the lockstep pair retries next
            # cycle; verdicts are pure functions of (src, dst, cycle).
            drops_now = 0
            if fp is not None:
                for rank in active_ranks:
                    st = send_to[rank]
                    if (
                        alive[rank]
                        and st >= 0
                        and fp.dropped(rank, st, cycle)
                    ):
                        drops_now += 1
                        counters.record_drop()
                        if tl is not None:
                            tl.record_fault(
                                cycle, "drop", rank=rank, src=rank, dst=st
                            )
                        retry_count[rank] += 1
                        if retry_count[rank] > fp.max_retries:
                            raise RetryLimitError(
                                rank, reqs[rank], retry_count[rank], cycle
                            )
                        alive[rank] = 0
                        stack.extend(deps[rank])
                while stack:
                    rank = stack.pop()
                    if alive[rank] and not satisfied(rank):
                        alive[rank] = 0
                        stack.extend(deps[rank])

            # Deliver the survivors.
            deliveries = 0
            for rank in active_ranks:
                if not alive[rank]:
                    continue
                st = send_to[rank]
                if st >= 0:
                    size = payload_size(payloads[rank])
                    deliveries += 1
                    f_payload += size
                    if size > f_maxp:
                        f_maxp = size
                    f_sends[rank] += 1
                    f_recvs[st] += 1
                    if tl is not None:
                        tl_buffer.append(
                            (cycle, rank, st, size,
                             _KIND_NAMES[kind[rank]])
                        )
                rf = recv_from[rank]
                incoming[rank] = payloads[rf] if rf >= 0 else None
                completed.append(rank)

            # Fault plan: per-request timeout over the still-blocked.
            if fp is not None and fp.timeout is not None:
                for rank in active_ranks:
                    if alive[rank]:
                        continue  # completed this cycle
                    if cycle - issue_cycle[rank] >= fp.timeout:
                        counters.record_timeout()
                        if tl is not None:
                            tl.record_fault(cycle, "timeout", rank=rank)
                        if fp.on_timeout == "raise":
                            raise RequestTimeoutError(
                                rank, reqs[rank], cycle, fp.timeout
                            )
                        # Cancel: resume the program with FAULTED so it
                        # can reroute; nothing was delivered.
                        incoming[rank] = FAULTED
                        completed.append(rank)

            # Reset the scratch structures for the next cycle.
            for rank in active_ranks:
                alive[rank] = 0
            for p in touched:
                deps[p].clear()

            if not completed:
                # Under fault injection an empty cycle can be progress
                # deferred (delays holding requests, drops forcing a
                # retry) or progress pending a timeout; otherwise it is
                # the classic deadlock.
                stalled_ok = fp is not None and (
                    held or drops_now or fp.timeout is not None
                )
                if not stalled_ok:
                    raise DeadlockError(cycle, _blocked_dict(has_req, reqs))
            f_cycles += 1
            if deliveries:
                f_active += 1
            completed.sort()
            npending -= len(completed)
            for rank in completed:
                has_req[rank] = 0
            for rank in completed:
                advance(rank, incoming[rank])
    finally:
        counters.record_bulk(
            cycles=f_cycles,
            active_cycles=f_active,
            messages=sum(f_sends),
            payload_items=f_payload,
            max_message_payload=f_maxp,
            sends=f_sends,
            recvs=f_recvs,
        )
        if tl is not None:
            if tl_buffer:
                tl.bulk_load_messages(tl_buffer)
            tl.set_cycles(min(cycle, max_cycles))

    return EngineResult(
        returns=returns,
        counters=counters,
        crashed_ranks=tuple(sorted(crashed)),
    )

