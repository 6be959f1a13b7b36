"""Schedule extraction: SPMD program -> :class:`CommSchedule`.

:func:`extract_schedule` runs every node program against a record-only
:class:`RecordingCtx` stub inside a lightweight lockstep interpreter that
mirrors the engine's matching semantics (greatest fixed point of "all my
legs face a completing counterpart") but

* performs **no cost accounting** and keeps **no trace** — it only logs
  ``(step, src, dst, kind, size)`` tuples;
* performs **no link validation** — a message over a non-existent edge is
  recorded and left for :func:`~repro.analysis.static.checkers.check_edge_legality`
  to flag, so illegal programs can be analyzed instead of crashing;
* never raises on deadlock — a step in which nothing completes ends
  extraction with ``completed=False`` and the blocked requests captured
  for wait-for-graph diagnosis by
  :func:`~repro.analysis.static.checkers.check_pairing`.

Payloads *are* forwarded between paired requests (a data-dependent
program could not otherwise run to completion), but nothing else of the
dynamic execution is kept.  Because the interpreter takes the same
lockstep small-steps as the engine, the extracted ``steps`` count equals
the engine's measured ``comm_steps`` for any program that completes.

The extractor is the engine's independent oracle: a timeline recorded
from an engine run (:class:`~repro.obs.timeline.TimelineRecorder`) must
equal the extracted schedule event for event
(:func:`~repro.obs.timeline.cross_validate_timeline`).
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.analysis.static.schedule import BlockedOp, CommEvent, CommSchedule
from repro.simulator.counters import payload_size
from repro.simulator.errors import ProgramError
from repro.simulator.requests import Idle, Recv, Request, Send, SendRecv, Shift
from repro.topology.base import Topology

__all__ = ["RecordingCtx", "extract_schedule"]


class RecordingCtx:
    """Record-only stand-in for :class:`~repro.simulator.node.NodeCtx`.

    Presents the same surface a node program uses — ``rank``, ``topo``,
    :meth:`compute`, :meth:`record`, :meth:`neighbors` — but only counts
    computation rounds; state snapshots are dropped.
    """

    __slots__ = ("rank", "topo", "_comp_rounds")

    def __init__(self, rank: int, topo: Topology, comp_rounds: list[int]):
        self.rank = rank
        self.topo = topo
        self._comp_rounds = comp_rounds

    def compute(self, ops: int = 1) -> None:
        """Count one local computation round (``ops`` must be >= 0)."""
        if ops < 0:
            raise ValueError(f"ops must be non-negative, got {ops}")
        self._comp_rounds[self.rank] += 1

    def record(self, label: str, value: Any) -> None:
        """State snapshots are not part of the schedule; dropped."""

    def neighbors(self) -> tuple[int, ...]:
        """Neighbors of this rank in the topology."""
        return self.topo.neighbors(self.rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecordingCtx(rank={self.rank}, topo={self.topo.name})"


# Request kind codes for the slot arrays (mirrors the engine's encoding).
_IDLE, _SEND, _RECV, _SENDRECV, _SHIFT = range(5)
_KIND_NAMES = ("idle", "send", "recv", "sendrecv", "shift")


def extract_schedule(
    topo: Topology,
    program: Callable[[Any], Generator[Request, Any, Any]],
    *,
    max_steps: int = 1_000_000,
) -> CommSchedule:
    """Extract the full communication schedule of ``program`` on ``topo``.

    Returns a :class:`CommSchedule`; never raises on deadlock, orphan
    receives, or illegal edges — those become schedule properties for the
    checkers.  A yield that is not a request object, or a negative
    ``compute`` count, still raises (they are Python-level program bugs,
    not schedule properties).
    """
    n = topo.num_nodes
    comp_rounds = [0] * n
    gens: list[Generator[Request, Any, Any] | None] = [None] * n

    # Decoded request slots (valid where has_req[rank] is set).
    has_req = bytearray(n)
    kind = bytearray(n)
    send_to = [-1] * n
    recv_from = [-1] * n
    payloads: list[Any] = [None] * n
    issued_step = [0] * n

    npending = 0
    step = 0
    events: list[CommEvent] = []

    def advance(rank: int, value: Any) -> None:
        nonlocal npending
        gen = gens[rank]
        if gen is None:
            return
        try:
            req = gen.send(value)
        except StopIteration:
            gens[rank] = None
            return
        if isinstance(req, SendRecv):
            kind[rank] = _SENDRECV
            send_to[rank] = req.peer
            recv_from[rank] = req.peer
            payloads[rank] = req.payload
        elif isinstance(req, Send):
            kind[rank] = _SEND
            send_to[rank] = req.dst
            recv_from[rank] = -1
            payloads[rank] = req.payload
        elif isinstance(req, Recv):
            kind[rank] = _RECV
            send_to[rank] = -1
            recv_from[rank] = req.src
            payloads[rank] = None
        elif isinstance(req, Idle):
            kind[rank] = _IDLE
            send_to[rank] = -1
            recv_from[rank] = -1
            payloads[rank] = None
        elif isinstance(req, Shift):
            kind[rank] = _SHIFT
            send_to[rank] = req.dst
            recv_from[rank] = req.src
            payloads[rank] = req.payload
        else:
            raise ProgramError(
                f"rank {rank} yielded {req!r}; expected "
                f"Send/Recv/SendRecv/Shift/Idle"
            )
        has_req[rank] = 1
        issued_step[rank] = step + 1
        npending += 1

    for rank in range(n):
        ctx = RecordingCtx(rank, topo, comp_rounds)
        gen = program(ctx)
        if not hasattr(gen, "send"):
            raise ProgramError(
                f"program must be a generator function, got {type(gen)!r} "
                f"at rank {rank}"
            )
        gens[rank] = gen
        advance(rank, None)

    # Per-step scratch (see the engine's matcher, which this mirrors
    # minus validation, faults, and cost bookkeeping).
    alive = bytearray(n)
    deps: list[list[int]] = [[] for _ in range(n)]
    incoming: list[Any] = [None] * n

    def satisfied(rank: int) -> bool:
        if kind[rank] == _SENDRECV:
            p = send_to[rank]
            if not 0 <= p < n:
                return False
            return bool(
                alive[p] and kind[p] == _SENDRECV and send_to[p] == rank
            )
        st = send_to[rank]
        if st >= 0:
            if not 0 <= st < n:
                return False
            if not (
                alive[st] and recv_from[st] == rank and kind[st] != _SENDRECV
            ):
                return False
        rf = recv_from[rank]
        if rf >= 0:
            if not 0 <= rf < n:
                return False
            if not (
                alive[rf] and send_to[rf] == rank and kind[rf] != _SENDRECV
            ):
                return False
        return True

    stalled_at: int | None = None
    truncated = False

    while npending:
        if step >= max_steps:
            truncated = True
            break

        completed: list[int] = []
        active_ranks: list[int] = []
        touched: list[int] = []
        for rank in range(n):
            if not has_req[rank]:
                continue
            if kind[rank] == _IDLE:
                incoming[rank] = None
                completed.append(rank)
            else:
                alive[rank] = 1
                active_ranks.append(rank)

        for rank in active_ranks:
            st = send_to[rank]
            if 0 <= st < n:
                lst = deps[st]
                if not lst:
                    touched.append(st)
                lst.append(rank)
            rf = recv_from[rank]
            if 0 <= rf < n and rf != st:
                lst = deps[rf]
                if not lst:
                    touched.append(rf)
                lst.append(rank)

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

        for rank in active_ranks:
            if not alive[rank]:
                continue
            st = send_to[rank]
            if st >= 0:
                events.append(
                    CommEvent(
                        step=step + 1,
                        src=rank,
                        dst=st,
                        kind=_KIND_NAMES[kind[rank]],
                        size=payload_size(payloads[rank]),
                    )
                )
            rf = recv_from[rank]
            incoming[rank] = payloads[rf] if rf >= 0 else None
            completed.append(rank)

        for rank in active_ranks:
            alive[rank] = 0
        for p in touched:
            deps[p].clear()

        if not completed:
            stalled_at = step + 1
            break

        step += 1
        completed.sort()
        npending -= len(completed)
        for rank in completed:
            has_req[rank] = 0
        for rank in completed:
            advance(rank, incoming[rank])

    blocked = tuple(
        BlockedOp(
            rank=r,
            kind=_KIND_NAMES[kind[r]],
            send_to=send_to[r] if send_to[r] >= 0 else None,
            recv_from=recv_from[r] if recv_from[r] >= 0 else None,
            issued_step=issued_step[r],
        )
        for r in range(n)
        if has_req[r]
    )
    return CommSchedule(
        num_nodes=n,
        topology=topo.name,
        events=tuple(events),
        steps=step,
        comp_steps=max(comp_rounds) if comp_rounds else 0,
        completed=not blocked,
        blocked=blocked,
        stalled_at=stalled_at,
        truncated=truncated,
    )
