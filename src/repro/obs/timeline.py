"""Per-cycle runtime timelines of one simulator run.

The engine and the array backend execute the paper's algorithms; their
cost counters say how much a run cost, and the :class:`TimelineRecorder`
says **when** each link carried traffic and when a fault struck.  It is
the engine's one per-delivery record, an append-only log of

* :class:`LinkEvent` — one delivered message (cycle, src, dst, payload
  size, request kind), buffered by the engine and flushed with its cycle
  number when the run ends;
* :class:`FaultEvent` — one fault-plan action (drop, timeout, crash)
  with the cycle it occurred in;
* :class:`StepRecord` — one coarse lockstep round from the array backend
  (which has no per-link detail, only per-round aggregates).

The recorder is deliberately dependency-free and cheap: recording is an
append to a Python list, and every derived view (per-cycle aggregates,
link-utilization matrices, :class:`~repro.analysis.static.schedule.CommSchedule`
conversion) is computed on demand.  A run with no recorder attached pays
exactly one ``is None`` check per delivery.

Because the engine emits one :class:`LinkEvent` per delivered message
with the engine's own cycle number, a completed engine timeline carries
the *same* per-cycle event set as the static extractor's
:class:`~repro.analysis.static.schedule.CommSchedule` — which is what
:func:`cross_validate_timeline` checks.  That comparison, kinds included,
is the engine's check against its independent oracle, and it makes the
observability layer itself verifiable instead of merely emitted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "LinkEvent",
    "FaultEvent",
    "StepRecord",
    "CycleAggregate",
    "TimelineRecorder",
    "cross_validate_timeline",
]

FAULT_KINDS = ("drop", "timeout", "crash", "leave", "join")


@dataclass(frozen=True)
class LinkEvent:
    """One delivered message: ``src -> dst`` completing at ``cycle``.

    ``cycle`` is 1-based and equals the engine cycle of the delivery;
    ``kind`` is the request kind of the sending leg (``"send"``,
    ``"sendrecv"`` or ``"shift"``); ``size`` counts key-sized payload
    items (0 for control-only messages).  The field meanings match
    :class:`~repro.analysis.static.schedule.CommEvent` exactly so the two
    records can be compared field for field.
    """

    cycle: int
    src: int
    dst: int
    size: int = 1
    kind: str = "send"

    @property
    def link(self) -> tuple[int, int]:
        """Undirected link key ``(min, max)``."""
        return (min(self.src, self.dst), max(self.src, self.dst))


@dataclass(frozen=True)
class FaultEvent:
    """One fault-plan action at ``cycle``.

    ``kind`` is one of ``"drop"`` (an in-flight message was lost and will
    be retried), ``"timeout"`` (a request was abandoned/cancelled by the
    per-request timeout), ``"crash"`` (a node was killed), ``"leave"`` (a
    node went offline at the start of a downtime interval) or ``"join"``
    (it rejoined at the interval's end).  ``rank`` is the affected node;
    ``src``/``dst`` identify the dropped message's endpoints when
    meaningful.
    """

    cycle: int
    kind: str
    rank: int | None = None
    src: int | None = None
    dst: int | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class StepRecord:
    """One coarse lockstep round from the array backend.

    The array backend performs whole rounds as single array operations,
    so there is no per-link detail to record — only the round aggregate:
    ``messages`` point-to-point transfers carrying ``payload_items``
    items in total (``kind="comm"``), or a computation round of
    ``ops_each`` primitive operations per participating node
    (``kind="comp"``, in which case ``messages`` is 0).  ``step`` numbers
    communication rounds 1-based, mirroring the engine's cycle counter;
    computation rounds carry the step they follow.
    """

    step: int
    kind: str
    messages: int = 0
    payload_items: int = 0
    max_payload: int = 0
    ops_each: int = 0


@dataclass(frozen=True)
class CycleAggregate:
    """Everything that happened in one cycle, folded into one record."""

    cycle: int
    messages: int
    payload_items: int
    link_loads: dict[tuple[int, int], int] = field(default_factory=dict)
    drops: int = 0
    timeouts: int = 0
    crashes: int = 0
    leaves: int = 0
    joins: int = 0

    @property
    def faults(self) -> int:
        """Total fault events this cycle."""
        return self.drops + self.timeouts + self.crashes + self.leaves + self.joins


class TimelineRecorder:
    """Append-only per-cycle event log for one simulator run.

    Parameters
    ----------
    num_nodes:
        Expected network size, when known; purely informational (used by
        renderers to label links consistently).

    A recorder can be handed to the engine (``run_spmd(...,
    timeline=...)`` or the :func:`~repro.simulator.engine.use_timeline`
    context manager) for per-cycle link events, and/or attached to a
    :class:`~repro.simulator.counters.CostCounters` ledger
    (``counters.attach_timeline(...)``) for coarse per-round records from
    the array backend.
    """

    def __init__(self, num_nodes: int | None = None):
        if num_nodes is not None and num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self._events: list[LinkEvent] = []
        self._faults: list[FaultEvent] = []
        self._steps: list[StepRecord] = []
        self._comm_step = 0  # array-backend round counter (mirrors cycles)
        self._cycles = 0  # total cycles reported by the engine

    # -- engine-side hooks -----------------------------------------------------

    def record_message(
        self, cycle: int, src: int, dst: int, size: int = 1, kind: str = "send"
    ) -> None:
        """One message delivered ``src -> dst`` at ``cycle``."""
        self._events.append(LinkEvent(cycle, src, dst, size, kind))

    def record_fault(
        self,
        cycle: int,
        kind: str,
        *,
        rank: int | None = None,
        src: int | None = None,
        dst: int | None = None,
    ) -> None:
        """One fault-plan action (``"drop"``/``"timeout"``/``"crash"``)."""
        self._faults.append(FaultEvent(cycle, kind, rank, src, dst))

    def bulk_load_messages(
        self, events: Iterable[tuple[int, int, int, int, str]]
    ) -> None:
        """Flush buffered ``(cycle, src, dst, size, kind)`` deliveries.

        The engine buffers deliveries in plain tuples and flushes them
        here in one shot; each tuple keeps its own cycle number, so the
        flushed timeline has the same per-cycle resolution as per-event
        recording (not one end-of-run blob).
        """
        self._events.extend(LinkEvent(*e) for e in events)

    def set_cycles(self, cycles: int) -> None:
        """Total engine cycles executed (idle-only cycles included)."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        if cycles > self._cycles:
            self._cycles = cycles

    # -- array-backend hooks ---------------------------------------------------

    def record_comm_step(
        self, messages: int, payload_items: int | None = None, max_payload: int = 1
    ) -> None:
        """One coarse lockstep communication round (array backend)."""
        self._comm_step += 1
        self._steps.append(
            StepRecord(
                step=self._comm_step,
                kind="comm",
                messages=messages,
                payload_items=(
                    messages if payload_items is None else payload_items
                ),
                max_payload=max_payload if messages else 0,
            )
        )
        if self._comm_step > self._cycles:
            self._cycles = self._comm_step

    def record_comp_step(self, ops_each: int = 1) -> None:
        """One coarse lockstep computation round (array backend)."""
        self._steps.append(
            StepRecord(step=self._comm_step, kind="comp", ops_each=ops_each)
        )

    # -- views -----------------------------------------------------------------

    @property
    def events(self) -> tuple[LinkEvent, ...]:
        """Per-delivery link events in recording order."""
        return tuple(self._events)

    @property
    def faults(self) -> tuple[FaultEvent, ...]:
        """Fault events in recording order."""
        return tuple(self._faults)

    @property
    def steps(self) -> tuple[StepRecord, ...]:
        """Coarse array-backend round records in recording order."""
        return tuple(self._steps)

    @property
    def num_cycles(self) -> int:
        """Total cycles covered (engine-reported, or max event cycle)."""
        last_event = max((e.cycle for e in self._events), default=0)
        last_fault = max((f.cycle for f in self._faults), default=0)
        return max(self._cycles, last_event, last_fault)

    @property
    def total_messages(self) -> int:
        """Delivered messages: per-link events plus coarse round tallies."""
        return len(self._events) + sum(s.messages for s in self._steps)

    def fault_counts(self) -> dict[str, int]:
        """``{kind: count}`` over every recorded fault event."""
        counts = {k: 0 for k in FAULT_KINDS}
        for f in self._faults:
            counts[f.kind] += 1
        return counts

    def link_loads(self) -> dict[tuple[int, int], int]:
        """Messages per undirected link over the whole run."""
        loads: Counter = Counter()
        for e in self._events:
            loads[e.link] += 1
        return dict(loads)

    def cycle_aggregates(self) -> list[CycleAggregate]:
        """One :class:`CycleAggregate` per cycle ``1..num_cycles``.

        Engine link events contribute per-link loads; coarse array-backend
        rounds contribute message/payload totals without link detail;
        fault events contribute the per-kind tallies.  Idle cycles appear
        as all-zero aggregates so the list length always equals
        :attr:`num_cycles`.
        """
        cycles = self.num_cycles
        msgs = [0] * (cycles + 1)
        items = [0] * (cycles + 1)
        loads: list[dict | None] = [None] * (cycles + 1)
        drops = [0] * (cycles + 1)
        touts = [0] * (cycles + 1)
        crashes = [0] * (cycles + 1)
        leaves = [0] * (cycles + 1)
        joins = [0] * (cycles + 1)
        for e in self._events:
            msgs[e.cycle] += 1
            items[e.cycle] += e.size
            per = loads[e.cycle]
            if per is None:
                per = loads[e.cycle] = {}
            per[e.link] = per.get(e.link, 0) + 1
        for s in self._steps:
            if s.kind == "comm" and 1 <= s.step <= cycles:
                msgs[s.step] += s.messages
                items[s.step] += s.payload_items
        for f in self._faults:
            if f.kind == "drop":
                drops[f.cycle] += 1
            elif f.kind == "timeout":
                touts[f.cycle] += 1
            elif f.kind == "leave":
                leaves[f.cycle] += 1
            elif f.kind == "join":
                joins[f.cycle] += 1
            else:
                crashes[f.cycle] += 1
        return [
            CycleAggregate(
                cycle=c,
                messages=msgs[c],
                payload_items=items[c],
                link_loads=loads[c] or {},
                drops=drops[c],
                timeouts=touts[c],
                crashes=crashes[c],
                leaves=leaves[c],
                joins=joins[c],
            )
            for c in range(1, cycles + 1)
        ]

    def link_utilization(self) -> tuple[list[tuple[int, int]], list[list[int]]]:
        """Per-link per-cycle load matrix for heatmap rendering.

        Returns ``(links, grid)`` with ``links`` sorted and ``grid[i][c-1]``
        the number of messages link ``links[i]`` carried in cycle ``c``.
        """
        cycles = self.num_cycles
        links = sorted({e.link for e in self._events})
        index = {link: i for i, link in enumerate(links)}
        grid = [[0] * cycles for _ in links]
        for e in self._events:
            grid[index[e.link]][e.cycle - 1] += 1
        return links, grid

    def to_comm_schedule(self, topo=None):
        """The engine-side timeline as a static-analyzer ``CommSchedule``.

        Only per-link events are convertible (coarse array-backend rounds
        carry no endpoints); the result plugs straight into the checkers
        of :mod:`repro.analysis.static` and into
        :func:`cross_validate_timeline`.
        """
        # Imported lazily: the simulator must stay importable without the
        # analysis subsystem and vice versa.
        from repro.analysis.static.schedule import CommEvent, CommSchedule

        events = tuple(
            CommEvent(step=e.cycle, src=e.src, dst=e.dst, kind=e.kind, size=e.size)
            for e in self._events
        )
        n = self.num_nodes
        if n is None:
            n = max((max(e.src, e.dst) for e in self._events), default=-1) + 1
        return CommSchedule(
            num_nodes=n,
            topology=getattr(topo, "name", "?") if topo is not None else "?",
            events=events,
            steps=self.num_cycles,
            completed=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimelineRecorder(cycles={self.num_cycles}, "
            f"events={len(self._events)}, faults={len(self._faults)}, "
            f"steps={len(self._steps)})"
        )


def _events_key(events) -> list[tuple]:
    return sorted((e.step, e.src, e.dst, e.kind, e.size) for e in events)


def cross_validate_timeline(recorder: TimelineRecorder, schedule) -> list[str]:
    """Compare a recorded timeline against a static ``CommSchedule``.

    ``schedule`` is the extractor's view of the same program (from
    :func:`repro.analysis.static.extract_schedule`).  Returns a list of
    human-readable discrepancies — empty means the recorder's per-cycle
    link events match the static schedule event for event (same cycle,
    endpoints, request kind, and payload size) and the cycle counts
    agree.
    """
    problems: list[str] = []
    recorded = recorder.to_comm_schedule()
    if recorder.num_cycles != schedule.steps:
        problems.append(
            f"cycle count mismatch: timeline has {recorder.num_cycles}, "
            f"static schedule has {schedule.steps}"
        )
    ours = _events_key(recorded.events)
    theirs = _events_key(schedule.events)
    if ours != theirs:
        missing = [e for e in theirs if e not in set(ours)]
        extra = [e for e in ours if e not in set(theirs)]
        if missing:
            problems.append(
                f"{len(missing)} static event(s) absent from the timeline, "
                f"first: {missing[0]}"
            )
        if extra:
            problems.append(
                f"{len(extra)} timeline event(s) absent from the static "
                f"schedule, first: {extra[0]}"
            )
        if not missing and not extra:
            problems.append(
                "event multiplicities differ between timeline and schedule"
            )
    return problems
