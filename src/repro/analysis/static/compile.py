"""Schedule compilation: algorithms -> cached step descriptors.

Every core algorithm's communication schedule is *oblivious*
(input-independent; :func:`extract_schedule` proves it), so it is a
constant of ``(algorithm, topology, variant)``.  This module compiles it
**once** into a short tuple of descriptors that the array backend
(:mod:`repro.core.replay`) runs on in-place reshape views — no matching
fixed point, no request decoding, no per-step index arithmetic and no
O(nodes) index arrays at runtime.

Two plan shapes cover the core algorithms:

* :class:`PrefixDescriptor` — Algorithm 2 (`D_prefix`).  Ascend round
  ``i`` pairs node-ID bit ``i`` of every cluster, so the plan is just
  the ``m`` round bits, in the paper's order, plus the paper-literal
  flag; the array backend maps them onto its state layout.
* :class:`ScheduleDescriptor` — any compare-exchange schedule (`D_sort`,
  Batcher's bitonic network) as one :class:`StepDescriptor` per
  :class:`~repro.core.dual_sort.ScheduleStep`: the paired dimension, the
  direction (an address bit above it, or a constant), and whether every
  pair has a direct link (which decides the counter charge).

Each plan also carries its cost :class:`~repro.simulator.counters.Ledger`
(one per payload policy for a schedule), recorded here once so a call
charges its counters in one call.

Compilation is structural and costs microseconds, so it never calls the
record-only extractor.  :func:`plan_comm_schedule` reconstructs the
:class:`CommSchedule` a plan predicts and :func:`check_plan` compares it
with :func:`extract_schedule`; the test suite runs that check on every
plan the algorithms produce up to 512 nodes.

The module also hosts the **shard-disjointness race checker** for the
parallel execution paths: the sharded prefix fork-pool writes blocks of
cluster columns of shared memory from concurrent workers, and the
in-place ascend rounds write three reshape views of the same arrays.
Both write sets are pure index arithmetic over the plan, so
:func:`check_shard_plan` / :func:`check_columnar_round` prove them
pairwise disjoint symbolically (:class:`WriteSpan` strided-block
algebra — exact, no ``shares_memory`` at runtime) and raise
:class:`ShardRaceError` *before* any worker is forked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.static.extract import extract_schedule
from repro.analysis.static.schedule import CommEvent, CommSchedule
from repro.simulator.counters import Ledger, charge_exchange_step

__all__ = [
    "PlanError",
    "ShardRaceError",
    "PrefixDescriptor",
    "StepDescriptor",
    "ScheduleDescriptor",
    "compile_prefix_plan",
    "compile_schedule_plan",
    "schedule_ledger",
    "plan_comm_schedule",
    "check_plan",
    "WriteSpan",
    "spans_overlap",
    "shard_task_spans",
    "check_shard_plan",
    "columnar_round_spans",
    "check_columnar_round",
]


class PlanError(ValueError):
    """A compiled plan disagrees with the extracted schedule."""


class ShardRaceError(PlanError):
    """A parallel plan's write sets could race (overlap or escape)."""


@dataclass(frozen=True)
class PrefixDescriptor:
    """Algorithm 2 on one dual-cube.

    ``rounds`` are the node-ID bits the ``m`` cluster ascend rounds pair
    (both `Cube_prefix` phases replay them); the cross-edge exchanges
    and the class-1 fold follow from the layout.  ``comm_steps`` is 2n,
    or 2n+1 paper-literal.  ``ledger`` is the cost of every all-rank
    round, in order; only the class-1 fold is charged apart.
    """

    topology: str
    n: int
    num_nodes: int
    paper_literal: bool
    rounds: tuple
    ledger: Ledger = field(compare=False, repr=False)

    @property
    def comm_steps(self) -> int:
        return 2 * len(self.rounds) + 2 + int(self.paper_literal)

    @property
    def comp_steps(self) -> int:
        return 2 * len(self.rounds) + 2


@dataclass(frozen=True)
class StepDescriptor:
    """One compare-exchange round: pair dimension, direction, link mode.

    The direction at node ``u`` is descending iff ``descending``
    (``dir_bit is None``) or iff bit ``dir_bit`` of ``u`` is set;
    ``dir_bit`` always lies above ``dim``.  ``direct`` is True when every
    pair at ``dim`` has a link (else the supported half relays).
    """

    index: int
    dim: int
    dir_bit: int | None
    descending: bool
    direct: bool
    phase: str

    def schedule_step(self):
        """The :class:`~repro.core.dual_sort.ScheduleStep` it came from."""
        from repro.core.dual_sort import ScheduleStep

        if self.dir_bit is None:
            return ScheduleStep(self.dim, "const", int(self.descending),
                                self.phase)
        return ScheduleStep(self.dim, "bit", self.dir_bit, self.phase)


@dataclass(frozen=True)
class ScheduleDescriptor:
    """One compare-exchange schedule on one topology; ``ledgers`` maps
    each payload policy to the cost of the whole schedule.  ``passes``
    caches the array backend's pass lists compiled from ``steps``
    (``repro.core.replay._compile_passes``), keyed by key size and
    whether each step is its own pass."""

    topology: str
    kind: str
    num_nodes: int
    descending: bool
    steps: tuple
    ledgers: dict[str, Ledger] = field(compare=False, repr=False)
    passes: dict = field(default_factory=dict, compare=False, repr=False)


def compile_prefix_plan(dc, *, paper_literal: bool = False
                        ) -> PrefixDescriptor:
    """Compile `D_prefix` on ``dc`` into a :class:`PrefixDescriptor`."""
    n, rounds = dc.num_nodes, tuple(range(dc.cluster_dim))
    ledger = Ledger()
    for _phase in range(2):  # both Cube_prefix phases, then a cross exchange
        for _ in rounds:
            charge_exchange_step(ledger, n, True, ops_each=2)
        ledger.record_comm_step(n)
    ledger.record_comp_step(1)  # the s' fold
    if paper_literal:
        ledger.record_comm_step(n)
    return PrefixDescriptor(
        topology=dc.name,
        n=dc.n,
        num_nodes=n,
        paper_literal=paper_literal,
        rounds=rounds,
        ledger=ledger,
    )


def compile_schedule_plan(topo, schedule: Sequence, *, kind: str,
                          descending: bool = False) -> ScheduleDescriptor:
    """Compile a compare-exchange ``schedule`` on ``topo``.

    ``kind`` labels the plan family for caching (``"dual_sort"``,
    ``"bitonic"``).  A direction bit that does not lie above its pair
    dimension (no generated schedule has one) or outside the address
    raises ``ValueError`` here, before anything runs.
    """
    from repro.core.dual_sort import _dim_mode

    n = topo.num_nodes
    q = n.bit_length() - 1
    direct = {}
    steps = []
    for k, s in enumerate(schedule):
        if not 0 <= s.dim < q:
            raise ValueError(
                f"schedule step {k}: dimension {s.dim} out of range for "
                f"{topo.name}"
            )
        dir_bit = s.dir_val if s.dir_kind == "bit" else None
        if dir_bit is not None and not s.dim < dir_bit < q:
            raise ValueError(
                f"schedule step {k}: direction bit {dir_bit} must lie "
                f"above the paired dimension {s.dim} and inside the "
                f"{q}-bit address"
            )
        if s.dim not in direct:
            direct[s.dim] = _dim_mode(topo, s.dim) == "direct"
        steps.append(StepDescriptor(
            index=k,
            dim=s.dim,
            dir_bit=dir_bit,
            descending=dir_bit is None and bool(s.dir_val),
            direct=direct[s.dim],
            phase=s.phase,
        ))
    return ScheduleDescriptor(
        topology=topo.name,
        kind=kind,
        num_nodes=n,
        descending=descending,
        steps=tuple(steps),
        ledgers={p: schedule_ledger(steps, n, p) for p in ("packed", "single")},
    )


def schedule_ledger(steps: Sequence, num_nodes: int, payload_policy: str, *,
                    block: int = 1, ops_each: int = 1) -> Ledger:
    """The cost of compare-exchange ``steps`` with ``block``-key messages
    and ``ops_each`` operations per rank and step."""
    ledger = Ledger()
    for st in steps:
        charge_exchange_step(ledger, num_nodes, st.direct,
                             payload_policy=payload_policy, block=block,
                             ops_each=ops_each)
    return ledger


def plan_comm_schedule(plan, topo, *, payload_policy: str = "packed"
                       ) -> CommSchedule:
    """Reconstruct the :class:`CommSchedule` a plan predicts.

    The inverse direction of compilation: from the descriptors back to
    per-step ``(src, dst, kind, size)`` events in node addresses,
    comparable one-for-one with :func:`extract_schedule` output and
    usable with :func:`~repro.obs.cross_validate_timeline`.  Intended
    for validation sizes (it loops per node); the executor never calls
    it.
    """
    if isinstance(plan, PrefixDescriptor):
        return _prefix_comm_schedule(plan, topo)
    if isinstance(plan, ScheduleDescriptor):
        return _schedule_comm_schedule(plan, topo, payload_policy)
    raise TypeError(
        f"expected PrefixDescriptor or ScheduleDescriptor, got {type(plan)!r}"
    )


def _prefix_comm_schedule(plan: PrefixDescriptor, topo) -> CommSchedule:
    events = []
    step = 0
    nodes = topo.all_nodes_array()

    def exchange(partners) -> None:
        events.extend(
            CommEvent(step=step, src=u, dst=int(v), kind="sendrecv", size=1)
            for u, v in enumerate(partners)
        )

    for _phase in range(2):
        for i in plan.rounds:
            step += 1
            exchange(topo.intra_partner_v(nodes, i))
        step += 1
        exchange(topo.cross_partner_v(nodes))
    if plan.paper_literal:
        step += 1
        exchange(topo.cross_partner_v(nodes))
    return CommSchedule(
        num_nodes=plan.num_nodes,
        topology=plan.topology,
        events=tuple(events),
        steps=step,
        comp_steps=plan.comp_steps,
        completed=True,
    )


def _schedule_comm_schedule(plan: ScheduleDescriptor, topo,
                            payload_policy: str) -> CommSchedule:
    from repro.core.dual_sort import _check_policy

    _check_policy(payload_policy)
    n = plan.num_nodes
    events = []
    step = 0
    for cs in plan.steps:
        bit = 1 << cs.dim
        if cs.direct:
            step += 1
            events.extend(
                CommEvent(step=step, src=u, dst=u ^ bit, kind="sendrecv",
                          size=1)
                for u in range(n)
            )
            continue
        supported = [u for u in range(n)
                     if topo.has_dimension_link(u, cs.dim)]
        unsupported = [u for u in range(n)
                       if not topo.has_dimension_link(u, cs.dim)]
        # cycle 1: unsupported -> supported over cross-edges
        step += 1
        events.extend(
            CommEvent(step=step, src=u, dst=u ^ 1, kind="send", size=1)
            for u in unsupported
        )
        # cycle 2: supported pairs exchange (2-key packed, else the relay)
        step += 1
        size = 2 if payload_policy == "packed" else 1
        events.extend(
            CommEvent(step=step, src=u, dst=u ^ bit, kind="sendrecv",
                      size=size)
            for u in supported
        )
        # cycle 3: supported -> unsupported over cross-edges
        step += 1
        events.extend(
            CommEvent(step=step, src=u, dst=u ^ 1, kind="send", size=1)
            for u in supported
        )
        if payload_policy == "single":
            # cycle 4: supported pairs exchange their own keys
            step += 1
            events.extend(
                CommEvent(step=step, src=u, dst=u ^ bit, kind="sendrecv",
                          size=1)
                for u in supported
            )
    return CommSchedule(
        num_nodes=n,
        topology=plan.topology,
        events=tuple(events),
        steps=step,
        comp_steps=len(plan.steps),
        completed=True,
    )


def check_plan(plan, topo, *, payload_policy: str = "packed") -> None:
    """Verify ``plan`` against the record-only extractor.

    Runs the algorithm's SPMD program through :func:`extract_schedule`
    and compares step count, computation steps and the event set with
    :func:`plan_comm_schedule`; raises :class:`PlanError` on any
    divergence.  Cost grows with the per-node programs, so this is a
    test-time check, not part of compilation.
    """
    n = plan.num_nodes
    if isinstance(plan, PrefixDescriptor):
        from repro.core.dual_prefix import dual_prefix_program
        from repro.core.ops import ADD

        program = dual_prefix_program(
            topo, np.arange(n, dtype=object), ADD,
            paper_literal=plan.paper_literal,
        )
    else:
        from repro.core.dual_sort import schedule_program

        program = schedule_program(
            topo, list(range(n)), [s.schedule_step() for s in plan.steps],
            payload_policy=payload_policy,
        )
    predicted = plan_comm_schedule(plan, topo, payload_policy=payload_policy)
    extracted = extract_schedule(topo, program)
    if not extracted.completed:
        raise PlanError(
            f"extraction of {plan.topology} schedule did not complete "
            f"(stalled at step {extracted.stalled_at})"
        )
    problems = []
    if predicted.steps != extracted.steps:
        problems.append(
            f"step count {predicted.steps} != extracted {extracted.steps}"
        )
    if predicted.comp_steps != extracted.comp_steps:
        problems.append(
            f"comp steps {predicted.comp_steps} != extracted "
            f"{extracted.comp_steps}"
        )
    key = lambda e: (e.step, e.src, e.dst, e.kind, e.size)  # noqa: E731
    pred = sorted(map(key, predicted.events))
    extr = sorted(map(key, extracted.events))
    if pred != extr:
        diff = set(pred).symmetric_difference(extr)
        sample = sorted(diff)[:5]
        problems.append(
            f"{len(diff)} event(s) differ; first: {sample}"
        )
    if problems:
        raise PlanError(
            f"compiled plan for {plan.topology} diverges from the "
            f"extracted schedule: " + "; ".join(problems)
        )


# -- shard-disjointness race checking ------------------------------------------


@dataclass(frozen=True)
class WriteSpan:
    """A strided-block write set: elements ``base + k*stride + j`` for
    ``k < count``, ``j < block``, inside the address space ``buffer``.

    This is exactly the footprint of a numpy reshape-view write — a
    contiguous slab is ``count=1``, an interleaved view (every other
    ``2**b``-block, a transposed column) has ``count > 1`` — so the write
    sets of the sharded prefix workers and the in-place ascend rounds are
    all expressible, and overlap between two spans is decidable by
    integer division instead of runtime ``shares_memory``.
    """

    buffer: str
    base: int
    stride: int
    count: int
    block: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.count < 1 or self.block < 1:
            raise ValueError(f"malformed span {self}")
        if self.count > 1 and self.stride < self.block:
            raise ValueError(
                f"span {self} overlaps itself: stride {self.stride} < "
                f"block {self.block}"
            )

    @property
    def stop(self) -> int:
        """One past the largest element."""
        return self.base + (self.count - 1) * self.stride + self.block

    def elements(self) -> frozenset[int]:
        """The concrete element set (test/debug aid; O(count * block))."""
        return frozenset(
            self.base + k * self.stride + j
            for k in range(self.count)
            for j in range(self.block)
        )


def spans_overlap(a: WriteSpan, b: WriteSpan) -> bool:
    """Exact strided-block intersection test.

    Per block ``[x, x + a.block)`` of ``a``, the blocks of ``b`` that can
    intersect it start at ``b.base + j*b.stride`` with
    ``x - b.block < b.base + j*b.stride < x + a.block``; solving for the
    integer ``j`` range makes the test O(min(count)) with no element
    enumeration.
    """
    if a.buffer != b.buffer:
        return False
    if a.count > b.count:
        a, b = b, a
    for k in range(a.count):
        x = a.base + k * a.stride
        j_min = (x - b.block - b.base) // b.stride + 1
        j_max = -((b.base - x - a.block) // b.stride) - 1
        if max(j_min, 0) <= min(j_max, b.count - 1):
            return True
    return False


def _check_disjoint(
    spans: Sequence[tuple[str, WriteSpan]], what: str
) -> None:
    """Pairwise disjointness over labelled spans, or :class:`ShardRaceError`."""
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            (name_a, a), (name_b, b) = spans[i], spans[j]
            if spans_overlap(a, b):
                raise ShardRaceError(
                    f"{what}: write sets of {name_a} and {name_b} overlap "
                    f"in buffer {a.buffer!r} ({a} vs {b})"
                )


def shard_task_spans(
    n: int, m: int, tasks: Sequence[tuple[int, int, int]]
) -> list[tuple[str, WriteSpan]]:
    """Write spans of the sharded-prefix fork-pool tasks.

    ``tasks`` are ``(cls, start, stop)`` cluster blocks over a length-``n``
    state with ``2**m``-node clusters (the triples carried by
    ``repro.core.replay._shard_worker``).  The state is position-major:
    position ``k`` of cluster ``c`` of class ``cls`` sits at
    ``cls * n/2 + k * 2**m + c``, so a task writes columns
    ``[start, stop)`` of its class half's ``2**m x 2**m`` square — one
    ``stop - start`` block in each of the ``2**m`` position rows.  Both
    the ``t`` and ``s`` buffers get the same footprint.
    """
    half = n // 2
    width = 1 << m
    if n <= 0 or n % 2 or half != width * width:
        raise ShardRaceError(
            f"shard geometry n={n}, m={m} does not split into two halves "
            f"of {width} whole {width}-node clusters"
        )
    spans: list[tuple[str, WriteSpan]] = []
    for cls, start, stop in tasks:
        if cls not in (0, 1):
            raise ShardRaceError(f"shard task has class {cls}, not 0/1")
        if not 0 <= start < stop <= width:
            raise ShardRaceError(
                f"shard task class {cls} block [{start}, {stop}) escapes "
                f"its 0..{width} cluster range"
            )
        name = f"shard(cls={cls}, [{start}:{stop}))"
        for buf in ("t", "s"):
            spans.append((name, WriteSpan(
                buffer=buf,
                base=cls * half + start,
                stride=width,
                count=width,
                block=stop - start,
            )))
    return spans


def check_shard_plan(
    n: int, m: int, tasks: Sequence[tuple[int, int, int]]
) -> list[tuple[str, WriteSpan]]:
    """Verify a sharded-replay task list is race-free; returns its spans.

    Raises :class:`ShardRaceError` when any two tasks' write sets
    overlap or a task escapes its class half — called by
    the sharded prefix before the pool forks, so a racing
    plan can never reach shared memory.
    """
    spans = shard_task_spans(n, m, tasks)
    _check_disjoint(spans, f"shard plan (n={n}, m={m})")
    return spans


def columnar_round_spans(
    length: int, bit: int
) -> list[tuple[str, WriteSpan]]:
    """Write spans of one in-place ``bit_pair_views`` ascend round.

    The round body writes ``s_hi``, ``t_hi`` and ``t_lo``, where lo/hi
    are the bit-``bit`` pair sides of a length-``length`` column: every
    other ``2**bit``-block, stride ``2**(bit+1)``.
    """
    if bit < 0 or (1 << (bit + 1)) > length:
        raise ShardRaceError(
            f"bit {bit} out of range for a length-{length} column"
        )
    blk = 1 << bit
    pairs = length >> (bit + 1)

    def side(buf: str, hi: bool) -> WriteSpan:
        return WriteSpan(
            buffer=buf,
            base=blk if hi else 0,
            stride=2 * blk,
            count=pairs,
            block=blk,
        )

    return [
        ("t_lo", side("t", False)),
        ("t_hi", side("t", True)),
        ("s_hi", side("s", True)),
    ]


def check_columnar_round(
    length: int, bit: int
) -> list[tuple[str, WriteSpan]]:
    """Verify one ascend round's in-place writes cannot race.

    Raises :class:`ShardRaceError` on overlap or an out-of-column span;
    returns the spans otherwise.
    """
    spans = columnar_round_spans(length, bit)
    for name, span in spans:
        if span.stop > length:
            raise ShardRaceError(
                f"columnar round bit {bit}: {name} span {span} escapes "
                f"the length-{length} column"
            )
    _check_disjoint(spans, f"columnar round (length={length}, bit={bit})")
    return spans
