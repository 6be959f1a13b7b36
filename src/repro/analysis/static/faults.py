"""Static fault-impact analysis over :class:`CommSchedule` IR.

PR 4 verified the *fault-free* schedules; this module answers the next
question without running the engine: **what breaks when faults strike?**
Three analyses, all pure over the IR plus a
:class:`~repro.simulator.faults.StaticFaultView`:

* :func:`analyze_fault_impact` — a fault-aware abstract interpreter.
  Walks the schedule step by step, removes every transfer a crash or cut
  makes impossible, and propagates the loss through the send/recv
  dependence DAG.  Under ``"block"`` semantics (no timeout) a rank whose
  exchange fails blocks forever, so loss cascades as *blocking*; under
  ``"cancel"`` semantics (``timeout`` + ``on_timeout="cancel"``) the rank
  continues with the :data:`~repro.simulator.faults.FAULTED` sentinel, so
  loss cascades as *taint*.  The result's **blast radius** is the exact
  rank set whose outputs are undelivered (dead or blocked) or corrupted
  (tainted), and its fault-pruned schedule feeds straight into
  :func:`~repro.analysis.static.checkers.check_pairing` for wait-for-graph
  deadlock/orphan diagnosis (:meth:`FaultImpact.diagnose`).

* :func:`recovery_impact` — the static prediction of
  :func:`~repro.core.run_faulty.run_faulty`'s exclusion set: healthy
  membership by BFS reachability (``degraded``) or route existence
  (``reroute``) from ``root = min(healthy)``.  The differential suite
  asserts it matches the dynamic outcome for every single-node and
  single-link fault on D_2..D_4.

* :func:`minimal_cut` and friends — the smallest fault set violating a
  correctness predicate.  The generic search is greedy (plus caller
  seeds) for an upper bound, then branch-and-bound by iterative
  deepening under an evaluation budget; :func:`structural_node_cut` /
  :func:`structural_link_cut` compute the all-ranks-included cuts
  exactly via Menger max-flow sweeps, and :func:`minimal_cut_table`
  produces the E19 table for D_2..D_5 vs Q_5.

Note the taint analysis is **rank-level**: a rank that receives any
fault-influenced payload counts as corrupted, even if the value it
finally returns happens to be unaffected.  That is the right granularity
for blast-radius triage (and matches the engine's timeline-derived taint
closure, asserted in the differential tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from repro.analysis.static.checkers import check_pairing
from repro.analysis.static.schedule import (
    BlockedOp,
    CommEvent,
    CommSchedule,
    Violation,
)
from repro.routing.fault_tolerant import (
    _min_node_separator, _residual, _unit_max_flow, adaptive_route,
)
from repro.simulator.faults import FaultPlan, StaticFaultView
from repro.topology.base import Topology
from repro.topology.dualcube import DualCube
from repro.topology.faults import FaultSet, FaultyTopology

__all__ = [
    "FaultImpact",
    "analyze_fault_impact",
    "RecoveryImpact",
    "recovery_impact",
    "fault_set_of",
    "all_included_violated",
    "rank_included_violated",
    "quorum_violated",
    "CutResult",
    "minimal_cut",
    "structural_node_cut",
    "structural_link_cut",
    "quorum_node_cut",
    "minimal_cut_table",
]

_SEMANTICS = ("block", "cancel")
_RECOVERY_MODES = ("degraded", "reroute")


def _as_view(faults) -> StaticFaultView:
    """Coerce FaultSet / FaultPlan / StaticFaultView to a static view."""
    if isinstance(faults, StaticFaultView):
        return faults
    if isinstance(faults, FaultPlan):
        return faults.static_view()
    if isinstance(faults, FaultSet):
        return StaticFaultView.from_faults(
            nodes=faults.nodes, links=faults.links
        )
    raise TypeError(
        f"expected FaultSet, FaultPlan or StaticFaultView, got "
        f"{type(faults).__name__}"
    )


# -- blast radius: the fault-aware abstract interpreter ------------------------


@dataclass(frozen=True)
class FaultImpact:
    """Outcome of :func:`analyze_fault_impact` on one schedule.

    ``dead`` are ranks whose crash cycle falls inside the schedule;
    ``blocked`` (``"block"`` semantics) are alive ranks whose request can
    never complete; ``tainted`` (``"cancel"`` semantics) are alive ranks
    that lost an exchange or received fault-influenced data.  ``schedule``
    is the fault-pruned :class:`CommSchedule` — delivered events only,
    with one synthesized :class:`BlockedOp` per blocked rank — ready for
    the pairing checker.
    """

    semantics: str
    num_nodes: int
    dead: tuple[int, ...]
    blocked: tuple[int, ...]
    tainted: tuple[int, ...]
    lost: tuple[CommEvent, ...]
    schedule: CommSchedule

    @property
    def blast_radius(self) -> tuple[int, ...]:
        """Ranks whose outputs are corrupted or undelivered."""
        return tuple(
            sorted(set(self.dead) | set(self.blocked) | set(self.tainted))
        )

    @property
    def delivered(self) -> int:
        """Messages that still complete under the faults."""
        return len(self.schedule.events)

    def diagnose(self) -> list[Violation]:
        """Wait-for-graph diagnosis of the fault-pruned schedule.

        Re-runs :func:`~repro.analysis.static.checkers.check_pairing`, so
        a hang shows up as the blocking cycle (``deadlock``) or as waits
        on terminated ranks (``orphan``), not as a timeout.
        """
        return check_pairing(self.schedule)


def _synth_blocked_op(rank: int, step: int,
                      lost: Sequence[CommEvent]) -> BlockedOp:
    """Reconstruct the pending request of ``rank`` from its lost legs."""
    outs = [e for e in lost if e.src == rank]
    ins = [e for e in lost if e.dst == rank]
    if outs:
        e = outs[0]
        if e.kind == "sendrecv":
            return BlockedOp(rank=rank, kind="sendrecv", send_to=e.dst,
                             recv_from=e.dst, issued_step=step)
        if e.kind == "shift":
            recv_from = ins[0].src if ins else None
            return BlockedOp(rank=rank, kind="shift", send_to=e.dst,
                             recv_from=recv_from, issued_step=step)
        return BlockedOp(rank=rank, kind="send", send_to=e.dst,
                         issued_step=step)
    return BlockedOp(rank=rank, kind="recv", recv_from=ins[0].src,
                     issued_step=step)


def analyze_fault_impact(
    schedule: CommSchedule,
    faults,
    *,
    semantics: str | None = None,
) -> FaultImpact:
    """Forward taint/blocking propagation of ``faults`` through ``schedule``.

    ``faults`` is a :class:`~repro.topology.faults.FaultSet` (permanent),
    a :class:`~repro.simulator.faults.FaultPlan` (crashes/cuts with
    cycles; transient drop/delay plans and downtime-interval plans are
    rejected — their effect is timing-dependent), or a
    :class:`StaticFaultView`.

    ``semantics`` defaults to what the plan implies: ``"cancel"`` when it
    carries ``on_timeout="cancel"`` with a timeout, else ``"block"``.
    Per lockstep step, an event is lost when an endpoint is dead, the
    link is down, or (``"block"``) an endpoint already blocked; because a
    request's legs stand or fall together, loss reaches a fixed point
    within the step (a failed rank's other legs fail too — all members of
    a failed lockstep exchange are affected).  Under ``"block"`` the
    failed alive ranks block from that step on; under ``"cancel"`` they
    continue tainted, and every delivered message from a tainted sender
    taints its receiver.
    """
    view = _as_view(faults)
    if view.transient:
        raise ValueError(
            "fault plan has drop/delay randomness; static impact analysis "
            "covers deterministic crashes and cuts only (run mode='retry' "
            "dynamically for transient plans)"
        )
    if view.downs:
        raise ValueError(
            "fault plan has downtime intervals; lockstep stalls make "
            "schedule steps drift from engine cycles, so a step-indexed "
            "analysis of a bounded outage window would be unsound — "
            "over-approximate each downtime as a crash at its start cycle "
            "(see repro.simulator.campaign.structural_overapproximation) "
            "or run the plan dynamically"
        )
    if not schedule.completed:
        raise ValueError(
            "impact analysis needs a completed baseline schedule; this one "
            f"stalls at step {schedule.stalled_at}"
        )
    if semantics is None:
        semantics = (
            "cancel"
            if view.timeout is not None and view.on_timeout == "cancel"
            else "block"
        )
    if semantics not in _SEMANTICS:
        raise ValueError(
            f"semantics must be one of {_SEMANTICS}, got {semantics!r}"
        )
    crash_cycle = dict(view.crashes)
    for rank in crash_cycle:
        if not 0 <= rank < schedule.num_nodes:
            raise ValueError(
                f"crash rank {rank} outside 0..{schedule.num_nodes - 1}"
            )

    by_step: dict[int, list[CommEvent]] = {}
    for e in schedule.events:
        by_step.setdefault(e.step, []).append(e)

    blocked_at: dict[int, int] = {}
    blocked_ops: list[BlockedOp] = []
    tainted: set[int] = set()
    kept: list[CommEvent] = []
    lost_all: list[CommEvent] = []

    for step in sorted(by_step):
        events = by_step[step]
        lost: set[int] = set()
        for i, e in enumerate(events):
            if (
                view.node_dead(e.src, step)
                or view.node_dead(e.dst, step)
                or view.link_down(e.src, e.dst, step)
                or (
                    semantics == "block"
                    and (e.src in blocked_at or e.dst in blocked_at)
                )
            ):
                lost.add(i)
        # A request's legs stand or fall together: any rank with a lost
        # leg this step loses its whole exchange (fixed point — shift
        # rings can cascade all the way around).
        while True:
            failed = {events[i].src for i in lost} | {
                events[i].dst for i in lost
            }
            grown = {
                i
                for i, e in enumerate(events)
                if i not in lost and (e.src in failed or e.dst in failed)
            }
            if not grown:
                break
            lost |= grown

        taint_at_entry = frozenset(tainted)
        lost_here = [events[i] for i in sorted(lost)]
        for i, e in enumerate(events):
            if i in lost:
                lost_all.append(e)
            else:
                kept.append(e)
                if semantics == "cancel" and e.src in taint_at_entry:
                    tainted.add(e.dst)
        if not lost_here:
            continue
        for rank in sorted(failed):
            # Ranks that die within the schedule are terminated, not
            # blocked/tainted — their partners orphan on them instead.
            if crash_cycle.get(rank, schedule.steps + 1) <= schedule.steps:
                continue
            if semantics == "block":
                if rank not in blocked_at:
                    blocked_at[rank] = step
                    blocked_ops.append(
                        _synth_blocked_op(rank, step, lost_here)
                    )
            else:
                tainted.add(rank)

    dead = tuple(
        sorted(r for r, c in crash_cycle.items() if c <= schedule.steps)
    )
    blocked_ops.sort(key=lambda b: b.rank)
    completed = not blocked_ops
    pruned = CommSchedule(
        num_nodes=schedule.num_nodes,
        topology=schedule.topology,
        events=tuple(kept),
        steps=(
            schedule.steps
            if completed
            else max((e.step for e in kept), default=0)
        ),
        comp_steps=schedule.comp_steps,
        completed=completed,
        blocked=tuple(blocked_ops),
        stalled_at=(
            None
            if completed
            else min(b.issued_step for b in blocked_ops)
        ),
    )
    return FaultImpact(
        semantics=semantics,
        num_nodes=schedule.num_nodes,
        dead=dead,
        blocked=tuple(sorted(blocked_at)),
        tainted=tuple(sorted(tainted)),
        lost=tuple(lost_all),
        schedule=pruned,
    )


# -- recovery-collective exclusion prediction ----------------------------------


@dataclass(frozen=True)
class RecoveryImpact:
    """Static prediction of a :func:`~repro.core.run_faulty.run_faulty`
    outcome: which ranks participate and which are excluded."""

    mode: str
    root: int
    members: tuple[int, ...]
    excluded: tuple[int, ...]
    num_nodes: int

    @property
    def blast_radius(self) -> tuple[int, ...]:
        """Ranks without a (correct) output — the exclusion set."""
        return self.excluded


def recovery_impact(
    topo: Topology,
    faults: FaultSet | None = None,
    *,
    mode: str = "degraded",
) -> RecoveryImpact:
    """Predict ``run_faulty``'s exclusion set without running anything.

    ``degraded`` membership is BFS reachability from ``min(healthy)``
    over the healthy subgraph; ``reroute`` membership is route existence
    (:func:`~repro.routing.fault_tolerant.adaptive_route` to each reachable
    rank on dual-cubes, the BFS set that
    :func:`~repro.routing.fault_tolerant.ft_route` walks otherwise) — the same
    reachability laws the dynamic collectives are built from, checked
    here against the *executed* outcome by the differential suite.
    """
    if mode not in _RECOVERY_MODES:
        raise ValueError(
            f"mode must be one of {_RECOVERY_MODES}, got {mode!r}"
        )
    faults = faults if faults is not None else FaultSet()
    ftopo = FaultyTopology(topo, faults)
    root = min(ftopo.healthy_nodes())
    members = set(ftopo.bfs_parents(root))
    if mode == "reroute" and isinstance(topo, DualCube):
        members = {w for w in members
                   if adaptive_route(ftopo, topo, root, w) is not None}
    n = topo.num_nodes
    member_t = tuple(sorted(members))
    excluded = tuple(sorted(set(range(n)) - members))
    return RecoveryImpact(
        mode=mode,
        root=root,
        members=member_t,
        excluded=excluded,
        num_nodes=n,
    )


# -- correctness predicates over fault elements --------------------------------


def fault_set_of(elements: Iterable[tuple]) -> FaultSet:
    """Build a :class:`FaultSet` from ``("node", r)`` / ``("link", (u, v))``
    elements (the currency of the minimal-cut search)."""
    nodes: list[int] = []
    links: list[tuple[int, int]] = []
    for kind, payload in elements:
        if kind == "node":
            nodes.append(payload)
        elif kind == "link":
            links.append(payload)
        else:
            raise ValueError(
                f"fault element kind must be 'node' or 'link', got {kind!r}"
            )
    return FaultSet(nodes=nodes, links=links)


def _recovery_or_none(topo, elements, mode) -> RecoveryImpact | None:
    fs = fault_set_of(elements)
    if len(fs.nodes) >= topo.num_nodes:
        return None  # every node down: no run at all
    return recovery_impact(topo, fs, mode=mode)


def all_included_violated(
    topo: Topology, *, mode: str = "degraded"
) -> Callable[[tuple], bool]:
    """Predicate: some *healthy* rank is excluded from the collective."""

    def violated(elements: tuple) -> bool:
        ri = _recovery_or_none(topo, elements, mode)
        if ri is None:
            return True
        fs = fault_set_of(elements)
        return any(r not in fs.nodes for r in ri.excluded)

    return violated


def rank_included_violated(
    topo: Topology, rank: int, *, mode: str = "degraded"
) -> Callable[[tuple], bool]:
    """Predicate: ``rank`` (e.g. the root, 0) gets no correct output."""
    topo.check_node(rank)

    def violated(elements: tuple) -> bool:
        ri = _recovery_or_none(topo, elements, mode)
        return ri is None or rank in ri.excluded

    return violated


def quorum_violated(
    topo: Topology, frac: float = 0.75, *, mode: str = "degraded"
) -> Callable[[tuple], bool]:
    """Predicate: fewer than ``ceil(frac * n)`` ranks get outputs."""
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"quorum fraction must be in (0, 1], got {frac}")
    need = math.ceil(frac * topo.num_nodes)

    def violated(elements: tuple) -> bool:
        ri = _recovery_or_none(topo, elements, mode)
        return ri is None or len(ri.members) < need

    return violated


# -- minimal-cut search --------------------------------------------------------


@dataclass(frozen=True)
class CutResult:
    """Outcome of a minimal-cut search.

    ``found`` — some violating fault set was found; ``elements`` is then
    the smallest one seen.  ``exact`` — every smaller size was fully
    enumerated (the cut is provably minimal), not just the best within
    the evaluation ``budget``.
    """

    elements: tuple
    found: bool
    exact: bool
    evaluations: int

    @property
    def size(self) -> int | None:
        return len(self.elements) if self.found else None


def minimal_cut(
    violated: Callable[[tuple], bool],
    candidates: Sequence,
    *,
    score: Callable[[tuple], float] | None = None,
    seeds: Iterable[tuple] = (),
    max_size: int | None = None,
    budget: int = 50_000,
) -> CutResult:
    """Smallest subset of ``candidates`` for which ``violated`` holds.

    Deterministic greedy + branch-and-bound: the upper bound comes from
    caller-provided ``seeds`` (each minimized by element removal) and a
    greedy pass (guided by ``score`` when given, else candidate order);
    then iterative-deepening enumeration proves or improves it, spending
    at most ``budget`` predicate evaluations overall.  Predicates need
    **not** be monotone (``run_faulty``'s root is ``min(healthy)``, so
    adding a fault can shrink the exclusion set) — which is exactly why
    the deepening pass enumerates sizes exhaustively instead of pruning
    supersets.
    """
    cands = list(candidates)
    evals = 0
    exhausted = False

    def check(subset: tuple) -> bool:
        nonlocal evals, exhausted
        if evals >= budget:
            exhausted = True
            raise _BudgetExhausted
        evals += 1
        return violated(subset)

    def minimize(subset: tuple) -> tuple:
        current = list(subset)
        for elem in list(current):
            if len(current) == 1:
                break
            trial = tuple(e for e in current if e != elem)
            if check(trial):
                current = list(trial)
        return tuple(current)

    best: tuple | None = None
    try:
        if check(()):
            return CutResult((), True, True, evals)

        for seed in seeds:
            seed = tuple(seed)
            if (best is None or len(seed) < len(best)) and check(seed):
                best = minimize(seed)

        # Greedy pass: grow a violating set one element at a time.
        chosen: list = []
        remaining = list(cands)
        limit = max_size if max_size is not None else len(cands)
        while remaining and len(chosen) < limit:
            if best is not None and len(chosen) + 1 >= len(best):
                break  # cannot beat the current upper bound
            if score is None:
                pick = remaining[0]
            else:
                pick = max(
                    remaining,
                    key=lambda c: (score(tuple(chosen) + (c,)),
                                   -remaining.index(c)),
                )
            chosen.append(pick)
            remaining.remove(pick)
            if check(tuple(chosen)):
                trimmed = minimize(tuple(chosen))
                if best is None or len(trimmed) < len(best):
                    best = trimmed
                break

        # Branch-and-bound by iterative deepening: enumerate sizes
        # 1..k-1 exhaustively under the budget.
        ceiling = len(best) if best is not None else (
            min(limit, len(cands)) + 1
        )
        levels_proved = 0
        for size in range(1, ceiling):
            if max_size is not None and size > max_size:
                break
            hit_subset: tuple | None = None
            for subset in combinations(cands, size):
                if check(subset):
                    hit_subset = subset
                    break
            if hit_subset is not None:
                return CutResult(
                    tuple(hit_subset), True, levels_proved == size - 1,
                    evals,
                )
            levels_proved = size
        if best is not None:
            return CutResult(
                tuple(best), True, levels_proved >= len(best) - 1, evals
            )
    except _BudgetExhausted:
        pass

    if best is not None:
        return CutResult(tuple(best), True, False, evals)
    # Nothing violated: exact only if every allowed size was enumerated.
    full = (not exhausted) and (max_size is None or max_size >= len(cands))
    return CutResult((), False, full, evals)


class _BudgetExhausted(Exception):
    """Internal: the evaluation budget ran out mid-search."""


# -- exact structural cuts via Menger max-flow ---------------------------------


def structural_node_cut(topo: Topology, *, mode: str = "degraded"
                        ) -> CutResult:
    """Exact smallest crash set excluding a healthy rank (Menger).

    A crash set excludes a healthy rank iff it disconnects the healthy
    subgraph, so the answer is the vertex connectivity kappa(G), found
    by the same Menger sweep as
    :func:`~repro.routing.fault_tolerant.node_connectivity`.  The witness
    is re-verified against the recovery predicate before returning.
    """
    witness, flows = _min_node_separator(topo)
    elements = tuple(("node", r) for r in witness)
    if not all_included_violated(topo, mode=mode)(elements):
        raise ValueError(
            f"internal error: flow witness {witness} does not exclude a "
            f"healthy rank on {topo.name}"
        )
    return CutResult(elements, True, True, flows)


def structural_link_cut(topo: Topology, *, mode: str = "degraded"
                        ) -> CutResult:
    """Exact smallest link-cut set excluding a healthy rank (Menger).

    Edge connectivity lambda(G): every minimum edge cut separates node 0
    from some node, so the source-0 sweep over all sinks is exhaustive.
    """
    n = topo.num_nodes
    best = len(topo.neighbors(0))
    witness = tuple(
        sorted((min(0, v), max(0, v)) for v in topo.neighbors(0))
    )
    flows = 0
    arcs: dict[tuple[int, int], int] = {}
    for u, v in topo.edges():
        arcs[(u, v)] = 1
        arcs[(v, u)] = 1
    out, base = _residual(n, arcs)
    for sink in range(1, n):
        flow, reach = _unit_max_flow(out, base.copy(), 0, sink, best)
        flows += 1
        if flow < best:
            best = flow
            witness = tuple(
                sorted(
                    (min(u, v), max(u, v))
                    for u, v in topo.edges()
                    if (u in reach) != (v in reach)
                )
            )
    elements = tuple(("link", e) for e in witness)
    if not all_included_violated(topo, mode=mode)(elements):
        raise ValueError(
            f"internal error: flow witness {witness} does not exclude a "
            f"healthy rank on {topo.name}"
        )
    return CutResult(elements, True, True, flows)


# -- quorum cuts: region-growing seeds + generic search ------------------------


def _region_seeds(topo: Topology, need_excluded: int) -> list[tuple]:
    """Candidate crash sets from boundary isolation.

    Grow a connected region ``S`` from each seed (preferring neighbors
    that keep the boundary small) and propose crashing its boundary: if
    ``min(healthy)`` lands inside ``S``, everything outside is excluded;
    otherwise ``S`` plus the boundary is.  Region 0 (containing the
    default root) is the usual winner — crashing ``N(0)`` strands the
    root, excluding ``n - |S|`` ranks for only ``deg`` crashes.
    """
    n = topo.num_nodes
    seeds: list[tuple] = []
    for start in range(min(n, 4)):
        region = {start}
        boundary = set(topo.neighbors(start))
        for _ in range(min(n - 1, 2 * need_excluded)):
            root = min(set(range(n)) - boundary)
            excl = (n - len(region)) if root in region else (
                len(region) + len(boundary)
            )
            if excl >= need_excluded:
                seeds.append(tuple(("node", r) for r in sorted(boundary)))
            if not boundary:
                break
            grow = min(
                boundary,
                key=lambda v: len(
                    set(topo.neighbors(v)) - region - boundary
                ),
            )
            region.add(grow)
            boundary = {
                v
                for u in region
                for v in topo.neighbors(u)
                if v not in region
            }
    return seeds


def quorum_node_cut(
    topo: Topology,
    frac: float = 0.75,
    *,
    mode: str = "degraded",
    budget: int = 20_000,
) -> CutResult:
    """Smallest crash set dropping participation below ``ceil(frac * n)``.

    Region-growing isolation seeds provide the upper bound.  In
    ``degraded`` mode a connectivity lower bound applies: crashing fewer
    than kappa(G) nodes leaves the healthy subgraph connected, so every
    healthy rank participates and the quorum only fails once
    ``n - k < need`` — the cut is at least ``min(kappa, n - need + 1)``,
    and a seed matching it is provably minimal without enumeration.
    Otherwise the generic greedy + branch-and-bound pass proves
    minimality when the budget allows (``exact`` reports which).
    """
    n = topo.num_nodes
    need = math.ceil(frac * n)
    violated = quorum_violated(topo, frac, mode=mode)
    candidates = [("node", r) for r in range(n)]

    if mode == "degraded":
        kappa = structural_node_cut(topo, mode=mode).size
        lower = min(kappa, n - need + 1)
        for seed in sorted(_region_seeds(topo, n - need + 1), key=len):
            if len(seed) <= lower and violated(seed):
                return CutResult(tuple(seed), True, True, 1)

    def score(elements: tuple) -> float:
        ri = _recovery_or_none(topo, elements, mode)
        return float(n) if ri is None else float(len(ri.excluded))

    return minimal_cut(
        violated,
        candidates,
        score=score,
        seeds=_region_seeds(topo, n - need + 1),
        budget=budget,
    )


# -- the E19 table -------------------------------------------------------------


def minimal_cut_table(
    max_n: int = 4,
    *,
    quorum_frac: float = 0.75,
    budget: int = 20_000,
    mode: str = "degraded",
) -> list[dict]:
    """E19: minimal fault sets violating the recovery predicates.

    One row per network — D_2..D_``max_n`` and the size-matched Q_5 —
    with the exact all-ranks-included node and link cuts (Menger) and
    the quorum-``quorum_frac`` crash cut (search; ``quorum_exact`` says
    whether the budget sufficed to prove it minimal).  Fully
    deterministic: same inputs, same table.
    """
    from repro.topology.hypercube import Hypercube

    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    topos: list[Topology] = [DualCube(i) for i in range(2, max_n + 1)]
    topos.append(Hypercube(5))
    rows: list[dict] = []
    for topo in topos:
        node_cut = structural_node_cut(topo, mode=mode)
        link_cut = structural_link_cut(topo, mode=mode)
        quorum = quorum_node_cut(
            topo, quorum_frac, mode=mode, budget=budget
        )
        rows.append(
            {
                "topology": topo.name,
                "num_nodes": topo.num_nodes,
                "degree": len(topo.neighbors(0)),
                "node_cut": node_cut.size,
                "node_witness": [r for _, r in node_cut.elements],
                "link_cut": link_cut.size,
                "link_witness": [list(e) for _, e in link_cut.elements],
                "quorum_cut": quorum.size,
                "quorum_exact": quorum.exact,
                "quorum_witness": [r for _, r in quorum.elements],
                "quorum_frac": quorum_frac,
                "evaluations": quorum.evaluations,
            }
        )
    return rows
