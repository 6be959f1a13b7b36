"""Checkers over the :class:`~repro.analysis.static.schedule.CommSchedule` IR.

Each checker returns a list of
:class:`~repro.analysis.static.schedule.Violation` (empty = clean) and is
pure over the IR, so the same checks apply to extracted schedules,
recorded engine timelines (``TimelineRecorder.to_comm_schedule``), and
hand-built fixtures alike.

* :func:`check_edge_legality` — every transfer (delivered or blocked)
  must traverse an actual edge of the given topology;
* :func:`check_pairing` — send/recv pairing: a completed schedule is
  clean by construction, a stalled one is diagnosed through its wait-for
  graph (deadlock cycles, orphan receives, mismatched counterparts);
* :func:`check_congestion` — the 1-port model (<= 1 send and <= 1 receive
  per node per step, <= 1 message per directed link per step) plus an
  optional aggregate per-link load bound;
* :func:`check_bounds` — communication/computation step counts against
  theorem bounds and exact cost-model predictions.

Violation codes are grouped into classes with stable CLI exit codes
(:data:`EXIT_CODES`, :func:`exit_code_for`): legality 2, pairing 3,
congestion 4, bounds 5, fault impact 6.  When several classes fire, the
lowest (most fundamental) code wins, so ``repro check-schedule --json``
and ``repro check-faults`` report comparably in scripts and CI.
"""

from __future__ import annotations

from repro.analysis.static.schedule import CommSchedule, Violation
from repro.topology.base import Topology

__all__ = [
    "check_edge_legality",
    "check_pairing",
    "check_congestion",
    "check_bounds",
    "run_schedule_checks",
    "VIOLATION_CLASSES",
    "EXIT_CODES",
    "exit_code_for",
]

# Violation-code -> class.  Exit code 1 stays reserved for generic CLI
# errors (bad arguments, unknown topology), so classes start at 2.
VIOLATION_CLASSES: dict[str, str] = {
    "illegal-edge": "legality",
    "race": "legality",
    "stall": "pairing",
    "livelock": "pairing",
    "orphan": "pairing",
    "mismatch": "pairing",
    "deadlock": "pairing",
    "port-limit": "congestion",
    "link-congestion": "congestion",
    "comm-bound": "bounds",
    "comp-bound": "bounds",
    "comm-exact": "bounds",
    "comp-exact": "bounds",
    "impact": "impact",
}

EXIT_CODES: dict[str, int] = {
    "legality": 2,
    "pairing": 3,
    "congestion": 4,
    "bounds": 5,
    "impact": 6,
}


def exit_code_for(violations) -> int:
    """CLI exit code for a violation list: 0 clean, else the lowest class
    code present (unknown codes count as generic failures, exit 1)."""
    codes = set()
    for v in violations:
        cls = VIOLATION_CLASSES.get(v.code)
        codes.add(EXIT_CODES[cls] if cls is not None else 1)
    return min(codes) if codes else 0


def _legal_endpoint(u: int, v: int, topo: Topology, n: int) -> str | None:
    """Reason the ``u -> v`` hop is illegal, or None when it is fine."""
    if not 0 <= v < n:
        return f"endpoint {v} is outside 0..{n - 1}"
    if u == v:
        return f"rank {u} addresses itself"
    if not topo.has_edge(u, v):
        return f"no edge {u} <-> {v} in {topo.name}"
    return None


def check_edge_legality(
    schedule: CommSchedule, topo: Topology
) -> list[Violation]:
    """Every transfer must traverse a real edge of ``topo``.

    Both delivered events and the legs of blocked requests are checked,
    so an illegal endpoint is reported even when it (also) prevents the
    schedule from completing.  Repeated use of the same illegal pair is
    reported once per (src, dst) to keep reports readable.
    """
    if topo.num_nodes != schedule.num_nodes:
        return [
            Violation(
                "illegal-edge",
                f"schedule has {schedule.num_nodes} ranks but {topo.name} "
                f"has {topo.num_nodes} nodes",
            )
        ]
    n = topo.num_nodes
    out: list[Violation] = []
    seen: set[tuple[int, int]] = set()
    for e in schedule.events:
        pair = (e.src, e.dst)
        if pair in seen:
            continue
        seen.add(pair)
        reason = _legal_endpoint(e.src, e.dst, topo, n)
        if reason is not None:
            out.append(
                Violation(
                    "illegal-edge",
                    f"{e.kind} {e.src} -> {e.dst}: {reason}",
                    step=e.step,
                    rank=e.src,
                )
            )
    for b in schedule.blocked:
        for other in b.waits_on():
            pair = (b.rank, other)
            if pair in seen:
                continue
            seen.add(pair)
            reason = _legal_endpoint(b.rank, other, topo, n)
            if reason is not None:
                out.append(
                    Violation(
                        "illegal-edge",
                        f"blocked {b.kind} at rank {b.rank} targets "
                        f"{other}: {reason}",
                        rank=b.rank,
                    )
                )
    return out


def _find_cycle(edges: dict[int, tuple[int, ...]]) -> list[int] | None:
    """One cycle in the wait-for graph as a rank list, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {u: WHITE for u in edges}
    for start in edges:
        if color[start] != WHITE:
            continue
        # Iterative DFS keeping the gray path for cycle reconstruction.
        path: list[int] = []
        stack: list[tuple[int, int]] = [(start, 0)]
        while stack:
            u, i = stack.pop()
            if i == 0:
                color[u] = GRAY
                path.append(u)
            targets = edges.get(u, ())
            if i < len(targets):
                stack.append((u, i + 1))
                v = targets[i]
                if v not in color:
                    continue
                if color[v] == GRAY:
                    return path[path.index(v):] + [v]
                if color[v] == WHITE:
                    stack.append((v, 0))
            else:
                color[u] = BLACK
                path.pop()
    return None


def check_pairing(schedule: CommSchedule) -> list[Violation]:
    """Send/recv pairing: diagnose why a schedule cannot complete.

    A completed schedule pairs by construction (a message is only ever
    delivered into a matching counterpart) and returns no findings.  A
    stalled schedule is diagnosed from its blocked requests:

    * ``orphan`` — a request waits on a rank that has already terminated
      (the classic orphan receive / unreceived send);
    * ``mismatch`` — both sides are present but their legs do not
      reciprocate (``Send`` facing ``Send``, ``SendRecv`` facing a bare
      ``Recv``, or a counterpart engaged with a third rank);
    * ``deadlock`` — a cycle in the wait-for graph over blocked ranks;
    * ``stall``/``livelock`` — the summary finding carrying the step.
    """
    out: list[Violation] = []
    if schedule.completed and not schedule.truncated:
        return out
    blocked = {b.rank: b for b in schedule.blocked}
    if schedule.truncated:
        out.append(
            Violation(
                "livelock",
                f"no completion within the step budget after step "
                f"{schedule.steps}; {len(blocked)} requests pending",
            )
        )
    else:
        out.append(
            Violation(
                "stall",
                f"schedule stalls at step {schedule.stalled_at}: "
                f"{len(blocked)} blocked requests can never complete",
                step=schedule.stalled_at,
            )
        )

    edges: dict[int, tuple[int, ...]] = {}
    for b in blocked.values():
        waiting: list[int] = []
        for other in b.waits_on():
            peer = blocked.get(other)
            if peer is None:
                out.append(
                    Violation(
                        "orphan",
                        f"{b.kind} at rank {b.rank} waits on rank {other}, "
                        f"which "
                        + (
                            "does not exist"
                            if not 0 <= other < schedule.num_nodes
                            else "has terminated"
                        ),
                        rank=b.rank,
                    )
                )
                continue
            waiting.append(other)
            reciprocates = b.rank in peer.waits_on()
            kinds_ok = (b.kind == "sendrecv") == (peer.kind == "sendrecv")
            if not reciprocates or not kinds_ok:
                out.append(
                    Violation(
                        "mismatch",
                        f"{b.kind} at rank {b.rank} faces {peer.kind} at "
                        f"rank {other}, which does not reciprocate",
                        rank=b.rank,
                    )
                )
        edges[b.rank] = tuple(waiting)

    cycle = _find_cycle(edges)
    if cycle is not None:
        out.append(
            Violation(
                "deadlock",
                "wait-for cycle among blocked ranks: "
                + " -> ".join(map(str, cycle)),
                rank=cycle[0],
            )
        )
    return out


def check_congestion(
    schedule: CommSchedule,
    *,
    port_limit: int = 1,
    max_link_load: int | None = None,
) -> list[Violation]:
    """1-port discipline per step, plus an optional aggregate link bound.

    Per lockstep step every node may send at most ``port_limit`` messages
    and receive at most ``port_limit`` messages, and each directed link
    may carry at most one message.  ``max_link_load`` additionally bounds
    the total messages any undirected link carries over the whole run
    (the per-link congestion budget).
    """
    out: list[Violation] = []
    by_step: dict[int, list] = {}
    for e in schedule.events:
        by_step.setdefault(e.step, []).append(e)
    for step in sorted(by_step):
        sends: dict[int, int] = {}
        recvs: dict[int, int] = {}
        links: dict[tuple[int, int], int] = {}
        for e in by_step[step]:
            sends[e.src] = sends.get(e.src, 0) + 1
            recvs[e.dst] = recvs.get(e.dst, 0) + 1
            links[(e.src, e.dst)] = links.get((e.src, e.dst), 0) + 1
        for rank, count in sorted(sends.items()):
            if count > port_limit:
                out.append(
                    Violation(
                        "port-limit",
                        f"rank {rank} sends {count} messages in one step "
                        f"(limit {port_limit})",
                        step=step,
                        rank=rank,
                    )
                )
        for rank, count in sorted(recvs.items()):
            if count > port_limit:
                out.append(
                    Violation(
                        "port-limit",
                        f"rank {rank} receives {count} messages in one "
                        f"step (limit {port_limit})",
                        step=step,
                        rank=rank,
                    )
                )
        for (src, dst), count in sorted(links.items()):
            if count > 1:
                out.append(
                    Violation(
                        "link-congestion",
                        f"directed link {src} -> {dst} carries {count} "
                        f"messages in one step",
                        step=step,
                        rank=src,
                    )
                )
    if max_link_load is not None:
        for (u, v), load in sorted(schedule.link_loads().items()):
            if load > max_link_load:
                out.append(
                    Violation(
                        "link-congestion",
                        f"link {u} <-> {v} carries {load} messages over "
                        f"the run (budget {max_link_load})",
                        rank=u,
                    )
                )
    return out


def check_bounds(
    schedule: CommSchedule,
    *,
    comm_bound: int | None = None,
    comp_bound: int | None = None,
    comm_exact: int | None = None,
    comp_exact: int | None = None,
) -> list[Violation]:
    """Step counts against theorem bounds and exact model predictions.

    ``comm_bound``/``comp_bound`` are "at most" claims (Theorems 1/2);
    ``comm_exact``/``comp_exact`` assert the closed-form cost model hits
    the schedule exactly.  An incomplete schedule fails outright — its
    step count is meaningless.
    """
    out: list[Violation] = []
    if not schedule.completed:
        out.append(
            Violation(
                "comm-bound",
                "schedule never completes; step bounds are vacuous",
            )
        )
        return out
    if comm_bound is not None and schedule.comm_steps > comm_bound:
        out.append(
            Violation(
                "comm-bound",
                f"{schedule.comm_steps} communication steps exceed the "
                f"bound {comm_bound}",
            )
        )
    if comp_bound is not None and schedule.comp_steps > comp_bound:
        out.append(
            Violation(
                "comp-bound",
                f"{schedule.comp_steps} computation steps exceed the "
                f"bound {comp_bound}",
            )
        )
    if comm_exact is not None and schedule.comm_steps != comm_exact:
        out.append(
            Violation(
                "comm-exact",
                f"{schedule.comm_steps} communication steps != model "
                f"prediction {comm_exact}",
            )
        )
    if comp_exact is not None and schedule.comp_steps != comp_exact:
        out.append(
            Violation(
                "comp-exact",
                f"{schedule.comp_steps} computation steps != model "
                f"prediction {comp_exact}",
            )
        )
    return out


def run_schedule_checks(
    schedule: CommSchedule,
    topo: Topology,
    *,
    comm_bound: int | None = None,
    comp_bound: int | None = None,
    comm_exact: int | None = None,
    comp_exact: int | None = None,
    max_link_load: int | None = None,
) -> list[Violation]:
    """All checkers in sequence; empty list means the schedule is clean."""
    out = check_edge_legality(schedule, topo)
    out += check_pairing(schedule)
    out += check_congestion(schedule, max_link_load=max_link_load)
    out += check_bounds(
        schedule,
        comm_bound=comm_bound,
        comp_bound=comp_bound,
        comm_exact=comm_exact,
        comp_exact=comp_exact,
    )
    return out
