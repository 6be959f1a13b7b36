"""Drive the paper's algorithms on a network with faults.

The dual-cube algorithms (Algorithms 2 and 3) are lockstep-symmetric:
every rank must participate in every exchange, so a crashed node or a cut
link stops them cold.  :func:`run_faulty` provides the recovery story the
fault-tolerance experiments need, in three modes (see ``docs/model.md``,
"Fault model and recovery semantics"):

* ``mode="degraded"`` — graceful degradation under *permanent* faults (a
  :class:`~repro.topology.faults.FaultSet`): the surviving ranks complete
  the scan/sort over the healthy subgraph via a BFS-spanning-tree
  gather/compute/scatter collective, and the result reports exactly which
  ranks were excluded (faulty, or healthy but unreachable from the root).
  D_n is n-connected, so with f <= n-1 node faults nothing healthy is
  ever excluded.
* ``mode="reroute"`` — same degraded semantics, but every value travels
  by store-and-forward along the walk
  :func:`~repro.routing.fault_tolerant.adaptive_route` finds (falling
  back to :func:`~repro.routing.fault_tolerant.ft_route` on topologies
  without the dual-cube distance metric).  Hops execute in one global
  deterministic order, which makes the schedule trivially deadlock-free:
  the earliest unfinished hop always has both endpoints ready.
* ``mode="retry"`` — the *real* lockstep algorithms run under a
  transient-fault :class:`~repro.simulator.faults.FaultPlan` (message
  drops, delays, and *downtime* intervals — nodes offline for a bounded
  window, as in churn or a rolling restart); the engine's blocking-drop
  and hold-while-offline semantics make the lockstep pair retry/stall
  until delivery, so the output equals the fault-free output while the
  cost ledger records every drop and retry.  (Pairing a downtime with
  ``on_timeout="cancel"`` lets partners give up instead, which *can*
  corrupt results — exactly the correctness violations the campaign
  driver in :mod:`repro.simulator.campaign` hunts for.)  Permanent
  faults (crashes, link cuts) are rejected here — lockstep programs
  cannot complete without every rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.arrangement import arranged_index_v
from repro.core.dual_prefix import dual_prefix
from repro.core.dual_sort import dual_sort
from repro.core.ops import ADD, AssocOp
from repro.routing.fault_tolerant import adaptive_route, ft_route
from repro.simulator.counters import Packed
from repro.simulator.engine import EngineResult, run_spmd, use_fault_plan
from repro.simulator.faults import FaultPlan
from repro.simulator.requests import Recv, Send
from repro.topology.dualcube import DualCube
from repro.topology.faults import FaultSet, FaultyTopology

__all__ = ["FaultyRunResult", "build_faulty_program", "run_faulty"]

_KINDS = ("prefix", "sort")
_MODES = ("degraded", "reroute", "retry")


@dataclass
class FaultyRunResult:
    """Outcome of one fault-tolerant run.

    ``values`` has one slot per node — input-index order for ``prefix``
    (``values[k]`` is the scan over the *surviving* inputs through input
    ``k``), node-address order for ``sort`` (surviving keys sorted onto
    healthy addresses ascending) — with ``None`` at every excluded slot.
    """

    values: list
    excluded: tuple[int, ...]
    healthy: tuple[int, ...]
    result: EngineResult
    mode: str
    kind: str = field(default="")

    @property
    def comm_steps(self) -> int:
        return self.result.comm_steps


def _pack(d: dict) -> Packed:
    """Dict payload as a Packed so the ledger counts its true item load."""
    return Packed(tuple(sorted(d.items())))


def _unpack(p: Packed) -> dict:
    return dict(p.items)


def _bfs_tree(ftopo: FaultyTopology, root: int):
    """Parent/children maps and subtree node-sets of the healthy BFS tree."""
    parent = ftopo.bfs_parents(root)
    children: dict[int, list[int]] = {u: [] for u in parent}
    subtree: dict[int, set[int]] = {u: {u} for u in parent}
    for u, p in reversed(parent.items()):
        if p is not None:
            children[p].append(u)
            subtree[p] |= subtree[u]
    return parent, children, subtree


def _tree_collective(ftopo, parent, children, subtree, contrib, finish):
    """SPMD program: gather ``contrib`` up the tree, ``finish`` at the
    root, scatter each rank's output back down.  Ranks outside the tree
    return ``None`` without communicating."""

    def program(ctx):
        rank = ctx.rank
        if rank not in parent:
            return None
        acc = {rank: contrib[rank]}
        for child in sorted(children[rank]):
            got = yield Recv(child)
            acc.update(_unpack(got))
        up = parent[rank]
        if up is None:
            ctx.compute(max(1, len(acc)))
            out = finish(acc)
        else:
            yield Send(up, _pack(acc))
            got = yield Recv(up)
            out = _unpack(got)
        for child in sorted(children[rank]):
            sub = {w: out[w] for w in subtree[child]}
            yield Send(child, _pack(sub))
        return out[rank]

    return program


def _route_collective(ftopo, root, routes, contrib, finish):
    """SPMD program: store-and-forward every contribution to the root
    along its route, ``finish`` there, forward the outputs back out.

    ``routes[w]`` is the walk ``root -> w``; hops run in one global
    deterministic order (ascending rank, then hop position), so the
    earliest unfinished hop always has both endpoints at it — no
    deadlock, no idle padding needed.
    """
    members = sorted(routes)
    up_hops: list[tuple[int, int, int]] = []  # (src, dst, owner w)
    down_hops: list[tuple[int, int, int]] = []
    for w in members:
        if w == root:
            continue
        walk = routes[w]
        for a, b in zip(walk, walk[1:]):
            down_hops.append((a, b, w))
        rev = walk[::-1]
        for a, b in zip(rev, rev[1:]):
            up_hops.append((a, b, w))

    def program(ctx):
        rank = ctx.rank
        if rank not in routes:
            return None
        store: dict[tuple[str, int], object] = {}
        if rank in contrib:
            store[("val", rank)] = contrib[rank]
        for src, dst, w in up_hops:
            if rank == src:
                yield Send(dst, store.pop(("val", w)))
            elif rank == dst:
                store[("val", w)] = yield Recv(src)
        out = None
        if rank == root:
            gathered = {w: store[("val", w)] for w in members}
            ctx.compute(max(1, len(gathered)))
            outmap = finish(gathered)
            for w in members:
                store[("out", w)] = outmap[w]
            out = outmap[root]
        for src, dst, w in down_hops:
            if rank == src:
                yield Send(dst, store.pop(("out", w)))
            elif rank == dst:
                store[("out", w)] = yield Recv(src)
                if w == rank:
                    out = store[("out", w)]
        return out

    return program


def _prefix_finish(dc: DualCube, data, op: AssocOp):
    """Root-side reduction: inclusive scan over surviving inputs in input
    order, delivered back keyed by rank."""
    arr = arranged_index_v(dc)

    def finish(gathered: dict) -> dict:
        pairs = sorted((int(arr[r]), r) for r in gathered)
        out = {}
        acc = op.identity
        for _, r in pairs:
            acc = op.fn(acc, gathered[r])
            out[r] = acc
        return out

    return finish


def _sort_finish(descending: bool):
    """Root-side reduction: surviving keys sorted onto the surviving
    addresses in ascending address order."""

    def finish(gathered: dict) -> dict:
        keys = sorted(gathered.values(), reverse=descending)
        return dict(zip(sorted(gathered), keys))

    return finish


def build_faulty_program(
    kind: str,
    topo,
    data,
    *,
    op: AssocOp = ADD,
    faults: FaultSet | None = None,
    mode: str = "degraded",
    descending: bool = False,
):
    """Construct the recovery collective :func:`run_faulty` would execute.

    Returns ``(program, ftopo, members)``: the SPMD program, the
    :class:`FaultyTopology` it must run on, and the sorted participating
    ranks.  Only the ``degraded`` and ``reroute`` modes build a dedicated
    program (``retry`` runs the unmodified lockstep algorithms, whose
    programs come from :func:`~repro.core.dual_prefix.dual_prefix_program`
    and :func:`~repro.core.dual_sort.schedule_program`).  Exposed so the
    static schedule analyzer (:mod:`repro.analysis.static`) can verify
    reroute/degraded schedules — edge legality over the healthy subgraph,
    deadlock freedom — without running them.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if mode not in ("degraded", "reroute"):
        raise ValueError(
            f"mode must be 'degraded' or 'reroute', got {mode!r}"
        )
    n = topo.num_nodes
    data = list(data)
    if len(data) != n:
        raise ValueError(f"expected {n} data items for {topo.name}, got {len(data)}")
    faults = faults if faults is not None else FaultSet()
    ftopo = FaultyTopology(topo, faults)
    healthy = ftopo.healthy_nodes()
    root = min(healthy)

    if mode == "degraded":
        parent, children, subtree = _bfs_tree(ftopo, root)
        members = sorted(parent)
    else:  # reroute
        is_dc = isinstance(topo, DualCube)
        routes: dict[int, list[int]] = {root: [root]}
        for w in healthy:
            if w == root:
                continue
            walk = (
                adaptive_route(ftopo, topo, root, w)
                if is_dc
                else ft_route(ftopo, root, w)
            )
            if walk is not None:
                routes[w] = walk
        members = sorted(routes)

    contrib = {}
    if kind == "prefix":
        arr = arranged_index_v(topo)
        for r in members:
            contrib[r] = data[int(arr[r])]
        finish = _prefix_finish(topo, data, op)
    else:
        for r in members:
            contrib[r] = data[r]
        finish = _sort_finish(descending)

    if mode == "degraded":
        program = _tree_collective(
            ftopo, parent, children, subtree, contrib, finish
        )
    else:
        program = _route_collective(ftopo, root, routes, contrib, finish)
    return program, ftopo, members


def run_faulty(
    kind: str,
    topo,
    data,
    *,
    op: AssocOp = ADD,
    faults: FaultSet | None = None,
    plan: FaultPlan | None = None,
    mode: str = "degraded",
    descending: bool = False,
) -> FaultyRunResult:
    """Run ``dual_prefix``/``dual_sort`` semantics on a faulty network.

    Parameters
    ----------
    kind:
        ``"prefix"`` (``topo`` a :class:`DualCube`, ``data`` the input
        sequence in input-index order) or ``"sort"`` (``topo`` a
        recursive-presentation dual-cube, ``data`` keys in node-address
        order).
    faults:
        Permanent faults for ``degraded``/``reroute`` modes.
    plan:
        Transient-fault schedule for ``retry`` mode (drops, delays and
        bounded downtime intervals; crashes/cuts are rejected).
    mode:
        ``"degraded"`` | ``"reroute"`` | ``"retry"`` — see module docs.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n = topo.num_nodes
    data = list(data)
    if len(data) != n:
        raise ValueError(f"expected {n} data items for {topo.name}, got {len(data)}")

    if mode == "retry":
        if plan is None:
            raise ValueError("mode='retry' needs a FaultPlan (transient faults)")
        if plan.node_crashes or plan.link_cuts:
            raise ValueError(
                "mode='retry' runs the lockstep algorithms, which cannot "
                "complete under permanent faults; use mode='degraded' or "
                "'reroute' for node crashes and link cuts"
            )
        if faults is not None and (faults.nodes or faults.links):
            raise ValueError("mode='retry' takes transient faults via plan=")
        with use_fault_plan(plan):
            if kind == "prefix":
                out, result = dual_prefix(topo, data, op, backend="engine")
            else:
                out, result = dual_sort(
                    topo, data, descending=descending, backend="engine"
                )
        return FaultyRunResult(
            values=list(out),
            excluded=(),
            healthy=tuple(range(n)),
            result=result,
            mode=mode,
            kind=kind,
        )

    if plan is not None and not plan.is_empty:
        raise ValueError(
            f"mode={mode!r} models permanent faults via faults=; transient "
            f"plans belong to mode='retry'"
        )
    program, ftopo, members = build_faulty_program(
        kind, topo, data, op=op, faults=faults, mode=mode,
        descending=descending,
    )

    result = run_spmd(ftopo, program)

    values: list = [None] * n
    if kind == "prefix":
        arr = arranged_index_v(topo)
        for r in members:
            values[int(arr[r])] = result.returns[r]
    else:
        for r in members:
            values[r] = result.returns[r]
    excluded = tuple(sorted(set(range(n)) - set(members)))
    return FaultyRunResult(
        values=values,
        excluded=excluded,
        healthy=tuple(members),
        result=result,
        mode=mode,
        kind=kind,
    )
