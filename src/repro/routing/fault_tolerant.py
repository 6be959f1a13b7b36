"""Fault-tolerant routing in the dual-cube.

Two routers over a :class:`~repro.topology.faults.FaultyTopology`:

* :func:`ft_route` — global-information shortest path (BFS on the healthy
  subgraph); the ground truth other strategies are scored against.
* :func:`adaptive_route` — local-information greedy routing in the spirit
  of the limited-global-information dual-cube literature: at each hop the
  message moves to the healthy neighbor closest to the target (by the
  fault-free closed-form distance), with backtracking when boxed in.

Plus :func:`node_connectivity` and :func:`node_disjoint_paths` (experiment
F1): D_n is n-connected, so Menger gives n internally node-disjoint paths
between any two nodes, found by the module's own unit-capacity max-flow.
"""

from __future__ import annotations

from collections import deque

from repro.topology.dualcube import DualCube
from repro.topology.faults import FaultyTopology
from repro.topology.base import Topology

__all__ = [
    "ft_route",
    "adaptive_route",
    "node_disjoint_paths",
    "node_connectivity",
    "broadcast_depth",
]


def ft_route(ftopo: FaultyTopology, u: int, v: int) -> list[int] | None:
    """Shortest healthy path ``u -> v`` by BFS, or ``None`` if disconnected.

    Requires both endpoints healthy.
    """
    ftopo.check_node(u)
    ftopo.check_node(v)
    if not (ftopo.faults.node_ok(u) and ftopo.faults.node_ok(v)):
        raise ValueError("both endpoints must be healthy")
    prev = ftopo.bfs_parents(u)
    if v not in prev:
        return None
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path[::-1]


def adaptive_route(
    ftopo: FaultyTopology,
    dc: DualCube,
    u: int,
    v: int,
    *,
    max_hops: int | None = None,
) -> list[int] | None:
    """Greedy local-information routing with backtracking.

    At each hop the current node only knows its own healthy links and the
    fault-free distance metric; it forwards to the unvisited healthy
    neighbor minimizing ``dc.distance(., v)`` and backtracks when stuck.
    Guaranteed to terminate; returns the walk (which may backtrack, so it
    can be longer than the BFS path) or ``None`` on failure.
    """
    ftopo.check_node(u)
    ftopo.check_node(v)
    if not (ftopo.faults.node_ok(u) and ftopo.faults.node_ok(v)):
        raise ValueError("both endpoints must be healthy")
    if max_hops is None:
        max_hops = 4 * dc.diameter() + 4 * ftopo.faults.num_faults + 8
    walk = [u]
    visited = {u}
    stack = [u]
    hops = 0
    while stack and hops < max_hops:
        cur = stack[-1]
        if cur == v:
            return walk
        candidates = [
            w for w in ftopo.neighbors(cur) if w not in visited
        ]
        if candidates:
            nxt = min(candidates, key=lambda w: (dc.distance(w, v), w))
            visited.add(nxt)
            stack.append(nxt)
            walk.append(nxt)
        else:
            stack.pop()
            if stack:
                walk.append(stack[-1])
        hops += 1
    if stack and stack[-1] == v:
        return walk
    return None


def _residual(num_nodes: int, arcs: dict[tuple[int, int], int]) -> tuple:
    """The residual graph a max-flow over ``arcs`` starts from:
    out-lists in arc order and the capacities, with a zero-capacity
    reverse arc wherever ``arcs`` has none.  A sweep builds it once and
    gives each flow a copy of the capacities."""
    caps = dict(arcs)
    out: list[list[int]] = [[] for _ in range(num_nodes)]
    for (u, v) in arcs:
        out[u].append(v)
        if (v, u) not in caps:
            caps[(v, u)] = 0
            out[v].append(u)
    return out, caps


def _unit_max_flow(out: list[list[int]], caps: dict[tuple[int, int], int],
                   source: int, sink: int, limit: int) -> tuple[int, set]:
    """Edmonds-Karp on unit-ish capacities; stops early at ``limit``.

    Augments the residual capacities ``caps`` in place (see
    :func:`_residual`) and returns ``(flow, reachable)``: ``reachable`` is
    the residual source side (empty when the early-stop triggered — the
    caller only needs the cut when the flow is a new minimum, i.e. below
    ``limit``).
    """
    flow = 0
    while flow < limit:
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in out[u]:
                if v not in parent and caps[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow, set(parent)
        v = sink
        while v != source:
            u = parent[v]
            caps[(u, v)] -= 1
            caps[(v, u)] += 1
            v = u
        flow += 1
    return flow, set()


def _split_graph(topo: Topology) -> tuple:
    """The node-split residual graph for vertex connectivity: ``v_in=2v``,
    ``v_out=2v+1``, every internal arc of capacity 1 and every edge arc
    uncuttable (``n * n``).  A flow from ``s`` to ``t`` first raises the
    internal arcs of both terminals to ``n * n``."""
    n = topo.num_nodes
    arcs: dict[tuple[int, int], int] = {}
    for v in range(n):
        arcs[(2 * v, 2 * v + 1)] = 1
    for u, v in topo.edges():
        arcs[(2 * u + 1, 2 * v)] = n * n
        arcs[(2 * v + 1, 2 * u)] = n * n
    return _residual(2 * n, arcs)


def _min_node_separator(topo: Topology) -> tuple[tuple[int, ...], int]:
    """A minimum vertex separator (``N(0)`` when none is smaller) and the
    number of max-flows run to find it.

    By Menger, sweeping max-flow over sources ``{0} + N(0)`` and all
    non-adjacent sinks witnesses every minimum separator (a separator
    avoiding 0 is seen from source 0; one containing 0 leaves a neighbor
    of 0 on each side), so the separator's size is kappa(G).  The split
    graph is built once per sweep; each flow runs on a copy of its
    capacities with the two terminal arcs raised.
    """
    n = topo.num_nodes
    best = len(topo.neighbors(0))
    witness: tuple[int, ...] = tuple(sorted(topo.neighbors(0)))
    flows = 0
    seen_pairs: set[tuple[int, int]] = set()
    out, base = _split_graph(topo)
    for source in (0, *topo.neighbors(0)):
        banned = {source, *topo.neighbors(source)}
        for sink in range(n):
            if sink in banned:
                continue
            pair = (min(source, sink), max(source, sink))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            caps = base.copy()
            caps[(2 * source, 2 * source + 1)] = n * n
            caps[(2 * sink, 2 * sink + 1)] = n * n
            flow, reach = _unit_max_flow(
                out, caps, 2 * source, 2 * sink + 1, best
            )
            flows += 1
            if flow < best:
                best = flow
                witness = tuple(
                    v for v in range(n)
                    if 2 * v in reach and 2 * v + 1 not in reach
                )
    return witness, flows


def node_connectivity(topo: Topology) -> int:
    """Exact node connectivity of the topology (Menger max-flow sweep)."""
    return len(_min_node_separator(topo)[0])


def node_disjoint_paths(topo: Topology, u: int, v: int) -> list[list[int]]:
    """A maximum set of internally node-disjoint ``u -> v`` paths (max-flow).

    An edge ``u-v`` counts as one path, as in networkx.
    """
    topo.check_node(u)
    topo.check_node(v)
    if u == v:
        raise ValueError("endpoints must differ")
    out, arcs = _split_graph(topo)
    arcs[(2 * u, 2 * u + 1)] = arcs[(2 * v, 2 * v + 1)] = topo.num_nodes ** 2
    if (2 * u + 1, 2 * v) in arcs:
        arcs[(2 * u + 1, 2 * v)] = 1
    residual = dict(arcs)
    _unit_max_flow(out, residual, 2 * u, 2 * v + 1, topo.degree(u))
    # Every interior node carries at most one unit, so each flow-carrying
    # arc out of u starts a path that the unique next arc extends to v.
    used = [a for a, cap in arcs.items() if a[0] % 2 and residual[a] < cap]
    nxt = dict(used)
    paths = []
    for w_in in [b for a, b in used if a == 2 * u + 1]:
        path = [u]
        while w_in != 2 * v:
            path.append(w_in // 2)
            w_in = nxt[w_in + 1]
        paths.append(path + [v])
    return paths


def broadcast_depth(ftopo: FaultyTopology, source: int) -> int | None:
    """Rounds an optimal broadcast needs from ``source`` on the healthy graph.

    Lower-bounded by the source's eccentricity in the surviving subgraph
    (returned here); ``None`` when some healthy node is unreachable.
    Quantifies latency degradation under faults (experiment F3) — on the
    intact D_n this equals at most the diameter 2n.
    """
    ftopo.check_node(source)
    if not ftopo.faults.node_ok(source):
        raise ValueError("source must be healthy")
    parents = ftopo.bfs_parents(source)
    if len(parents) != len(ftopo.healthy_nodes()):
        return None
    depth: dict[int, int] = {}
    for w, p in parents.items():
        depth[w] = 0 if p is None else depth[p] + 1
    return max(depth.values())
