"""Exact structural metrics for topologies (experiment E2).

The paper's comparative claims — dual-cube degree is about half the
same-size hypercube's, diameter is hypercube + 1, "tens of thousands of
processors with up to eight connections" — are regenerated here as exact
measurements: degree statistics, |E|, BFS diameter, average distance, and
the classical (degree x diameter) cost metric.

Distances come from a level-synchronous NumPy BFS over a ``(V, max
degree)`` neighbor table: each level advances the frontiers of a whole
chunk of sources at once, and chunking keeps memory at
O(chunk * V * degree).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.topology.base import Topology

__all__ = [
    "TopologyMetrics",
    "bfs_distances",
    "diameter",
    "average_distance",
    "degree_stats",
    "edge_count",
    "cost_metric",
    "measure",
]


def _neighbor_table(topo: Topology) -> np.ndarray:
    """``(V, max degree)`` neighbor indices; a short row is padded with
    its own node, which a BFS step never newly reaches."""
    rows = [tuple(topo.neighbors(u)) for u in topo.nodes()]
    width = max(map(len, rows), default=0)
    return np.array([r + (u,) * (width - len(r)) for u, r in enumerate(rows)],
                    dtype=np.intp)


def _levels(table: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Distances from each source as a float ``(V, len(sources))`` array,
    ``inf`` where unreachable; one BFS level per step for all sources."""
    dist = np.full((len(table), len(sources)), np.inf)
    frontier = np.zeros(dist.shape, dtype=bool)
    frontier[sources, np.arange(len(sources))] = True
    reached = frontier.copy()
    level = 0
    while frontier.any():
        dist[frontier] = level
        level += 1
        frontier = frontier[table].any(axis=1) & ~reached
        reached |= frontier
    return dist


def bfs_distances(topo: Topology, sources) -> np.ndarray:
    """Unweighted shortest-path distances from ``sources`` to every node.

    Returns a float array of shape ``(len(sources), num_nodes)`` with
    ``inf`` for unreachable nodes.  A non-integer source raises
    ``TypeError`` and an out-of-range one ``ValueError``.
    """
    src = [operator.index(s) for s in np.atleast_1d(sources)]
    for s in src:
        topo.check_node(s)
    return _levels(_neighbor_table(topo), np.asarray(src, dtype=np.intp)).T


def _sweep(topo: Topology, chunk: int = 512) -> tuple[int, float]:
    """All-pairs BFS sweep returning (diameter, average distance).

    Average distance is over ordered pairs of *distinct* nodes.  Raises if
    the graph is disconnected.

    A single-node topology has no distinct pairs: its diameter is 0 and
    the average distance is 0.0 by convention (the ``n * (n - 1)``
    denominator would otherwise divide by zero).
    """
    n = topo.num_nodes
    if n <= 1:
        return 0, 0.0
    table = _neighbor_table(topo)
    ecc_max = 0
    total = 0.0
    for lo in range(0, n, chunk):
        dist = _levels(table, np.arange(lo, min(lo + chunk, n)))
        if np.isinf(dist).any():
            raise ValueError(f"{topo.name} is disconnected")
        ecc_max = max(ecc_max, int(dist.max()))
        total += float(dist.sum())
    return ecc_max, total / (n * (n - 1))


def diameter(topo: Topology) -> int:
    """Exact BFS diameter."""
    return _sweep(topo)[0]


def average_distance(topo: Topology) -> float:
    """Exact mean shortest-path distance over distinct ordered pairs."""
    return _sweep(topo)[1]


def degree_stats(topo: Topology) -> tuple[int, int, float]:
    """``(min degree, max degree, mean degree)``."""
    degs = [topo.degree(u) for u in topo.nodes()]
    return (min(degs), max(degs), sum(degs) / len(degs))


def edge_count(topo: Topology) -> int:
    """Number of undirected edges."""
    return sum(topo.degree(u) for u in topo.nodes()) // 2


def cost_metric(max_degree: int, diam: int) -> int:
    """The classical degree x diameter network cost figure."""
    return max_degree * diam


@dataclass(frozen=True)
class TopologyMetrics:
    """One measured row of the E2 comparison table."""

    name: str
    num_nodes: int
    num_edges: int
    min_degree: int
    max_degree: int
    mean_degree: float
    diameter: int
    average_distance: float

    @property
    def cost(self) -> int:
        """degree x diameter."""
        return cost_metric(self.max_degree, self.diameter)

    def row(self) -> tuple:
        """Tuple in table-column order."""
        return (
            self.name,
            self.num_nodes,
            self.num_edges,
            self.max_degree,
            self.diameter,
            round(self.average_distance, 3),
            self.cost,
        )


def measure(topo: Topology) -> TopologyMetrics:
    """Measure every metric of ``topo`` exactly (BFS over all sources)."""
    diam, avg = _sweep(topo)
    dmin, dmax, dmean = degree_stats(topo)
    return TopologyMetrics(
        name=topo.name,
        num_nodes=topo.num_nodes,
        num_edges=edge_count(topo),
        min_degree=dmin,
        max_degree=dmax,
        mean_degree=dmean,
        diameter=diam,
        average_distance=avg,
    )
