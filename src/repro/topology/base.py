"""Topology interfaces.

A :class:`Topology` is a finite undirected graph on nodes ``0..num_nodes-1``.
A :class:`DimensionedTopology` additionally organizes (some of) its edges
into *dimensions*: at dimension ``d`` every node has at most one partner,
and a synchronous algorithm step "exchange along dimension d" is then a
perfect (partial) matching.  The hypercube and both dual-cube presentations
are dimensioned; the comparison topologies (CCC, butterfly, …) are plain.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from collections import deque
from typing import Iterable, Iterator

__all__ = ["Topology", "DimensionedTopology"]


class Topology(ABC):
    """Finite undirected graph with integer nodes ``0..num_nodes-1``."""

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes."""

    @abstractmethod
    def neighbors(self, u: int) -> tuple[int, ...]:
        """All neighbors of node ``u``."""

    @property
    def name(self) -> str:
        """Human-readable name used in tables and traces."""
        return type(self).__name__

    def nodes(self) -> range:
        """Iterate node indices."""
        return range(self.num_nodes)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        self.check_node(u)
        self.check_node(v)
        return v in self.neighbors(u)

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        return len(self.neighbors(u))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each, as ``(min, max)`` pairs."""
        for u in self.nodes():
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def bfs_parents(self, root: int) -> dict[int, int | None]:
        """Breadth-first tree from ``root`` as ``{node: parent}`` in visit
        order (``root`` maps to ``None``); each node's neighbors are tried
        in :meth:`neighbors` order, so the tree is deterministic."""
        self.check_node(root)
        parents: dict[int, int | None] = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if v not in parents:
                    parents[v] = u
                    queue.append(v)
        return parents

    def check_node(self, u: int) -> None:
        """Raise ``TypeError`` if ``u`` is not an integer (NumPy integers
        are) and ``ValueError`` if it is not a valid node index."""
        if not 0 <= operator.index(u) < self.num_nodes:
            raise ValueError(
                f"node {u} out of range for {self.name} with "
                f"{self.num_nodes} nodes"
            )

    def validate(self) -> None:
        """Check structural invariants: symmetry, no self-loops, no repeats.

        Intended for tests and for guarding hand-rolled adjacency code; cost
        is O(V * deg^2), fine for the sizes this library simulates.
        """
        for u in self.nodes():
            nbrs = self.neighbors(u)
            if len(set(nbrs)) != len(nbrs):
                raise AssertionError(f"{self.name}: repeated neighbor at {u}")
            for v in nbrs:
                if v == u:
                    raise AssertionError(f"{self.name}: self-loop at {u}")
                self.check_node(v)
                if u not in self.neighbors(v):
                    raise AssertionError(
                        f"{self.name}: asymmetric edge {u}->{v}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(num_nodes={self.num_nodes})"


class DimensionedTopology(Topology):
    """Topology whose edges are organized into exchange dimensions.

    ``partner(u, d)`` is the unique node ``u`` talks to in a synchronous
    step along dimension ``d``; it equals ``u ^ (1 << d)`` in every cube-like
    network here, but the *edge* ``(u, partner)`` may or may not exist in
    the topology — ``has_dimension_link`` distinguishes a one-hop exchange
    from one that must be routed (the dual-cube 3-hop emulation).
    """

    @property
    @abstractmethod
    def num_dimensions(self) -> int:
        """Number of exchange dimensions (address width)."""

    def dimensions(self) -> range:
        """Iterate dimension indices low-to-high."""
        return range(self.num_dimensions)

    def partner(self, u: int, d: int) -> int:
        """The dimension-``d`` exchange partner of ``u`` (XOR convention)."""
        self.check_node(u)
        self.check_dimension(d)
        return u ^ (1 << d)

    def has_dimension_link(self, u: int, d: int) -> bool:
        """Whether ``u`` has a *direct edge* to its dimension-``d`` partner."""
        return self.has_edge(u, self.partner(u, d))

    def check_dimension(self, d: int) -> None:
        """Raise ``ValueError`` if ``d`` is not a valid dimension."""
        if not 0 <= d < self.num_dimensions:
            raise ValueError(
                f"dimension {d} out of range for {self.name} with "
                f"{self.num_dimensions} dimensions"
            )
