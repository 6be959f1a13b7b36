"""The binary hypercube Q_q.

Q_q has 2^q nodes; nodes are adjacent iff their addresses differ in exactly
one bit.  The hypercube plays two roles in this reproduction: it is the
baseline network the paper compares against (same node count, 2n-1 links
per node vs the dual-cube's n), and each dual-cube *cluster* is a
(n-1)-dimensional hypercube, so the cluster-technique algorithms run
`Cube_prefix` on instances of this class.
"""

from __future__ import annotations

import numpy as np

from repro._bits import flip_bit, hamming
from repro.topology.base import DimensionedTopology

__all__ = ["Hypercube"]


class Hypercube(DimensionedTopology):
    """The q-dimensional binary hypercube.

    Parameters
    ----------
    q:
        Number of dimensions; the network has ``2**q`` nodes, each of
        degree ``q``.  ``q = 0`` is the single-node cube (useful as the
        cluster of the degenerate dual-cube D_1).
    """

    def __init__(self, q: int):
        if q < 0:
            raise ValueError(f"hypercube dimension must be >= 0, got {q}")
        self._q = q

    @property
    def q(self) -> int:
        """Cube dimension."""
        return self._q

    @property
    def name(self) -> str:
        return f"Q_{self._q}"

    @property
    def num_nodes(self) -> int:
        return 1 << self._q

    @property
    def num_dimensions(self) -> int:
        return self._q

    def neighbors(self, u: int) -> tuple[int, ...]:
        self.check_node(u)
        return tuple(flip_bit(u, d) for d in range(self._q))

    def has_edge(self, u: int, v: int) -> bool:
        self.check_node(u)
        self.check_node(v)
        return hamming(u, v) == 1

    def has_dimension_link(self, u: int, d: int) -> bool:
        # Every dimension is a direct link in the hypercube.
        self.check_node(u)
        self.check_dimension(d)
        return True

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance = Hamming distance."""
        self.check_node(u)
        self.check_node(v)
        return hamming(u, v)

    def diameter(self) -> int:
        """Closed-form diameter: q."""
        return self._q

    # -- arithmetic neighbor queries (array backend) -------------------------

    def all_nodes_array(self) -> np.ndarray:
        """All node indices as an int64 array."""
        return np.arange(self.num_nodes, dtype=np.int64)
