"""The dual-cube D_n, standard presentation (paper Section 2).

D_n is an undirected graph on ``{0,1}^(2n-1)``; nodes ``u`` and ``v`` are
adjacent iff they differ in exactly one bit position ``i`` and:

* ``i = 2n-2`` — the leftmost (*class*) bit: always an edge, the
  **cross-edge**;
* ``0 <= i <= n-2`` — requires ``u[2n-2] = 0`` (class-0 intra-cluster edge);
* ``n-1 <= i <= 2n-3`` — requires ``u[2n-2] = 1`` (class-1 intra-cluster
  edge).

The address splits into three fields: part I is the rightmost ``n-1`` bits,
part II the next ``n-1`` bits, part III the class bit.  For class 0, part I
is the node ID and part II the cluster ID; for class 1 the roles swap.
Each class has ``2^(n-1)`` clusters, each cluster is an (n-1)-cube, every
node has exactly one cross-edge, and there are no edges between clusters of
the same class.  Degree = n, |V| = 2^(2n-1), diameter = 2n (n >= 2).
"""

from __future__ import annotations

import numpy as np

from repro._bits import (
    bit,
    bit_v,
    extract_field,
    flip_bit,
    flip_bit_v,
    hamming,
)
from repro.topology.base import DimensionedTopology

__all__ = ["DualCube"]


class DualCube(DimensionedTopology):
    """The n-connected dual-cube D_n in the standard presentation.

    Parameters
    ----------
    n:
        Connectivity: every node has ``n`` links (``n-1`` inside its
        cluster plus one cross-edge).  The network has ``2**(2n-1)``
        nodes.  ``n = 1`` is the degenerate D_1 = K_2 whose clusters are
        single nodes.

    Notes
    -----
    The paper's evaluation sizes are n = 2 (Fig. 1, 8 nodes) and n = 3
    (Fig. 2-6, 32 nodes); "practical very large machines" correspond to
    n = 8 (32768-node clusters would give 2^15 nodes per cluster — the
    paper's 'tens of thousands of processors with up to eight connections').
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"dual-cube connectivity must be >= 1, got {n}")
        self._n = n
        self._m = n - 1  # cluster (hyper)cube dimension and field width
        self._bits = 2 * n - 1
        self._class_bit = self._bits - 1

    # -- basic shape --------------------------------------------------------

    @property
    def n(self) -> int:
        """Connectivity (links per node)."""
        return self._n

    @property
    def cluster_dim(self) -> int:
        """Dimension of each cluster hypercube: n - 1."""
        return self._m

    @property
    def name(self) -> str:
        return f"D_{self._n}"

    @property
    def num_nodes(self) -> int:
        return 1 << self._bits

    @property
    def num_dimensions(self) -> int:
        return self._bits

    @property
    def class_dimension(self) -> int:
        """The cross-edge dimension: 2n-2 (the leftmost bit)."""
        return self._class_bit

    @property
    def clusters_per_class(self) -> int:
        """2^(n-1) clusters in each class."""
        return 1 << self._m

    @property
    def nodes_per_cluster(self) -> int:
        """2^(n-1) nodes in each cluster."""
        return 1 << self._m

    # -- address fields -----------------------------------------------------

    def class_of(self, u: int) -> int:
        """Class indicator of ``u`` (the leftmost address bit)."""
        self.check_node(u)
        return bit(u, self._class_bit)

    def node_id(self, u: int) -> int:
        """Node ID of ``u`` within its cluster (part I for class 0, part II for class 1)."""
        self.check_node(u)
        if bit(u, self._class_bit) == 0:
            return extract_field(u, 0, self._m)
        return extract_field(u, self._m, self._m)

    def cluster_id(self, u: int) -> int:
        """Cluster ID of ``u`` within its class."""
        self.check_node(u)
        if bit(u, self._class_bit) == 0:
            return extract_field(u, self._m, self._m)
        return extract_field(u, 0, self._m)

    def cluster_key(self, u: int) -> tuple[int, int]:
        """``(class, cluster_id)`` — equal iff two nodes share a cluster (C_u)."""
        return (self.class_of(u), self.cluster_id(u))

    def compose(self, cls: int, cluster: int, node: int) -> int:
        """Build a node address from ``(class, cluster ID, node ID)``."""
        if cls not in (0, 1):
            raise ValueError(f"class must be 0 or 1, got {cls}")
        m = self._m
        if not 0 <= cluster < (1 << m):
            raise ValueError(f"cluster ID {cluster} out of range [0, {1 << m})")
        if not 0 <= node < (1 << m):
            raise ValueError(f"node ID {node} out of range [0, {1 << m})")
        if cls == 0:
            return (cluster << m) | node
        return (1 << self._class_bit) | (node << m) | cluster

    def cluster_members(self, cls: int, cluster: int) -> tuple[int, ...]:
        """All node addresses of cluster ``cluster`` of class ``cls``, by node ID."""
        return tuple(
            self.compose(cls, cluster, j) for j in range(self.nodes_per_cluster)
        )

    def cross_partner(self, u: int) -> int:
        """The unique cross-edge neighbor of ``u`` (class bit flipped)."""
        self.check_node(u)
        return flip_bit(u, self._class_bit)

    def intra_dimensions(self, u: int) -> range:
        """Address-bit dimensions along which ``u`` has intra-cluster edges."""
        self.check_node(u)
        if bit(u, self._class_bit) == 0:
            return range(0, self._m)
        return range(self._m, 2 * self._m)

    def local_to_global_dim(self, u: int, local_dim: int) -> int:
        """Map a cluster-local cube dimension (0..n-2) to the address bit it flips."""
        self.check_node(u)
        if not 0 <= local_dim < self._m:
            raise ValueError(
                f"local dimension {local_dim} out of range [0, {self._m})"
            )
        if bit(u, self._class_bit) == 0:
            return local_dim
        return self._m + local_dim

    # -- adjacency ----------------------------------------------------------

    def neighbors(self, u: int) -> tuple[int, ...]:
        self.check_node(u)
        nbrs = [flip_bit(u, d) for d in self.intra_dimensions(u)]
        nbrs.append(self.cross_partner(u))
        return tuple(nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        if (u | v) >> self._bits:  # a negative or too-large node
            self.check_node(u)
            self.check_node(v)
        diff = u ^ v
        if diff == 0 or diff & (diff - 1):
            return False  # not exactly one differing bit
        if diff >> self._class_bit:
            return True  # the cross-edge
        # An intra-cluster edge flips a bit of u's node-ID field: part I
        # (below bit n-1) in class 0, part II in class 1.
        return (diff >> self._m == 0) == (u >> self._class_bit == 0)

    def has_dimension_link(self, u: int, d: int) -> bool:
        self.check_node(u)
        self.check_dimension(d)
        if d == self._class_bit:
            return True
        if d <= self._m - 1:
            return bit(u, self._class_bit) == 0
        return bit(u, self._class_bit) == 1

    # -- metrics ------------------------------------------------------------

    def distance(self, u: int, v: int) -> int:
        """Closed-form shortest-path distance (paper Section 1).

        Hamming distance when ``u`` and ``v`` are in one cluster or in
        clusters of distinct classes; Hamming distance + 2 when in two
        distinct clusters of the same class (one hop to enter the other
        class and one to leave it).
        """
        if (u | v) >> self._bits:  # a negative or too-large node
            self.check_node(u)
            self.check_node(v)
        diff = u ^ v
        h = hamming(u, v)
        if diff >> self._class_bit:
            return h  # distinct classes
        if u >> self._class_bit:
            cluster_diff = diff & ((1 << self._m) - 1)  # class 1: part I
        else:
            cluster_diff = diff >> self._m  # class 0: part II
        return h + 2 if cluster_diff else h

    def diameter(self) -> int:
        """Closed-form diameter: 2n for n >= 2, 1 for the degenerate D_1."""
        if self._n == 1:
            return 1
        return 2 * self._n

    def edge_count(self) -> int:
        """Closed-form |E| = n * 2^(2n-2) (degree n, 2^(2n-1) nodes)."""
        return self._n << (2 * self._n - 2)

    # -- vectorized field views (array backend) -----------------------------

    def all_nodes_array(self) -> np.ndarray:
        """All node indices as an int64 array."""
        return np.arange(self.num_nodes, dtype=np.int64)

    def class_of_v(self, u) -> np.ndarray:
        """Vectorized :meth:`class_of`."""
        return bit_v(u, self._class_bit)

    # -- arithmetic neighbor queries (array backend) -------------------------
    #
    # The array backend never materializes edge lists; these helpers
    # answer every neighbor/cross-edge question it has with pure address
    # arithmetic on whole index arrays (or, cheaper still, with slices).

    def cross_partner_v(self, u=None) -> np.ndarray:
        """Vectorized :meth:`cross_partner` (defaults to all nodes)."""
        if u is None:
            u = self.all_nodes_array()
        return flip_bit_v(u, self._class_bit)

    def intra_partner_v(self, u, local_dim: int) -> np.ndarray:
        """Partner of each node along cluster-local cube dimension ``local_dim``.

        Vectorized :meth:`local_to_global_dim` + flip: class-0 nodes flip
        address bit ``local_dim``, class-1 nodes bit ``n-1+local_dim``.
        """
        if not 0 <= local_dim < self._m:
            raise ValueError(
                f"local dimension {local_dim} out of range [0, {self._m})"
            )
        u = np.asarray(u, dtype=np.int64)
        step = np.where(
            bit_v(u, self._class_bit) == 1, 1 << self._m, 1
        ).astype(np.int64)
        return u ^ (step << local_dim)
