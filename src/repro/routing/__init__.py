"""Point-to-point routing and collective communication in the dual-cube.

The paper leans on two facts about D_n proved in its Section 1-2: the
closed-form distance (Hamming, +2 when both endpoints share a class but
not a cluster) and the simple dimension-order routing through at most two
cross-edges.  This package implements that routing constructively, plus
the collectives (broadcast, reduce, allreduce) built with the same
cluster-then-cross technique as `D_prefix` — each finishing in 2n
communication steps, the diameter.
"""

from repro.routing.dualcube_routing import route, route_length, dimension_order_route
from repro.routing.broadcast import broadcast_engine, broadcast_steps
from repro.routing.collectives import allreduce, reduce_engine
from repro.routing.advanced_collectives import (
    scatter_engine,
    gather_engine,
    allgather_engine,
    collective_steps,
)
from repro.routing.ring_allreduce import ring_allreduce_engine, ring_allreduce_steps
from repro.routing.fault_tolerant import (
    ft_route,
    adaptive_route,
    node_disjoint_paths,
    node_connectivity,
    broadcast_depth,
)

__all__ = [
    "route",
    "route_length",
    "dimension_order_route",
    "broadcast_engine",
    "broadcast_steps",
    "allreduce",
    "reduce_engine",
    "scatter_engine",
    "gather_engine",
    "allgather_engine",
    "collective_steps",
    "ring_allreduce_engine",
    "ring_allreduce_steps",
    "ft_route",
    "adaptive_route",
    "node_disjoint_paths",
    "node_connectivity",
    "broadcast_depth",
]
