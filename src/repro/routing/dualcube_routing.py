"""Shortest-path routing in the dual-cube (paper Sections 1-2).

The constructive counterpart of :meth:`DualCube.distance`: dimension-order
routing that corrects the node-ID field inside the source cluster, crosses
the class boundary, corrects the other field, and (when source and target
share a class but not a cluster) crosses back.  The produced walk always
realizes the closed-form distance, which the tests verify against BFS.
"""

from __future__ import annotations

from repro.topology.dualcube import DualCube

__all__ = ["dimension_order_route", "route", "route_length"]


def dimension_order_route(dc: DualCube, u: int, v: int) -> list[int]:
    """A shortest path from ``u`` to ``v`` as the full node sequence.

    Strategy (each leg is dimension-order within a cluster, flipping the
    differing bits of one width-(n-1) field low to high):

    * same cluster — fix the node-ID field;
    * different classes — fix ``u``'s node-ID field to match the bits it
      shares with ``v`` across the cross-edge, cross, then fix the rest;
    * same class, different clusters — fix the node-ID field to ``v``'s
      *cluster*-determining bits, cross, fix the other field (now the
      node-ID field of the other class), cross back.
    """
    if (u | v) >> dc.num_dimensions:  # a negative or too-large node
        dc.check_node(u)
        dc.check_node(v)
    m = dc.cluster_dim
    cross = 1 << dc.class_dimension
    own = ((1 << m) - 1) << (m if u & cross else 0)  # u's node-ID field
    diff = u ^ v
    path = [u]
    cur = u
    todo = diff & own
    while todo:
        low = todo & -todo
        cur ^= low
        path.append(cur)
        todo ^= low
    if not diff & ~own:
        return path  # same cluster: node IDs differed only
    cur ^= cross
    path.append(cur)
    todo = diff & ~own & ~cross  # the other field, now cur's node-ID field
    while todo:
        low = todo & -todo
        cur ^= low
        path.append(cur)
        todo ^= low
    if not diff & cross:
        path.append(cur ^ cross)  # same class: cross back
    return path


def route(dc: DualCube, u: int, v: int) -> list[int]:
    """Shortest path from ``u`` to ``v``; checks every hop and the length."""
    path = dimension_order_route(dc, u, v)
    has_edge = dc.has_edge
    for a, b in zip(path, path[1:]):
        if not has_edge(a, b):
            raise AssertionError(
                f"routing bug: {a} -> {b} is not an edge of {dc.name}"
            )
    if len(path) - 1 != dc.distance(u, v):
        raise AssertionError(
            f"routing bug: path length {len(path) - 1} != "
            f"distance {dc.distance(u, v)} for ({u}, {v})"
        )
    return path


def route_length(dc: DualCube, u: int, v: int) -> int:
    """Length of the route (equals :meth:`DualCube.distance`)."""
    return len(dimension_order_route(dc, u, v)) - 1
