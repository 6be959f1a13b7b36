"""Random-traffic experiments (the paper's future-work "simulations").

Routes batches of random source/destination pairs through a topology
using a pluggable path router and measures what architects care about:
average hop count, per-link load distribution, and the maximum link
congestion — normalized comparisons between D_n and the same-size
hypercube quantify the price of halving the links (experiment E11).
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.simulator.errors import RetryLimitError
from repro.simulator.faults import FaultPlan
from repro.topology.base import Topology

__all__ = ["TrafficStats", "random_pairs", "run_traffic", "hypercube_dimension_order_path"]

Router = Callable[[int, int], Sequence[int]]


@dataclass(frozen=True)
class TrafficStats:
    """Aggregate results of one traffic batch.

    Two hop totals are reported because they answer different questions:

    * ``path_hops`` — *logical* hops: the summed router path lengths,
      independent of any fault plan.  Path-quality metrics
      (:attr:`avg_hops`) derive from this.
    * ``total_hops`` — *physical* link crossings, including every
      retransmitted attempt (``total_hops = path_hops +
      retransmissions``).  Link-load metrics (:attr:`load_imbalance`,
      ``max_link_load``, ``mean_link_load``) derive from this, since a
      failed attempt still occupies the link.

    Without a fault plan the two coincide.
    """

    topology: str
    num_pairs: int
    total_hops: int
    max_link_load: int
    mean_link_load: float
    loaded_links: int
    num_links: int
    retransmissions: int = 0
    path_hops: int = -1  # -1 sentinel: default to total_hops (fault-free)

    def __post_init__(self):
        if self.path_hops < 0:
            object.__setattr__(self, "path_hops", self.total_hops)

    @property
    def avg_hops(self) -> float:
        """Mean *logical* path length over the batch.

        Uses ``path_hops``, not ``total_hops``: retransmissions re-cross a
        link but never lengthen the route, so a lossy run must report the
        same average path length as the fault-free run over the same pairs.
        """
        return self.path_hops / self.num_pairs if self.num_pairs else 0.0

    @property
    def load_imbalance(self) -> float:
        """Max link load over the mean across *all* links (1.0 = perfectly flat).

        Note the denominator differs from ``mean_link_load``, which averages
        over *loaded* links only; this property normalizes over every link
        in the topology so an idle link drags the mean down.  Both sides of
        the ratio count physical crossings (retransmissions included).
        """
        overall_mean = self.total_hops / self.num_links if self.num_links else 0.0
        return self.max_link_load / overall_mean if overall_mean else 0.0

    def row(self) -> tuple:
        """Tuple for table rendering.

        Includes ``retransmissions`` and ``path_hops`` (appended, so
        positional consumers of the original seven columns keep working):
        without them a fault run's table rendered identically to the
        fault-free one, hiding the very effect the fault plan injects.
        """
        return (
            self.topology,
            self.num_pairs,
            round(self.avg_hops, 3),
            self.max_link_load,
            round(self.load_imbalance, 3),
            self.loaded_links,
            self.num_links,
            self.retransmissions,
            self.path_hops,
        )


def random_pairs(
    num_nodes: int, count: int, rng, *, exclude_self: bool = True
) -> list[tuple[int, int]]:
    """Sample ``count`` (src, dst) pairs uniformly.

    Raises :class:`ValueError` when no valid pair exists (fewer than two
    nodes with ``exclude_self=True`` — previously an infinite rejection
    loop); the rejection loop itself is bounded as a safety net.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if exclude_self and num_nodes < 2 and count > 0:
        raise ValueError(
            f"cannot sample {count} self-excluding pairs from {num_nodes} "
            f"node(s); need at least 2 nodes or exclude_self=False"
        )
    out: list[tuple[int, int]] = []
    # With >= 2 nodes a rejection happens w.p. 1/num_nodes per draw, so
    # this budget is astronomically unlikely to be exhausted; it exists so
    # a pathological rng can never spin forever.
    attempts_left = 100 * count + 100
    while len(out) < count:
        if attempts_left <= 0:
            # ValueError, not RuntimeError: library input/usage errors raise
            # ValueError throughout (the PR 4 convention) — a pathological
            # rng is a caller-supplied input like any other.
            raise ValueError(
                f"rejection sampling exhausted its attempt budget with "
                f"{len(out)}/{count} pairs drawn"
            )
        attempts_left -= 1
        u = int(rng.integers(0, num_nodes))
        v = int(rng.integers(0, num_nodes))
        if exclude_self and u == v:
            continue
        out.append((u, v))
    return out


def _validated_path(
    topo: Topology, router: Router, u: int, v: int, edges: set
) -> tuple:
    """``router(u, v)`` as a tuple of Python ints, checked to run from
    ``u`` to ``v`` over edges of ``topo`` only; raises :class:`ValueError`
    otherwise (:class:`TypeError` for a non-integer node).

    ``edges`` holds the ``(a, b)`` hops already found to be edges: the
    caller keeps one set per run, so each directed edge goes to
    ``topo.has_edge`` once.  The one router-output check of
    :func:`run_traffic` and :func:`~repro.simulator.serving.run_serving`.
    """
    raw = router(u, v)
    path = tuple(map(operator.index, raw)) if raw is not None else ()
    if not path:
        router_name = getattr(router, "__name__", repr(router))
        raise ValueError(
            f"router {router_name} returned an empty path for pair "
            f"({u}, {v}) on {topo.name}; every pair must be routable "
            f"(got {raw!r})"
        )
    if path[0] != u or path[-1] != v:
        raise ValueError(f"router returned bad endpoints for ({u}, {v})")
    for hop in zip(path, path[1:]):
        if hop not in edges:
            if not topo.has_edge(*hop):
                raise ValueError(f"router used non-edge {hop} on {topo.name}")
            edges.add(hop)
    return path


def run_traffic(
    topo: Topology,
    router: Router,
    pairs: Sequence[tuple[int, int]],
    *,
    fault_plan: FaultPlan | None = None,
) -> TrafficStats:
    """Route every pair and aggregate hop/link-load statistics.

    Each traversed undirected link counts one unit of load per message
    crossing it (either direction).  Paths are validated hop by hop.

    With a ``fault_plan``, each hop crossing is subject to the plan's
    deterministic drop schedule (keyed by a global attempt counter, so a
    given plan reproduces the same retransmissions bit-for-bit); a dropped
    crossing is retransmitted — the failed attempt still loads the link
    and counts toward ``total_hops`` but not ``path_hops`` — bounded per
    hop by the plan's ``max_retries``.  A plan naming a node or link
    outside ``topo`` is rejected with :class:`ValueError`.
    """
    if fault_plan is not None:
        fault_plan.validate_for(topo)
    edges: set[tuple[int, int]] = set()
    load: Counter = Counter()
    total_hops = 0
    path_hops = 0
    retransmissions = 0
    attempt = 0  # global attempt index: the "cycle" key for drop verdicts
    for u, v in pairs:
        path = _validated_path(topo, router, u, v, edges)
        for a, b in zip(path, path[1:]):
            link = (min(a, b), max(a, b))
            path_hops += 1
            tries = 0
            while True:
                attempt += 1
                load[link] += 1
                total_hops += 1
                if fault_plan is None or not fault_plan.dropped(a, b, attempt):
                    break
                retransmissions += 1
                tries += 1
                if tries > fault_plan.max_retries:
                    raise RetryLimitError((a, b), f"hop {a}->{b}", tries, attempt)
    num_links = sum(topo.degree(u) for u in topo.nodes()) // 2
    return TrafficStats(
        topology=topo.name,
        num_pairs=len(pairs),
        total_hops=total_hops,
        max_link_load=max(load.values(), default=0),
        mean_link_load=(
            float(np.mean(list(load.values()))) if load else 0.0
        ),
        loaded_links=len(load),
        num_links=num_links,
        retransmissions=retransmissions,
        path_hops=path_hops,
    )


def hypercube_dimension_order_path(u: int, v: int) -> list[int]:
    """Dimension-order (e-cube) routing in the hypercube: fix bits low to high."""
    path = [u]
    cur = u
    diff = u ^ v
    i = 0
    while diff:
        if diff & 1:
            cur ^= 1 << i
            path.append(cur)
        diff >>= 1
        i += 1
    return path
