"""Reduction collectives in the dual-cube.

``allreduce`` uses the same cluster-then-cross technique as `D_prefix`
(and the companion collective-communication paper the authors cite):
cluster-wide allreduce, cross exchange of cluster totals, cluster-wide
allreduce of those totals (yielding the *other* half's total everywhere),
one more cross exchange, and a local combine — 2n communication steps.

``reduce`` returns the total at a chosen root by running the allreduce
schedule (the dedicated tree reduce would have the same step count in
this model; see the docstring).
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import dispatch
from repro.core.cube_prefix import cube_prefix_program
from repro.core.ops import AssocOp, combine_arrays
from repro.simulator import CostCounters, SendRecv, run_spmd
from repro.topology.dualcube import DualCube

__all__ = ["allreduce", "reduce_engine"]


def _allreduce_program(ctx, dc: DualCube, value, op: AssocOp):
    """Per-node allreduce (returns the network-wide total)."""
    u = ctx.rank
    m = dc.cluster_dim
    nid = dc.node_id(u)
    gdims = [dc.local_to_global_dim(u, i) for i in range(m)]
    cross = dc.cross_partner(u)

    # Cluster total (the ascend rounds; the prefix output is unused).
    t, _ = yield from cube_prefix_program(
        ctx, value, op, inclusive=True, q=m, local_rank=nid, global_dims=gdims
    )
    # My cluster total for the other class's books; theirs for mine.
    temp = yield SendRecv(cross, t)
    # Other-half total: cluster-wide combine of the received block totals.
    t2, _ = yield from cube_prefix_program(
        ctx, temp, op, inclusive=True, q=m, local_rank=nid, global_dims=gdims
    )
    # t2 is the total of the *other* class's half; my own half's total
    # lives at my cross partner.
    own_half = yield SendRecv(cross, t2)
    ctx.compute(1)
    if dc.class_of(u) == 0:
        return op(own_half, t2)
    return op(t2, own_half)


def allreduce(
    dc: DualCube,
    values,
    op: AssocOp,
    *,
    backend: str = "replay",
    counters: CostCounters | None = None,
):
    """The op-reduction of all inputs, in *arranged* (global index)
    order, at every node; 2n communication steps.

    ``backend="replay"`` (the default) returns the per-node totals array
    and takes ``counters``; ``backend="engine"`` runs the cycle-accurate
    simulator and returns ``(totals, EngineResult)``.
    """
    return dispatch("allreduce", backend, dc, values, op, counters=counters)


def _allreduce_engine(dc: DualCube, values, op: AssocOp):
    def program(ctx):
        total = yield from _allreduce_program(ctx, dc, values[ctx.rank], op)
        return total

    result = run_spmd(dc, program)
    return list(result.returns), result


def _allreduce_replay(dc: DualCube, values, op: AssocOp, *, counters):
    """Class-0 clusters span address bits ``0..m-1`` of the lower half and
    class-1 clusters bits ``m..2m-1`` of the upper half, so each phase is
    :func:`~repro.core.replay.ascend_totals` over one half, and the cross
    exchange (``u ↔ u ^ 2**(2m)``) swaps the halves."""
    from repro.core.replay import ascend_totals

    n, m = dc.num_nodes, dc.cluster_dim
    half = n >> 1

    def cluster_totals(lo, hi):
        if counters is not None:
            for _ in range(m):
                counters.record_comm_step(messages=n)
                counters.record_comp_step(ops_each=2)
        return (ascend_totals(lo, op, range(m)),
                ascend_totals(hi, op, range(m, 2 * m)))

    t0, t1 = cluster_totals(values[:half], values[half:])
    if counters is not None:
        counters.record_comm_step(messages=n)
    # Each class now holds the other's cluster totals, so t2 is the other
    # half's total; the last exchange brings every node its own half's.
    t2_0, t2_1 = cluster_totals(t1, t0)
    if counters is not None:
        counters.record_comm_step(messages=n)
        counters.record_comp_step(ops_each=1)
    total = combine_arrays(op, t2_1, t2_0)
    return np.concatenate([total, total])


def reduce_engine(dc: DualCube, values, op: AssocOp, root: int):
    """Reduction to ``root`` (allreduce schedule; every node learns the total).

    In the synchronous 1-port model a dedicated binomial-tree reduce takes
    the same 2n steps as allreduce, so the library reuses the allreduce
    program and reports the root's value.
    """
    dc.check_node(root)
    totals, result = allreduce(dc, values, op, backend="engine")
    return totals[root], result
