"""Algorithm 1 — Cube_prefix: parallel prefix in a hypercube.

The ascend algorithm: node ``u`` keeps a subcube total ``t`` and a subcube
prefix ``s``; at round ``i`` it exchanges ``t`` with its dimension-``i``
neighbor and folds the received sibling-subcube total into ``t`` (always)
and into ``s`` (when ``u`` lies in the upper half, i.e. bit ``i`` of its
rank is 1, so the sibling subcube holds the *earlier* indices).

The paper writes the folds as ``x ⊕ temp``; for non-commutative operations
the sibling total of the lower half must be *pre*-composed, which is what
this implementation does (``temp ⊕ x`` on the upper side) — the test suite
checks this with tuple concatenation and matrix products.

Two functions share the logic:

* :func:`cube_prefix_program` — generator *phase* for SPMD programs
  (``yield from`` it inside larger algorithms such as `D_prefix`);
* :func:`cube_prefix` — the entry point on ``2**q`` values: the array
  backend's in-place ascend, or the program on the cycle-accurate
  engine over :class:`~repro.topology.hypercube.Hypercube` ``Q_q``.

Both produce the pair ``(t, s)``: the cube-wide total and the
(inclusive or diminished) prefix, exactly Algorithm 1's outputs.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.backends import dispatch
from repro.core.ops import AssocOp
from repro.simulator import CostCounters, SendRecv, TraceRecorder, run_spmd
from repro.simulator.node import NodeCtx
from repro.topology.hypercube import Hypercube

__all__ = [
    "cube_prefix_program",
    "cube_prefix",
]


def cube_prefix_program(
    ctx: NodeCtx,
    value: Any,
    op: AssocOp,
    *,
    inclusive: bool = True,
    q: int | None = None,
    local_rank: int | None = None,
    global_dims: Sequence[int] | None = None,
):
    """SPMD phase computing (t, s) over a q-dimensional (sub)cube.

    Parameters
    ----------
    value:
        This node's input ``c[u]``.
    inclusive:
        Algorithm 1's ``tag``: inclusive prefix when true, diminished
        (excluding ``c[u]``) when false.
    q, local_rank, global_dims:
        The embedding of the subcube: ``local_rank`` is this node's rank
        within it (default: the node's own rank), ``global_dims[i]`` the
        address bit that realizes local dimension ``i`` (default: identity).
        `D_prefix` passes the cluster's node ID and its intra-cluster
        dimension map here, running one instance per cluster in parallel.

    Yields communication requests; *returns* ``(t, s)``.
    """
    topo = ctx.topo
    if q is None:
        if not isinstance(topo, Hypercube):
            raise TypeError(
                "q/local_rank/global_dims must be given unless running on a "
                f"Hypercube (got {topo.name})"
            )
        q = topo.q
    if local_rank is None:
        local_rank = ctx.rank
    if global_dims is None:
        global_dims = range(q)

    t = value
    s = value if inclusive else op.identity
    for i, gdim in zip(range(q), global_dims):
        partner = ctx.rank ^ (1 << gdim)
        temp = yield SendRecv(partner, t)
        ctx.compute(2)  # one round: t-fold plus (conditional) s-fold
        if (local_rank >> i) & 1:
            # Upper half: the sibling subcube holds earlier indices.
            s = op(temp, s)
            t = op(temp, t)
        else:
            t = op(t, temp)
    return t, s


def cube_prefix(
    values,
    op: AssocOp,
    *,
    backend: str = "replay",
    inclusive: bool = True,
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
):
    """Algorithm 1 over ``2**q`` values, one per node of ``Q_q``.

    Returns ``(t, s)``: the cube total at every node and the inclusive
    (or diminished) prefixes.  ``backend="replay"`` (the default) returns
    arrays and takes ``counters``; ``backend="engine"`` runs the
    cycle-accurate simulator, takes ``trace`` and returns
    ``((t, s), EngineResult)`` with ``t`` and ``s`` as lists.
    Capabilities are declared in :mod:`repro.core.backends`.
    """
    return dispatch("cube_prefix", backend, values, op, inclusive=inclusive,
                    counters=counters, trace=trace)


def _cube_prefix_engine(values, op: AssocOp, *, inclusive: bool, trace):
    def program(ctx):
        t, s = yield from cube_prefix_program(
            ctx, values[ctx.rank], op, inclusive=inclusive
        )
        return (t, s)

    result = run_spmd(Hypercube(len(values).bit_length() - 1), program,
                      trace=trace)
    return ([r[0] for r in result.returns],
            [r[1] for r in result.returns]), result


def _cube_prefix_replay(values, op: AssocOp, *, inclusive: bool, counters):
    from repro.core.replay import ascend_prefix

    n = len(values)
    q = n.bit_length() - 1
    t, s = ascend_prefix(values, op, range(q), inclusive=inclusive)
    if counters is not None:
        for _ in range(q):
            counters.record_comm_step(messages=n)
            counters.record_comp_step(ops_each=2)
    return t, s
