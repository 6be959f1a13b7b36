"""Algorithm 2 — D_prefix: parallel prefix in the dual-cube.

The cluster technique (paper Section 3): with inputs arranged so every
cluster holds a consecutive block of ``c`` (see
:mod:`repro.core.arrangement`), the algorithm is

1. inclusive `Cube_prefix` inside every cluster → ``(t, s)``;
2. exchange ``t`` over the cross-edge → ``temp``
   (after which class-1 cluster nodes collectively hold all class-0 block
   totals in node-ID order, and vice versa);
3. diminished `Cube_prefix` on ``temp`` inside every cluster → ``(t', s')``
   (``s'`` = composition of the other class's earlier block totals,
   ``t'`` = that class's half total);
4. exchange ``s'`` over the cross-edge and pre-fold it into ``s``;
5. class-1 nodes pre-fold the first-half total into ``s``.

**Step-5 reconstruction** (see DESIGN.md): the value class-1 nodes need in
step 5 is exactly their own ``t'`` from step 3, so no communication is
required and the default implementation finishes after 2n communication
steps.  The paper's Algorithm 2 spends one more cross-edge exchange here,
giving Theorem 1's 2n+1 count; ``paper_literal=True`` reproduces that
schedule (the exchange is performed and counted; the fold still uses the
locally-correct value).  Outputs are identical; benchmark A1 reports both.

Cost (measured by the engine): 2(n-1)+2 = 2n communication steps
(2n+1 literal) and 2n computation steps — Theorem 1's "at most" bounds.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.arrangement import arrange, dearrange
from repro.core.backends import _items, dispatch
from repro.core.cube_prefix import cube_prefix_program
from repro.core.ops import AssocOp
from repro.simulator import CostCounters, SendRecv, TraceRecorder, run_spmd
from repro.topology.dualcube import DualCube

__all__ = [
    "dual_prefix_program",
    "dual_prefix",
    "dual_suffix",
]


def _dual_prefix_node_program(
    ctx,
    dc: DualCube,
    held_value: Any,
    op: AssocOp,
    paper_literal: bool,
    inclusive: bool,
):
    """The per-node SPMD program for Algorithm 2 (returns the prefix ``s``)."""
    u = ctx.rank
    cls = dc.class_of(u)
    nid = dc.node_id(u)
    m = dc.cluster_dim
    gdims = [dc.local_to_global_dim(u, i) for i in range(m)]
    cross = dc.cross_partner(u)

    ctx.record("(a) input", held_value)

    # Step 1: prefix inside the cluster (inclusive or diminished per tag).
    t, s = yield from cube_prefix_program(
        ctx,
        held_value,
        op,
        inclusive=inclusive,
        q=m,
        local_rank=nid,
        global_dims=gdims,
    )
    ctx.record("(b) cluster prefix s", s)
    ctx.record("(b) cluster total t", t)

    # Step 2: block totals cross the class boundary.
    temp = yield SendRecv(cross, t)
    ctx.record("(c) cross total temp", temp)

    # Step 3: diminished prefix of the other class's block totals.
    t2, s2 = yield from cube_prefix_program(
        ctx, temp, op, inclusive=False, q=m, local_rank=nid, global_dims=gdims
    )
    ctx.record("(d) block-prefix s'", s2)
    ctx.record("(d) half total t'", t2)

    # Step 4: earlier-block composition returns over the cross-edge.
    got = yield SendRecv(cross, s2)
    ctx.compute(1)
    s = op(got, s)
    ctx.record("(e) after s' fold", s)

    # Step 5 (paper-literal: one more cross exchange to match Theorem 1's
    # 2n+1 count; the received value is redundant — see module docstring).
    if paper_literal:
        yield SendRecv(cross, t2)
    if cls == 1:
        ctx.compute(1)
        s = op(t2, s)
    ctx.record("(f) final prefix", s)
    return s


def dual_prefix_program(
    dc: DualCube,
    values,
    op: AssocOp,
    *,
    inclusive: bool = True,
    paper_literal: bool = False,
):
    """The SPMD program realizing Algorithm 2 on ``dc``.

    ``values`` is the input sequence in global index order.  Each rank
    returns its arranged-order prefix ``s``.  This is the exact program
    the engine backend of :func:`dual_prefix` runs; it is exposed so the
    static schedule analyzer (:mod:`repro.analysis.static`) can extract
    its communication schedule without an engine run.  It takes the
    items :func:`dual_prefix` takes: a list of tuples is one tuple per
    node.
    """
    held = arrange(dc, _items(values).astype(object))

    def program(ctx):
        s = yield from _dual_prefix_node_program(
            ctx, dc, held[ctx.rank], op, paper_literal, inclusive
        )
        return s

    return program


def _dual_prefix_engine(dc: DualCube, values, op: AssocOp, *,
                        inclusive: bool, paper_literal: bool, trace):
    program = dual_prefix_program(
        dc, values, op, inclusive=inclusive, paper_literal=paper_literal
    )
    result = run_spmd(dc, program, trace=trace)
    held_out = np.empty(dc.num_nodes, dtype=object)
    held_out[:] = result.returns
    return dearrange(dc, held_out), result


def dual_prefix(
    dc: DualCube,
    values,
    op: AssocOp,
    *,
    backend: str = "replay",
    inclusive: bool = True,
    paper_literal: bool = False,
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
    profiler=None,
    shards: int | None = None,
):
    """Parallel prefix on the dual-cube — the library's headline entry point.

    ``values`` is the input sequence ``c`` in global index order (one
    per node); the result is its prefix in the same order
    (``out[k] = c[0] ⊕ … ⊕ c[k]``, or ``c[0] ⊕ … ⊕ c[k-1]`` when not
    ``inclusive``).  ``paper_literal`` reproduces the paper's extra
    step-5 cross exchange (2n+1 comm steps instead of 2n).

    ``backend`` selects ``"replay"`` (the array backend: a cached plan run
    on in-place views; returns the prefix array, takes ``counters``,
    ``trace``, ``profiler`` and ``shards`` for per-cluster
    multiprocessing) or ``"engine"`` (cycle-accurate; returns
    ``(prefixes, EngineResult)``).  Capabilities are declared in
    :mod:`repro.core.backends`: a backend without external counters,
    profiling hooks or sharding rejects the corresponding keyword with a
    ``ValueError``.
    """
    return dispatch("dual_prefix", backend, dc, values, op,
                    inclusive=inclusive, paper_literal=paper_literal,
                    counters=counters, trace=trace, profiler=profiler,
                    shards=shards)


def dual_suffix(
    dc: DualCube,
    values,
    op: AssocOp,
    *,
    inclusive: bool = True,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Suffix (backward) scan: out[k] = c[k] (\u2295 c[k+1] ... \u2295 c[N-1]).

    Runs `D_prefix` on the reversed sequence under the order-flipped
    (still associative) operation, then reverses back — same 2n
    communication steps, an exact mirror.  A commutative op is its own
    flip, so it keeps its ufunc and numeric dtype.
    """
    flipped = op if op.commutative else AssocOp(
        f"{op.name}-flipped", lambda a, b: op.fn(b, a), op.identity
    )
    rev = _items(values)[::-1].copy()
    out = dual_prefix(dc, rev, flipped, inclusive=inclusive, counters=counters)
    return out[::-1].copy()
