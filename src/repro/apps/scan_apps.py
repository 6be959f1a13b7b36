"""Scan (prefix) applications on the dual-cube.

Classic data-parallel kernels from Hillis & Steele's "Data parallel
algorithms" (the paper's reference for prefix computation), each riding on
`D_prefix`: stream compaction, enumeration, first-order linear recurrences
(via a non-commutative matrix scan), and segmented sums.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.dual_prefix import dual_prefix
from repro.core.ops import ADD, MATMUL2, AssocOp
from repro.simulator import CostCounters
from repro.topology.dualcube import DualCube

__all__ = [
    "enumerate_true",
    "stream_compact",
    "linear_recurrence",
    "segmented_sum",
]


def enumerate_true(
    dc: DualCube,
    flags,
    *,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """For each position, how many flags are set strictly before it.

    The diminished +-scan of the 0/1 indicator — the building block of
    compaction, load balancing, and radix partitioning.
    """
    ind = np.asarray(flags, dtype=np.int64)
    if set(np.unique(ind)) - {0, 1}:
        raise ValueError("flags must be 0/1 valued")
    return dual_prefix(dc, ind, ADD, inclusive=False, counters=counters)


def stream_compact(
    dc: DualCube,
    values,
    predicate: Callable,
    *,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Keep the elements satisfying ``predicate``, preserving order.

    One diminished +-scan computes every survivor's output slot; the
    "write" is the trivial permutation step that a real machine would do
    with one routed message per survivor.
    """
    vals = np.asarray(values)
    if vals.shape != (dc.num_nodes,):
        raise ValueError(
            f"expected {dc.num_nodes} values for {dc.name}, got shape {vals.shape}"
        )
    flags = np.fromiter(
        (1 if predicate(v) else 0 for v in vals), dtype=np.int64, count=len(vals)
    )
    slots = enumerate_true(dc, flags, counters=counters)
    kept = flags == 1
    out = np.empty(int(flags.sum()), dtype=vals.dtype)
    out[slots[kept]] = vals[kept]
    return out


def linear_recurrence(
    dc: DualCube,
    a: Sequence[float],
    b: Sequence[float],
    x0: float,
    *,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Solve x_{k+1} = a_k x_k + b_k for k = 0..N-1 with one matrix scan.

    Each step is the affine map M_k = [[a_k, b_k], [0, 1]]; since
    x_k = M_{k-1} ··· M_0 · (x0, 1)ᵀ needs the *later* matrix composed on
    the left, the scan runs under the order-flipped (still associative)
    matrix product — a genuinely non-commutative use of `D_prefix`.

    Returns x_1..x_N.
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != (dc.num_nodes,) or bv.shape != (dc.num_nodes,):
        raise ValueError(
            f"expected {dc.num_nodes} coefficients for {dc.name}, got "
            f"{av.shape} and {bv.shape}"
        )
    flipped = AssocOp(
        "matmul2-flipped",
        lambda p, q: MATMUL2.fn(q, p),
        MATMUL2.identity,
        commutative=False,
    )
    mats = np.empty(dc.num_nodes, dtype=object)
    mats[:] = [(float(ai), float(bi), 0.0, 1.0) for ai, bi in zip(av, bv)]
    prods = dual_prefix(dc, mats, flipped, counters=counters)
    out = np.empty(dc.num_nodes, dtype=np.float64)
    for k, (m00, m01, _m10, _m11) in enumerate(prods):
        out[k] = m00 * x0 + m01
    return out


def segmented_sum(
    dc: DualCube,
    values,
    segment_heads,
    *,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Inclusive sums restarting at every flagged segment head.

    Uses the classic segmented-scan operator — pairs ``(flag, value)``
    with a non-commutative combine that resets across heads — on
    `D_prefix` unchanged, demonstrating that any associative operator
    drops in.
    """
    vals = np.asarray(values, dtype=np.float64)
    heads = np.asarray(segment_heads, dtype=np.int64)
    if vals.shape != (dc.num_nodes,) or heads.shape != (dc.num_nodes,):
        raise ValueError(
            f"expected {dc.num_nodes} values/flags for {dc.name}, got "
            f"{vals.shape} and {heads.shape}"
        )
    if len(heads) and heads[0] != 1:
        raise ValueError("the first element must start a segment (flag 1)")

    def seg_fn(p, q):
        pf, pv = p
        qf, qv = q
        if qf:
            return (1, qv)
        return (pf or qf, pv + qv)

    seg_op = AssocOp("segmented-sum", seg_fn, (0, 0.0), commutative=False)
    pairs = np.empty(dc.num_nodes, dtype=object)
    pairs[:] = [(int(f), float(v)) for f, v in zip(heads, vals)]
    scanned = dual_prefix(dc, pairs, seg_op, counters=counters)
    return np.array([v for _f, v in scanned], dtype=np.float64)
