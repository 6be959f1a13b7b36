"""Order statistics on the dual-cube via `D_sort`.

Once keys are sorted across the network (node address order = rank
order), quantiles, top-k extraction and equi-width histograms are
address arithmetic — the textbook payoff of a sorting network.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dual_sort import dual_sort
from repro.simulator import CostCounters
from repro.topology.recursive import RecursiveDualCube

__all__ = ["parallel_quantiles", "parallel_top_k", "parallel_histogram"]


def _sorted_keys(
    rdc: RecursiveDualCube, keys, counters: CostCounters | None
) -> np.ndarray:
    arr = np.asarray(keys)
    if arr.shape != (rdc.num_nodes,):
        raise ValueError(
            f"expected {rdc.num_nodes} keys for {rdc.name}, got shape {arr.shape}"
        )
    return dual_sort(rdc, arr, counters=counters)


def parallel_quantiles(
    rdc: RecursiveDualCube,
    keys,
    qs: Sequence[float],
    *,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Empirical quantiles of the distributed keys (nearest-rank method)."""
    s = _sorted_keys(rdc, keys, counters)
    n = len(s)
    out = []
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        rank = min(n - 1, max(0, int(np.ceil(q * n)) - 1))
        out.append(s[rank])
    return np.asarray(out)


def parallel_top_k(
    rdc: RecursiveDualCube,
    keys,
    k: int,
    *,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """The k largest keys in descending order (read off the sorted tail)."""
    if not 1 <= k <= rdc.num_nodes:
        raise ValueError(f"k must be in 1..{rdc.num_nodes}, got {k}")
    s = _sorted_keys(rdc, keys, counters)
    return s[-k:][::-1].copy()


def parallel_histogram(
    rdc: RecursiveDualCube,
    keys,
    bin_edges,
    *,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Histogram counts over ``bin_edges`` (len+1 edges -> len counts).

    Sorting makes each bin a contiguous address range; counts come from
    binary-searching the edges in the sorted sequence.
    """
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or len(edges) < 2 or (np.diff(edges) <= 0).any():
        raise ValueError("bin_edges must be a strictly increasing 1-D array")
    s = _sorted_keys(rdc, keys, counters)
    positions = np.searchsorted(s, edges, side="left")
    return np.diff(positions)
