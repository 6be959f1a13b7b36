"""Bitonic machinery and the hypercube baseline sort (paper Section 5).

A sequence is *bitonic* when it rises then falls, falls then rises, or is
a cyclic rotation of such a sequence.  Batcher's bitonic sort on an n-cube
sorts 2^n keys in n(n+1)/2 compare-exchange steps; the paper's dual-cube
sort emulates exactly this network, so the hypercube version implemented
here is both the correctness oracle and the comparison baseline for
Theorem 2.

The network is expressed as an explicit schedule of
:class:`~repro.core.dual_sort.ScheduleStep` records (dimension +
per-node direction rule), the same representation the dual-cube sort
uses — one schedule executor, two networks.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.backends import dispatch
from repro.core.dual_sort import ScheduleStep, execute_schedule_engine
from repro.simulator import CostCounters, TraceRecorder
from repro.topology.hypercube import Hypercube

__all__ = [
    "is_bitonic",
    "bitonic_schedule",
    "hypercube_bitonic_sort",
]


def _sort_cube(n: int) -> Hypercube:
    """The hypercube sorting ``n`` keys (a power of two, checked at
    dispatch)."""
    return Hypercube(n.bit_length() - 1)


def is_bitonic(seq: Sequence) -> bool:
    """Whether ``seq`` is bitonic in the paper's (cyclic) sense.

    Equal neighbors are ignored; the remaining cyclic sequence of
    rise/fall signs must change direction at most twice.
    """
    items = list(seq)
    n = len(items)
    if n <= 2:
        return True
    signs = []
    for k in range(n):
        a, b = items[k], items[(k + 1) % n]
        if a < b:
            signs.append(1)
        elif a > b:
            signs.append(-1)
    if not signs:
        return True
    changes = sum(
        1 for k in range(len(signs)) if signs[k] != signs[(k + 1) % len(signs)]
    )
    return changes <= 2


def bitonic_schedule(q: int, *, descending: bool = False) -> list[ScheduleStep]:
    """Batcher's bitonic sorting network for 2^q keys as a step schedule.

    Stage ``k`` (1-based) merges bitonic blocks of size 2^k with descend
    steps over dimensions ``k-1 .. 0``; within stage ``k < q`` a node's
    direction is address bit ``k`` (blocks alternate), and the final stage
    uses the requested overall direction.  Total steps: q(q+1)/2.
    """
    if q < 0:
        raise ValueError(f"cube dimension must be >= 0, got {q}")
    steps: list[ScheduleStep] = []
    for k in range(1, q + 1):
        for j in range(k - 1, -1, -1):
            if k < q:
                steps.append(ScheduleStep(dim=j, dir_kind="bit", dir_val=k))
            else:
                steps.append(
                    ScheduleStep(dim=j, dir_kind="const", dir_val=int(descending))
                )
    return steps


def _hypercube_bitonic_sort_engine(keys, *, descending: bool, trace):
    cube = _sort_cube(len(keys))
    sched = bitonic_schedule(cube.q, descending=descending)
    return execute_schedule_engine(cube, keys, sched, trace=trace)


def hypercube_bitonic_sort(
    keys,
    *,
    descending: bool = False,
    backend: str = "replay",
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
):
    """Bitonic sort on the hypercube (baseline public entry point).

    ``backend`` selects ``"replay"`` (the array backend; returns the
    sorted array) or ``"engine"`` (cycle-accurate; returns ``(keys,
    EngineResult)``); capabilities are declared in
    :mod:`repro.core.backends`.  The key count must be a power of two,
    and float keys containing NaN are rejected before dispatch, as in
    :func:`~repro.core.dual_sort.dual_sort`.
    """
    return dispatch("bitonic", backend, keys, descending=descending,
                    counters=counters, trace=trace)
