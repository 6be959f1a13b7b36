"""Comparator networks: Batcher's bitonic and odd-even merge sorts.

Paper Section 5: "Batcher's O(n²)-time bitonic and odd-even merge sorting
algorithms are presently the fastest practical deterministic sorting
algorithms" for the hypercube.  This module builds both as explicit
comparator networks — stages of independent ``(i, j)`` comparators — so
the reproduction can compare them and explain why the dual-cube sort
builds on *bitonic*:

* every bitonic comparator pairs indices differing in one bit, i.e. a
  dimension exchange a cube-like network executes natively;
* odd-even merge uses comparators at distance 2^k between *odd* indices
  (``i`` and ``i + 2^k`` with ``i`` odd), which are not dimension
  exchanges, so each would need routing on a hypercube or dual-cube.

Correctness of both networks is certified through the 0-1 principle
(exhaustively for small widths in the tests).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bitonic import bitonic_schedule

__all__ = [
    "Comparator",
    "bitonic_sort_network",
    "odd_even_merge_sort_network",
    "schedule_to_network",
    "apply_network",
    "network_depth",
    "comparator_count",
    "verify_zero_one",
    "is_dimension_exchange_network",
]

Comparator = tuple[int, int]
Stage = list[Comparator]


def _check_width(width: int) -> None:
    if width < 1 or width & (width - 1):
        raise ValueError(f"network width must be a power of two, got {width}")


def bitonic_sort_network(width: int) -> list[Stage]:
    """Batcher's bitonic sorting network as comparator stages.

    Stage (k, j) compares ``i`` with ``i | 2^j`` for every ``i`` with bit
    ``j`` clear, direction by bit ``k`` of ``i``: the schedule
    :func:`repro.core.bitonic.bitonic_schedule` that the backends run,
    rendered through :func:`schedule_to_network`, so a 0-1 certificate
    of this network certifies that schedule.
    """
    _check_width(width)
    return schedule_to_network(bitonic_schedule(width.bit_length() - 1), width)


def odd_even_merge_sort_network(width: int) -> list[Stage]:
    """Batcher's odd-even merge sorting network as comparator stages.

    Recursive: sort both halves, then odd-even merge.  The merge's
    inner comparators pair ``i`` with ``i + step`` at *odd* multiples —
    not single-bit partners, hence not native cube exchanges.
    """
    _check_width(width)

    def merge_stages(lo: int, length: int, step0: int) -> list[Stage]:
        # Merge the sequence at indices lo, lo+step0, ... (length items).
        if length <= 1:
            return []
        if length == 2:
            return [[(lo, lo + step0)]]
        half = merge_stages(lo, (length + 1) // 2, step0 * 2)
        other = merge_stages(lo + step0, length // 2, step0 * 2)
        combined: list[Stage] = []
        for a, b in zip(half, other):
            combined.append(a + b)
        longer = half if len(half) > len(other) else other
        combined.extend(longer[len(combined):])
        final: Stage = []
        for k in range(1, length - 1, 2):
            final.append((lo + k * step0, lo + (k + 1) * step0))
        combined.append(final)
        return combined

    def sort_stages(lo: int, length: int) -> list[Stage]:
        if length <= 1:
            return []
        half = length // 2
        left = sort_stages(lo, half)
        right = sort_stages(lo + half, length - half)
        merged: list[Stage] = []
        for a, b in zip(left, right):
            merged.append(a + b)
        longer = left if len(left) > len(right) else right
        merged.extend(longer[len(merged):])
        merged.extend(merge_stages(lo, length, 1))
        return merged

    return sort_stages(0, width)


def schedule_to_network(schedule, width: int) -> list[Stage]:
    """Render a compare-exchange schedule as an explicit comparator network.

    Each :class:`~repro.core.dual_sort.ScheduleStep` becomes one stage:
    the pair ``(i, i | 2^dim)`` ordered by the step's per-node direction
    (``(hi, lo)`` when descending, so the max lands at the low index).
    Composing with :func:`verify_zero_one` certifies a whole `D_sort`
    schedule exhaustively — independent of either executor.
    """
    _check_width(width)
    stages: list[Stage] = []
    for step in schedule:
        stage: Stage = []
        for i in range(width):
            if i & (1 << step.dim):
                continue
            partner = i | (1 << step.dim)
            if step.descending(i):
                stage.append((partner, i))
            else:
                stage.append((i, partner))
        stages.append(stage)
    return stages


def _check_stage(stage: Stage) -> None:
    """Reject a stage whose comparators share an index."""
    seen: set[int] = set()
    for lo, hi in stage:
        if lo in seen or hi in seen:
            raise ValueError(f"stage reuses index: comparator ({lo}, {hi})")
        seen.update((lo, hi))


def apply_network(keys, stages: Sequence[Stage]) -> np.ndarray:
    """Run a comparator network over a key array (returns a sorted copy
    when the network is a sorting network)."""
    arr = np.array(keys)
    for stage in stages:
        _check_stage(stage)
        for lo, hi in stage:
            if arr[hi] < arr[lo]:
                arr[lo], arr[hi] = arr[hi], arr[lo]
    return arr


def network_depth(stages: Sequence[Stage]) -> int:
    """Number of parallel stages."""
    return len(stages)


def comparator_count(stages: Sequence[Stage]) -> int:
    """Total comparators across all stages."""
    return sum(len(s) for s in stages)


def verify_zero_one(stages: Sequence[Stage], width: int) -> bool:
    """Exhaustive 0-1 principle check: the network sorts every 0/1 input.

    Bit-sliced: wire ``i`` is a boolean vector over all ``2**width``
    inputs (input ``x`` carries bit ``i`` of ``x``), so a comparator is
    one AND (its min) and one OR (its max) over every input at once.
    Output wire ``i`` is correct when it marks exactly the inputs with
    more than ``width - 1 - i`` ones.  Memory and time grow as
    ``width * 2**width``: milliseconds at width 16.
    """
    inputs = np.arange(1 << width)
    wires = [(inputs >> i & 1).astype(bool) for i in range(width)]
    for stage in stages:
        _check_stage(stage)
        for lo, hi in stage:
            wires[lo], wires[hi] = wires[lo] & wires[hi], wires[lo] | wires[hi]
    ones = np.bitwise_count(inputs)
    return all(
        np.array_equal(wire, ones > width - 1 - i)
        for i, wire in enumerate(wires)
    )


def is_dimension_exchange_network(stages: Sequence[Stage]) -> bool:
    """Whether every comparator pairs indices differing in exactly one bit.

    True for bitonic (why the dual-cube sort can emulate it hop-bounded),
    false for odd-even merge at widths >= 4.
    """
    for stage in stages:
        for lo, hi in stage:
            diff = lo ^ hi
            if diff == 0 or diff & (diff - 1):
                return False
    return True
