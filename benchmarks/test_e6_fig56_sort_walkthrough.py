"""E6 — Figures 5-6: the D_sort walkthrough on D_3.

Figure 5 ("generate bitonic sequence"): the four recursively sorted
D_2 copies, then the half-merge making the whole network one bitonic
sequence (lower half ascending, upper half descending).
Figure 6 ("sort bitonic sequence"): the 5 final-merge steps ending fully
sorted.

The paper's example keys were lost to OCR; the reproduction uses a fixed
seeded permutation of 0..31 (documented substitution — the algorithm is
oblivious, so the schedule is input-independent).
"""

import numpy as np

from repro import RecursiveDualCube, TraceRecorder
from repro.core.bitonic import is_bitonic
from repro.core.dual_sort import dual_sort_schedule, dual_sort

from benchmarks._util import emit, grid


def test_figures_5_and_6(benchmark):
    rdc = RecursiveDualCube(3)
    keys = np.random.default_rng(2008).permutation(32)

    def run():
        trace = TraceRecorder()
        out = dual_sort(rdc, keys, trace=trace)
        return out, trace

    out, trace = benchmark(run)
    labels = list(trace.labels())
    sched = dual_sort_schedule(3)

    art = [f"D_sort(D_3, ascending) on keys = {list(keys)}", ""]
    art.append("--- Figure 5: generate bitonic sequence in D_3 ---")
    last_phase = None
    fig6_start = len(labels) - (2 * 3 - 1)
    for i, lbl in enumerate(labels):
        if i == fig6_start:
            art.append("")
            art.append("--- Figure 6: sort bitonic sequence in D_3 ---")
        state = trace.snapshot(lbl, 32)
        art.append(f"{lbl}:")
        art.append(grid(state, width=16))
    emit("E6_fig56_sort_walkthrough", "\n".join(art))

    # Figure 5's endpoint: one bitonic sequence, halves asc/desc.
    half_merge_end = [l for l in labels if "half-merge D_3" in l][-1]
    state = trace.snapshot(half_merge_end, 32)
    assert list(state[:16]) == sorted(state[:16])
    assert list(state[16:]) == sorted(state[16:], reverse=True)
    assert is_bitonic(state)
    # Figure 6's endpoint: fully sorted.
    assert list(out) == list(range(32))
    # Step count matches 2n^2 - n = 15.
    assert len(sched) == 15


def test_recursion_stage_directions(benchmark):
    """Figure 5's first stage: the four D_2 copies sorted asc/desc/asc/desc."""
    rdc = RecursiveDualCube(3)
    keys = np.random.default_rng(42).permutation(32)

    def run():
        trace = TraceRecorder()
        dual_sort(rdc, keys, trace=trace)
        return trace

    trace = benchmark(run)
    labels = list(trace.labels())
    # The recursive sub-sorts end right before the first half-merge D_3 step.
    first = next(i for i, l in enumerate(labels) if "half-merge D_3" in l)
    state = np.array(trace.snapshot(labels[first - 1], 32))
    for copy in range(4):
        block = list(state[copy * 8 : (copy + 1) * 8])
        expected = sorted(block, reverse=(copy % 2 == 1))
        assert block == expected, copy
