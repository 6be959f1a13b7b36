"""E3 — Figure 3: the prefix-sum walkthrough on D_3, panels (a)-(f).

The paper's example input digits were lost to OCR; the reproduction uses
c = [1..32] (documented substitution — D_prefix is oblivious, so the
communication schedule is identical for any input and the prefix sums
1, 3, 6, 10, … are visually checkable).  Each panel prints the per-node
state laid out cluster by cluster, exactly the quantity the paper's
figure annotates.
"""

import numpy as np
import pytest

from repro import ADD, DualCube, TraceRecorder
from repro.core.dual_prefix import dual_prefix

from benchmarks._util import emit

PANELS = [
    ("(a) input", "Original data distribution (arranged: c[u*] at node u)"),
    ("(b) cluster prefix s", "Prefix inside cluster (s)"),
    ("(b) cluster total t", "Prefix inside cluster (t = cluster total)"),
    ("(c) cross total temp", "Exchange t via cross-edge"),
    ("(d) block-prefix s'", "Prefix inside cluster over received totals (s')"),
    ("(d) half total t'", "Half totals (t')"),
    ("(e) after s' fold", "Get s' and prefix one time"),
    ("(f) final prefix", "Final result (class 1 adds t')"),
]


def render_panel(dc: DualCube, values) -> str:
    lines = []
    for cls in (0, 1):
        row = []
        for k in range(dc.clusters_per_class):
            members = dc.cluster_members(cls, k)
            row.append(",".join(f"{values[u]:>3}" for u in members))
        lines.append(f"  class {cls}:  " + "   ".join(row))
    return "\n".join(lines)


def test_figure3_panels(benchmark):
    dc = DualCube(3)
    values = np.arange(1, 33)

    def run():
        trace = TraceRecorder()
        out = dual_prefix(dc, values, ADD, trace=trace)
        return out, trace

    out, trace = benchmark(run)

    art = [f"Prefix_sum([1..32]) on {dc.name} — Figure 3 panels"]
    for label, caption in PANELS:
        art.append(f"\n{label}  {caption}")
        art.append(render_panel(dc, trace.snapshot(label, 32)))
    emit("E3_fig3_prefix_walkthrough", "\n".join(art))

    # Paper-checkable values: triangular numbers.
    assert list(out) == [k * (k + 1) // 2 for k in range(1, 33)]
    # Panel (f) is the prefix in arranged positions.
    final = trace.snapshot("(f) final prefix", 32)
    from repro.core.arrangement import arranged_index

    for u in dc.nodes():
        assert final[u] == out[arranged_index(dc, u)]


def test_figure3_under_engine_matches(benchmark):
    """The cycle-accurate engine reproduces the identical panel states."""
    from repro.core.dual_prefix import dual_prefix

    dc = DualCube(3)
    values = np.arange(1, 33).astype(object)

    def run():
        trace = TraceRecorder()
        out, res = dual_prefix(dc, values, ADD, trace=trace, backend="engine")
        return out, res, trace

    out, res, trace = benchmark(run)
    vec_trace = TraceRecorder()
    dual_prefix(dc, np.arange(1, 33), ADD, trace=vec_trace)
    for label, _ in PANELS:
        assert trace.snapshot(label, 32) == vec_trace.snapshot(label, 32), label
    assert res.comm_steps == 6  # 2n for n = 3
