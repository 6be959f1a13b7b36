"""A1 — ablation: the reconstructed step 5 of Algorithm 2.

DESIGN.md's reconstruction note: the paper spends a third cross-edge
exchange in step 5 (giving Theorem 1's 2n+1), but the value class-1 nodes
need is already held locally as their own t' from step 3.  This ablation
runs both schedules and shows identical outputs with the literal variant
paying exactly one extra communication step at every n.
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.core.dual_prefix import dual_prefix
from repro.core.ops import ADD, CONCAT
from repro.simulator import CostCounters
from repro.topology import DualCube

from benchmarks._util import emit


def ablation_rows():
    rows = []
    for n in range(1, 9):
        dc = DualCube(n)
        rng = np.random.default_rng(n)
        vals = rng.integers(0, 1000, dc.num_nodes)
        c_opt = CostCounters(dc.num_nodes)
        out_opt = dual_prefix(dc, vals, ADD, counters=c_opt)
        c_lit = CostCounters(dc.num_nodes)
        out_lit = dual_prefix(dc, vals, ADD, paper_literal=True, counters=c_lit)
        identical = list(out_opt) == list(out_lit)
        rows.append(
            (
                n,
                c_opt.comm_steps,
                c_lit.comm_steps,
                c_lit.comm_steps - c_opt.comm_steps,
                c_opt.messages,
                c_lit.messages,
                "yes" if identical else "NO",
            )
        )
    return rows


def test_step5_ablation_table(benchmark):
    rows = benchmark.pedantic(ablation_rows, rounds=1, iterations=1)
    emit(
        "A1_prefix_step5_ablation",
        format_table(
            [
                "n",
                "comm (optimized)",
                "comm (paper literal)",
                "extra steps",
                "msgs (opt)",
                "msgs (lit)",
                "outputs identical",
            ],
            rows,
            title="A1: Algorithm 2 step-5 reconstruction — the literal cross "
            "exchange is redundant",
        ),
    )
    for n, opt, lit, extra, m_opt, m_lit, ident in rows:
        assert extra == 1
        assert ident == "yes"
        assert m_lit - m_opt == 2 ** (2 * n - 1)  # one message per node


@pytest.mark.parametrize("paper_literal", [False, True])
def test_engine_wallclock_both_variants(benchmark, paper_literal):
    benchmark.group = "A1 engine variants"
    dc = DualCube(3)
    vals = np.empty(32, dtype=object)
    vals[:] = [(k,) for k in range(32)]

    def run():
        return dual_prefix(dc, vals, CONCAT, paper_literal=paper_literal, backend="engine")

    out, res = benchmark(run)
    assert out[-1] == tuple(range(32))
    assert res.comm_steps == 6 + (1 if paper_literal else 0)
