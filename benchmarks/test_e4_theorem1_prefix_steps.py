"""E4 — Theorem 1: D_prefix runs in at most 2n+1 comm / 2n comp steps.

Measured on the cycle-accurate engine (n <= 4) and via the array
backend's identical counters (n <= 8), against the paper bound and the
same-size hypercube baseline (2n-1 steps).

Expected shape: measured(optimized) = 2n = hypercube + 1;
measured(paper-literal) = 2n+1 = the bound; computation = 2n everywhere;
results equal the serial prefix for every associative operation tried.
"""

import numpy as np
import pytest

from repro.analysis.complexity import (
    hypercube_prefix_steps,
    theorem1_comm_bound,
    theorem1_comp_bound,
)
from repro.analysis.tables import format_table
from repro.core.dual_prefix import dual_prefix
from repro.core.ops import ADD, CONCAT, MAX
from repro.core.verify import check_prefix
from repro.simulator import CostCounters
from repro.topology import DualCube

from benchmarks._util import emit


def measured_row(n: int):
    dc = DualCube(n)
    rng = np.random.default_rng(n)
    vals = rng.integers(0, 100, dc.num_nodes)
    c_opt = CostCounters(dc.num_nodes)
    out = dual_prefix(dc, vals, ADD, counters=c_opt)
    check_prefix(list(vals), out, ADD)
    c_lit = CostCounters(dc.num_nodes)
    dual_prefix(dc, vals, ADD, paper_literal=True, counters=c_lit)
    return (
        n,
        dc.num_nodes,
        c_opt.comm_steps,
        c_lit.comm_steps,
        theorem1_comm_bound(n),
        hypercube_prefix_steps(2 * n - 1),
        c_opt.comp_steps,
        theorem1_comp_bound(n),
    )


def test_theorem1_table(benchmark):
    rows = benchmark.pedantic(
        lambda: [measured_row(n) for n in range(1, 9)], rounds=1, iterations=1
    )
    emit(
        "E4_theorem1_prefix_steps",
        format_table(
            [
                "n",
                "nodes",
                "comm (ours)",
                "comm (literal)",
                "paper bound 2n+1",
                "Q_(2n-1) comm",
                "comp",
                "paper comp 2n",
            ],
            rows,
            title="Theorem 1: D_prefix communication/computation steps",
        ),
    )
    for n, _, comm, lit, bound, hyp, comp, comp_bound in rows:
        assert comm <= bound and lit == bound
        assert comm == hyp + 1  # one extra step vs same-size hypercube
        assert comp == comp_bound


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_engine_validates_vectorized_counts(benchmark, n):
    dc = DualCube(n)
    rng = np.random.default_rng(n)
    vals = rng.integers(0, 100, dc.num_nodes).astype(object)

    def run():
        return dual_prefix(dc, vals, ADD, backend="engine")

    out, res = benchmark(run)
    check_prefix(list(vals), out, ADD)
    assert res.comm_steps == 2 * n
    assert res.comp_steps == 2 * n


@pytest.mark.parametrize("op,maker", [
    (ADD, lambda rng, v: rng.integers(-1000, 1000, v)),
    (MAX, lambda rng, v: rng.integers(-1000, 1000, v)),
    (CONCAT, None),
])
def test_steps_are_operation_independent(benchmark, op, maker):
    """The oblivious schedule costs the same for any associative op."""
    dc = DualCube(3)
    rng = np.random.default_rng(7)
    if maker is None:
        vals = np.empty(32, dtype=object)
        vals[:] = [(int(x),) for x in rng.integers(0, 9, 32)]
    else:
        vals = maker(rng, 32)

    def run():
        c = CostCounters(32)
        out = dual_prefix(dc, vals, op, counters=c)
        return out, c

    out, c = benchmark(run)
    check_prefix(list(vals), out, op)
    assert c.comm_steps == 6
    assert c.comp_steps == 6
