"""E7 — Theorem 2: D_sort runs in at most ~6n² comm / ~2n² comparison steps.

Measured on the cycle-accurate engine (n <= 3) and via the array
backend's identical counters (n <= 7), against the paper bound
6n² - 3n - 2 and the same-size hypercube bitonic baseline n(2n-1).

Expected shape: the hypercube wins every row (it has 2n-1 links per node
vs n); the dual-cube overhead ratio grows monotonically toward — but
never reaches — 3x, the paper's "the overhead for the emulation will be
[3] times of the corresponding hypercube algorithm in the worst-case due
to the lack of edges".  Comparison steps match the hypercube exactly.
"""

import numpy as np
import pytest

from repro.analysis.complexity import (
    hypercube_bitonic_steps,
    theorem2_comm_bound,
    theorem2_comp_bound,
)
from repro.analysis.tables import format_table
from repro.core.bitonic import hypercube_bitonic_sort
from repro.core.dual_sort import dual_sort
from repro.simulator import CostCounters
from repro.topology import RecursiveDualCube

from benchmarks._util import emit


def measured_row(n: int):
    rdc = RecursiveDualCube(n)
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 10**6, rdc.num_nodes)
    c = CostCounters(rdc.num_nodes)
    out = dual_sort(rdc, keys, counters=c)
    assert list(out) == sorted(keys)
    ch = CostCounters(rdc.num_nodes)
    hout = hypercube_bitonic_sort(keys, counters=ch)
    assert list(hout) == sorted(keys)
    return (
        n,
        rdc.num_nodes,
        c.comm_steps,
        theorem2_comm_bound(n),
        ch.comm_steps,
        round(c.comm_steps / ch.comm_steps, 3),
        c.comp_steps,
        theorem2_comp_bound(n),
    )


def test_theorem2_table(benchmark):
    rows = benchmark.pedantic(
        lambda: [measured_row(n) for n in range(1, 8)], rounds=1, iterations=1
    )
    emit(
        "E7_theorem2_sort_steps",
        format_table(
            [
                "n",
                "nodes",
                "comm (measured)",
                "paper bound",
                "Q_(2n-1) comm",
                "ratio",
                "comp",
                "paper comp",
            ],
            rows,
            title="Theorem 2: D_sort communication/comparison steps vs "
            "same-size hypercube bitonic sort",
        ),
    )
    prev_ratio = 0.0
    for n, _, comm, bound, hyp, ratio, comp, comp_bound in rows:
        assert comm <= bound
        assert comp == comp_bound == hyp  # comparisons match the hypercube
        assert hyp <= comm  # the hypercube wins communication everywhere
        assert ratio < 3.0  # paper's 3x worst-case emulation overhead
        assert ratio >= prev_ratio  # crossover shape: ratio climbs toward 3
        prev_ratio = ratio


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("policy", ["packed", "single"])
def test_engine_validates_counts(benchmark, n, policy):
    rdc = RecursiveDualCube(n)
    rng = np.random.default_rng(n)
    keys = [int(k) for k in rng.integers(0, 1000, rdc.num_nodes)]

    def run():
        return dual_sort(rdc, keys, payload_policy=policy, backend="engine")

    out, res = benchmark(run)
    assert out == sorted(keys)
    c = CostCounters(rdc.num_nodes)
    dual_sort(rdc, np.array(keys), counters=c, payload_policy=policy)
    assert res.comm_steps == c.comm_steps
    assert res.counters.messages == c.messages


def test_wallclock_sort_scaling(benchmark):
    """Array-backend D_sort wall time at n = 6 (2048 nodes)."""
    rdc = RecursiveDualCube(6)
    keys = np.random.default_rng(0).permutation(rdc.num_nodes)
    out = benchmark(lambda: dual_sort(rdc, keys))
    assert list(out) == list(range(rdc.num_nodes))
