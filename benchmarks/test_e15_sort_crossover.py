"""E15 — three sorting algorithms on the dual-cube: the crossover.

The reproduction now has three ways to sort on D_n, all cycle-validated:

* `D_sort` (Algorithm 3): bitonic over the recursive presentation,
  6n² - 7n + 2 steps;
* odd-even transposition on the Hamiltonian ring: V = 2^(2n-1) steps;
* the same-size hypercube bitonic (the more-links baseline): 2n² - n.

Expected shape: the systolic ring wins the two smallest networks
(8 < 12 at n = 2, 32 < 35 at n = 3), then loses exponentially — the
textbook argument for logarithmic-depth networks that the paper's
Section 5 takes as given, here regenerated as a measured crossover.
"""

import numpy as np
import pytest

from repro.analysis.complexity import (
    dual_sort_comm_exact,
    hypercube_bitonic_steps,
)
from repro.analysis.tables import format_table
from repro.core.dual_sort import dual_sort
from repro.core.ring_sort import ring_sort, ring_sort_steps
from repro.simulator import CostCounters
from repro.topology import RecursiveDualCube

from benchmarks._util import emit


def crossover_rows():
    rows = []
    for n in range(2, 8):
        rdc = RecursiveDualCube(n)
        v = rdc.num_nodes
        ring = ring_sort_steps(v)
        bitonic = dual_sort_comm_exact(n)
        rows.append(
            (
                n,
                v,
                ring,
                bitonic,
                hypercube_bitonic_steps(2 * n - 1),
                "ring" if ring < bitonic else "D_sort",
            )
        )
    return rows


def test_crossover_table(benchmark):
    rows = benchmark.pedantic(crossover_rows, rounds=1, iterations=1)
    emit(
        "E15_sort_crossover",
        format_table(
            ["n", "nodes", "ring sort steps", "D_sort steps", "Q_(2n-1) steps", "winner"],
            rows,
            title="E15: systolic ring sort vs bitonic D_sort — crossover at n = 4",
        ),
    )
    winners = [r[-1] for r in rows]
    assert winners[0] == winners[1] == "ring"  # n = 2, 3
    assert all(w == "D_sort" for w in winners[2:])  # n >= 4


@pytest.mark.parametrize("n", [2, 3])
def test_both_sorts_cycle_accurate(benchmark, n):
    benchmark.group = f"E15 engine sorts D_{n}"
    rdc = RecursiveDualCube(n)
    keys = [int(k) for k in np.random.default_rng(n).permutation(rdc.num_nodes)]

    def run():
        return ring_sort(rdc, keys, backend="engine")

    out, res = benchmark(run)
    assert out == sorted(keys)
    assert res.comm_steps == ring_sort_steps(rdc.num_nodes)


def test_vectorized_agreement_at_scale(benchmark):
    rdc = RecursiveDualCube(5)
    keys = np.random.default_rng(0).permutation(rdc.num_nodes)

    def run():
        a = ring_sort(rdc, keys)
        c = CostCounters(rdc.num_nodes)
        b = dual_sort(rdc, keys, counters=c)
        return a, b, c

    a, b, c = benchmark.pedantic(run, rounds=1, iterations=1)
    assert list(a) == list(b) == list(range(512))
    assert c.comm_steps == dual_sort_comm_exact(5) < ring_sort_steps(512)
