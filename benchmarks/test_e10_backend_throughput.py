"""E10 — future-work item 2: empirical analysis of the simulation itself.

Wall-clock throughput of the two execution backends: the cycle-accurate
SPMD engine (per-message Python generators, used to *validate* step
counts) vs the whole-network array backend (used to *scale*).

Expected shape: both produce identical results and counters; the array
backend is orders of magnitude faster and its advantage grows with
network size — the profile-then-vectorize workflow of the HPC guides
applied to our own simulator.
"""

import numpy as np
import pytest

from repro.core.dual_prefix import dual_prefix
from repro.core.dual_sort import dual_sort
from repro.core.ops import ADD
from repro.topology import DualCube, RecursiveDualCube


@pytest.mark.parametrize("n", [2, 3, 4])
class TestPrefixThroughput:
    def test_engine(self, benchmark, n):
        benchmark.group = f"prefix D_{n}"
        dc = DualCube(n)
        vals = np.arange(dc.num_nodes).astype(object)
        out, _ = benchmark(lambda: dual_prefix(dc, vals, ADD, backend="engine"))
        assert out[-1] == dc.num_nodes * (dc.num_nodes - 1) // 2

    def test_array(self, benchmark, n):
        benchmark.group = f"prefix D_{n}"
        dc = DualCube(n)
        vals = np.arange(dc.num_nodes)
        out = benchmark(lambda: dual_prefix(dc, vals, ADD))
        assert out[-1] == dc.num_nodes * (dc.num_nodes - 1) // 2


@pytest.mark.parametrize("n", [2, 3])
class TestSortThroughput:
    def test_engine(self, benchmark, n):
        benchmark.group = f"sort D_{n}"
        rdc = RecursiveDualCube(n)
        keys = [int(k) for k in np.random.default_rng(n).permutation(rdc.num_nodes)]
        out, _ = benchmark(lambda: dual_sort(rdc, keys, backend="engine"))
        assert out == sorted(keys)

    def test_array(self, benchmark, n):
        benchmark.group = f"sort D_{n}"
        rdc = RecursiveDualCube(n)
        keys = np.random.default_rng(n).permutation(rdc.num_nodes)
        out = benchmark(lambda: dual_sort(rdc, keys))
        assert list(out) == sorted(keys)


class TestArrayScaling:
    """Array backend headroom at sizes the engine cannot reach."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_prefix_large(self, benchmark, n):
        benchmark.group = "array prefix scaling"
        dc = DualCube(n)
        vals = np.random.default_rng(n).integers(0, 1000, dc.num_nodes)
        out = benchmark(lambda: dual_prefix(dc, vals, ADD))
        assert out[-1] == vals.sum()

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_sort_large(self, benchmark, n):
        benchmark.group = "array sort scaling"
        rdc = RecursiveDualCube(n)
        keys = np.random.default_rng(n).permutation(rdc.num_nodes)
        out = benchmark(lambda: dual_sort(rdc, keys))
        assert list(out) == list(range(rdc.num_nodes))
