"""E12 — Section 5's two Batcher networks, and why bitonic fits the cube.

The paper: "Batcher's O(n²)-time bitonic and odd-even merge sorting
algorithms are presently the fastest practical deterministic sorting
algorithms available."  This experiment regenerates the classical
comparison and the structural reason the dual-cube sort is built on
bitonic: every bitonic comparator is a single-bit (dimension) exchange —
directly executable/emulable on cube-like networks — while odd-even
merge's comparators are not.

Expected shape: identical depth q(q+1)/2; odd-even uses strictly fewer
comparators; bitonic is a dimension-exchange network at every width,
odd-even never (width >= 4).
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.core.sorting_networks import (
    apply_network,
    bitonic_sort_network,
    comparator_count,
    is_dimension_exchange_network,
    network_depth,
    odd_even_merge_sort_network,
)

from benchmarks._util import emit


def network_rows():
    rows = []
    for q in range(1, 8):
        w = 1 << q
        bn = bitonic_sort_network(w)
        on = odd_even_merge_sort_network(w)
        rows.append(
            (
                w,
                network_depth(bn),
                comparator_count(bn),
                network_depth(on),
                comparator_count(on),
                "yes" if is_dimension_exchange_network(bn) else "no",
                "yes" if is_dimension_exchange_network(on) else "no",
            )
        )
    return rows


def test_network_comparison_table(benchmark):
    rows = benchmark.pedantic(network_rows, rounds=1, iterations=1)
    emit(
        "E12_sorting_networks",
        format_table(
            [
                "width",
                "bitonic depth",
                "bitonic comps",
                "odd-even depth",
                "odd-even comps",
                "bitonic dim-exch?",
                "odd-even dim-exch?",
            ],
            rows,
            title="Section 5: Batcher's two networks — equal depth, bitonic "
            "maps to cube dimensions",
        ),
    )
    for w, bd, bc, od, oc, b_dim, o_dim in rows:
        assert bd == od  # equal depth
        if w >= 4:
            assert oc < bc  # odd-even is comparator-cheaper
            assert o_dim == "no"
        assert b_dim == "yes"


@pytest.mark.parametrize("kind", ["bitonic", "odd-even"])
def test_network_wallclock(benchmark, kind):
    benchmark.group = "E12 networks width 256"
    w = 256
    net = (
        bitonic_sort_network(w)
        if kind == "bitonic"
        else odd_even_merge_sort_network(w)
    )
    keys = np.random.default_rng(0).permutation(w)
    out = benchmark(lambda: apply_network(keys, net))
    assert list(out) == list(range(w))


def test_bitonic_network_agrees_with_dual_cube_sort(benchmark):
    """End to end: the comparator formulation, the hypercube schedule, and
    the dual-cube emulation all compute the same permutation."""
    from repro.core.dual_sort import dual_sort
    from repro.topology import RecursiveDualCube

    rdc = RecursiveDualCube(3)
    keys = np.random.default_rng(1).integers(0, 10**6, 32)

    def run():
        a = apply_network(keys, bitonic_sort_network(32))
        b = dual_sort(rdc, keys)
        return a, b

    a, b = benchmark(run)
    assert list(a) == list(b) == sorted(keys)
