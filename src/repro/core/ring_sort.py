"""Odd-even transposition sort on the Hamiltonian ring.

A third sorting algorithm for the dual-cube, enabled by the dilation-1
ring embedding: treat ring positions as a linear array and run odd-even
transposition — V phases of disjoint neighbor compare-exchanges, each a
single real link.

Cost: exactly V = 2^(2n-1) communication steps and V comparison rounds.
Versus `D_sort`'s 6n²-7n+2 steps this loses badly asymptotically
(exponential vs quadratic in n) but *wins at n = 2* (8 < 12) — the
crossover experiment E15 regenerates, a textbook illustration of why the
paper builds logarithmic-depth networks instead of systolic ones.

Keys end sorted by *ring position*; :func:`ring_sort` reports them in
ring order, and the node-order view is available through the cycle.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import dispatch
from repro.simulator import CostCounters, Idle, SendRecv, run_spmd
from repro.topology.hamiltonian import hamiltonian_cycle
from repro.topology.recursive import RecursiveDualCube

__all__ = [
    "ring_sort",
    "ring_sort_program",
    "ring_sort_steps",
]


def ring_sort_steps(num_nodes: int) -> int:
    """Closed-form communication steps: V phases."""
    return num_nodes


def ring_sort(
    rdc: RecursiveDualCube,
    keys,
    *,
    backend: str = "replay",
    counters: CostCounters | None = None,
):
    """Odd-even transposition over the ring positions of ``rdc``.

    ``keys[u]`` is node ``u``'s key; the result is the sorted sequence in
    ring order (position 0 smallest).  ``backend="replay"`` (the default)
    returns an array and takes ``counters``; ``backend="engine"`` runs
    the cycle-accurate simulator and returns ``(keys, EngineResult)``.
    """
    return dispatch("ring_sort", backend, rdc, keys, counters=counters)


def _ring_sort_replay(rdc: RecursiveDualCube, keys, *, counters):
    v = rdc.num_nodes
    cycle = np.array(hamiltonian_cycle(rdc.n))
    line = keys[cycle]  # keys laid out by ring position
    for phase in range(v):
        start = phase % 2
        # Compare positions (start, start+1), (start+2, start+3), ...
        lo = line[start : v - 1 : 2]
        hi = line[start + 1 : v : 2]
        swap = hi < lo
        new_lo = np.where(swap, hi, lo)
        new_hi = np.where(swap, lo, hi)
        line[start : v - 1 : 2] = new_lo
        line[start + 1 : v : 2] = new_hi
        if counters is not None:
            pairs = len(lo)
            counters.record_comm_step(messages=2 * pairs)
            # Odd phases leave both ends of the ring idle.
            if start == 0:
                counters.record_comp_step(ops_each=1)
            elif pairs:
                counters.record_comp_step(ops_each=1, ranks=cycle[1:-1])
    return line


def ring_sort_program(
    rdc: RecursiveDualCube,
    keys,
):
    """The SPMD program realizing odd-even transposition on the ring.

    This is the exact program the engine backend of :func:`ring_sort`
    runs; it is exposed so the static schedule analyzer
    (:mod:`repro.analysis.static`) can extract its communication schedule
    without an engine run.
    """
    vals = list(keys)
    v = rdc.num_nodes
    if len(vals) != v:
        raise ValueError(f"expected {v} keys for {rdc.name}, got {len(vals)}")
    cycle = hamiltonian_cycle(rdc.n)
    pos_of = {node: k for k, node in enumerate(cycle)}

    def program(ctx):
        u = ctx.rank
        pos = pos_of[u]
        key = vals[u]
        for phase in range(v):
            if pos % 2 == phase % 2 and pos + 1 < v:
                partner = cycle[pos + 1]
                got = yield SendRecv(partner, key)
                ctx.compute(1)
                key = min(key, got)
            elif pos % 2 != phase % 2 and pos > 0:
                partner = cycle[pos - 1]
                got = yield SendRecv(partner, key)
                ctx.compute(1)
                key = max(key, got)
            else:
                yield Idle()
        return key

    return program


def _ring_sort_engine(rdc: RecursiveDualCube, keys):
    program = ring_sort_program(rdc, keys)
    cycle = hamiltonian_cycle(rdc.n)
    result = run_spmd(rdc, program)
    return [result.returns[u] for u in cycle], result
