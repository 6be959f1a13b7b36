"""Golden cost ledgers of the array backend and the emulation executors.

The paper's results are counter claims, so the ledger a call charges —
``summary()``, the per-rank computation call/op arrays, ``sends`` /
``recvs`` and the step records of an attached timeline — is pinned here
exactly over every plan the plan validation covers:

* `D_prefix` on D_1..D_5, inclusive and exclusive, with and without the
  paper-literal redundant exchange;
* `D_sort` on D_1..D_5, ascending and descending, packed and single
  payloads;
* Batcher's network on Q_1..Q_9, both directions;
* `Cube_prefix` on Q_1..Q_5, inclusive and exclusive, and the dual-cube
  allreduce on D_1..D_4;
* the blocked ``large_prefix`` / ``large_sort`` with blocks 1, 2, 3 and 8
  on D_2 and D_3;
* the emulated `Cube_prefix` on a recursive dual-cube and a hypercube;
* one :class:`CostCounters` reused across a prefix and a sort call.

The ledgers in ``golden_ledgers.json`` were recorded while every
computation round still added into the per-rank arrays step by step.
Regenerate them only when a schedule changes on purpose::

    PYTHONPATH=src python tests/core/test_golden_ledgers.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ADD,
    cube_prefix,
    dual_prefix,
    dual_sort,
    emulated_cube_prefix,
    hypercube_bitonic_sort,
)
from repro.core.large_inputs import large_prefix, large_sort
from repro.obs import TimelineRecorder
from repro.routing import allreduce
from repro.simulator import CostCounters
from repro.topology import DualCube, Hypercube, RecursiveDualCube

GOLDEN = Path(__file__).with_name("golden_ledgers.json")


def _prefix(n, inclusive, literal):
    dc = DualCube(n)
    return dc.num_nodes, lambda c: dual_prefix(
        dc, np.arange(dc.num_nodes), ADD, inclusive=inclusive,
        paper_literal=literal, counters=c)


def _sort(n, descending, policy):
    rdc = RecursiveDualCube(n)
    return rdc.num_nodes, lambda c: dual_sort(
        rdc, np.arange(rdc.num_nodes)[::-1], descending=descending,
        payload_policy=policy, counters=c)


def _bitonic(q, descending):
    return 1 << q, lambda c: hypercube_bitonic_sort(
        np.arange(1 << q)[::-1], descending=descending, counters=c)


def _cube_prefix(q, inclusive):
    return 1 << q, lambda c: cube_prefix(
        np.arange(1 << q), ADD, inclusive=inclusive, counters=c)


def _allreduce(n):
    dc = DualCube(n)
    return dc.num_nodes, lambda c: allreduce(
        dc, np.arange(dc.num_nodes), ADD, counters=c)


def _large_prefix(n, b):
    dc = DualCube(n)
    return dc.num_nodes, lambda c: large_prefix(
        dc, np.arange(b * dc.num_nodes), ADD, counters=c)


def _large_sort(n, b, policy):
    rdc = RecursiveDualCube(n)
    return rdc.num_nodes, lambda c: large_sort(
        rdc, np.arange(b * rdc.num_nodes)[::-1], payload_policy=policy,
        counters=c)


def _emulated_prefix(topo):
    return topo.num_nodes, lambda c: emulated_cube_prefix(
        topo, np.arange(topo.num_nodes), ADD, counters=c)


def _reused(n):
    dc, rdc = DualCube(n), RecursiveDualCube(n)

    def run(c):
        dual_prefix(dc, np.arange(dc.num_nodes), ADD, counters=c)
        dual_sort(rdc, np.arange(rdc.num_nodes)[::-1], counters=c)

    return dc.num_nodes, run


CASES = {}
for _n in range(1, 6):
    for _inc in (True, False):
        for _lit in (False, True):
            CASES[f"prefix-D{_n}-{'incl' if _inc else 'excl'}"
                  f"-{'literal' if _lit else 'plain'}"] = (
                _prefix, (_n, _inc, _lit))
    for _desc in (False, True):
        for _pol in ("packed", "single"):
            CASES[f"sort-D{_n}-{'desc' if _desc else 'asc'}-{_pol}"] = (
                _sort, (_n, _desc, _pol))
for _q in range(1, 10):
    for _desc in (False, True):
        CASES[f"bitonic-Q{_q}-{'desc' if _desc else 'asc'}"] = (
            _bitonic, (_q, _desc))
for _q in range(1, 6):
    for _inc in (True, False):
        CASES[f"cube_prefix-Q{_q}-{'incl' if _inc else 'excl'}"] = (
            _cube_prefix, (_q, _inc))
for _n in range(1, 5):
    CASES[f"allreduce-D{_n}"] = (_allreduce, (_n,))
for _n in (2, 3):
    for _b in (1, 2, 3, 8):
        CASES[f"large_prefix-D{_n}-B{_b}"] = (_large_prefix, (_n, _b))
        for _pol in ("packed", "single"):
            CASES[f"large_sort-D{_n}-B{_b}-{_pol}"] = (
                _large_sort, (_n, _b, _pol))
for _name, _topo in (("RD1", RecursiveDualCube(1)),
                     ("RD3", RecursiveDualCube(3)), ("Q3", Hypercube(3))):
    CASES[f"emulated_prefix-{_name}"] = (_emulated_prefix, (_topo,))
CASES["reused-D3"] = (_reused, (3,))


def _runs(arr) -> list:
    """Run-length encoding ``[[value, count], ...]`` of a per-rank array."""
    out: list = []
    for v in np.asarray(arr).tolist():
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


def ledger(case: str) -> dict:
    """Run ``case`` with a timeline attached; every ledger field as JSON
    data."""
    make, args = CASES[case]
    num_nodes, run = make(*args)
    c = CostCounters(num_nodes)
    tl = TimelineRecorder(num_nodes=num_nodes)
    c.attach_timeline(tl)
    run(c)
    return {
        "summary": c.summary(),
        "comp_calls": _runs(c.comp_calls),
        "comp_ops": _runs(c.comp_ops),
        "sends": _runs(c.sends),
        "recvs": _runs(c.recvs),
        "steps": [[s.step, s.kind, s.messages, s.payload_items,
                   s.max_payload, s.ops_each] for s in tl.steps],
    }


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_the_matrix():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_ledger_matches_golden(case):
    got = ledger(case)
    want = _load()[case]
    for key in want:
        assert got[key] == want[key], f"{case}: {key} differs"
    assert got == want


def _write() -> None:
    with open(GOLDEN, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f"{json.dumps(case)}: "
            f"{json.dumps(ledger(case), separators=(',', ':'))}"
            for case in CASES
        ))
        fh.write("\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_ledgers.py --write")
    _write()
