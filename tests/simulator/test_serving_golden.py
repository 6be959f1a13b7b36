"""Golden :class:`ServingStats` fingerprints on D_3.

``run_serving`` skips the fault-plan queries a plan cannot answer "yes"
to, hands departures their link queue directly and derives
``link_loads`` from the per-direction ``served`` counts.  Those shortcuts
are only sound if every output stays the same bit for bit, so this module
pins every field of the stats — counters, percentiles, ``link_loads``,
``occupancy`` and ``checkpoints`` — over a matrix that makes every fault
class fire:

* routers: the closed-form ``route`` and the generic ``bfs_router``;
* plans: none, drop-only (rate plus an explicit trigger), delay-only
  (rate plus an explicit delay), and crash + cut + downtime + drop;
* policies: ``drop`` with ``queue_capacity=2`` and ``block`` with
  ``queue_capacity=1`` under a horizon, both with a deadline and
  checkpoints.

The fingerprints in ``serving_golden.json`` were recorded before the
fast path existed.  Regenerate them only when serving semantics change
on purpose::

    PYTHONPATH=src python tests/simulator/test_serving_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.routing import route
from repro.simulator import FaultPlan
from repro.simulator.serving import (
    ServingConfig,
    bfs_router,
    open_loop_pairs,
    poisson_arrivals,
    run_serving,
)
from repro.topology import DualCube

GOLDEN = Path(__file__).with_name("serving_golden.json")

_DC = DualCube(3)
_NUM = 480
_ARRIVALS = poisson_arrivals(0.5 * _DC.num_nodes, _NUM, seed=3)
_PAIRS = open_loop_pairs(_DC, _NUM, seed=3)
_PAIRS[5] = (7, 7)  # self pairs finish on arrival
_PAIRS[200] = (30, 30)

# Request 0 arrives first and its first hop is the first service to
# complete, so these explicit triggers are known to fire.
_FIRST_HOP = tuple(route(_DC, *_PAIRS[0])[:2])
_FIRST_ISSUE = (_PAIRS[0][0], int(_ARRIVALS[0]) + 1)

ROUTERS = {
    "route": lambda: (lambda u, v: route(_DC, u, v)),
    "bfs": lambda: bfs_router(_DC),
}

PLANS = {
    "none": lambda: None,
    "drop": lambda: FaultPlan(
        drop_rate=0.08, drops=[(*_FIRST_HOP, 1)], seed=3, max_retries=3
    ),
    "delay": lambda: FaultPlan(
        delay_rate=0.15, max_delay=3, delays={_FIRST_ISSUE: 2}, seed=5
    ),
    "mixed": lambda: FaultPlan(
        node_crashes={5: 12},
        link_cuts={(0, 1): 6},
        downtimes=[(9, 4, 14), (20, 10, 22)],
        drop_rate=0.05,
        seed=11,
        max_retries=4,
    ),
}

CONFIGS = {
    "drop-cap2": ServingConfig(
        queue_capacity=2, policy="drop", deadline=6.0, checkpoint_every=4.0
    ),
    "block-cap1": ServingConfig(
        queue_capacity=1,
        policy="block",
        deadline=6.0,
        horizon=24.0,
        checkpoint_every=4.0,
    ),
}

CASES = [
    f"{r}-{p}-{c}" for r in ROUTERS for p in PLANS for c in CONFIGS
]


def _run(case: str):
    r, p, c = case.split("-", 2)
    return run_serving(
        _DC,
        ROUTERS[r](),
        _ARRIVALS,
        _PAIRS,
        config=CONFIGS[c],
        fault_plan=PLANS[p](),
    )


def fingerprint(stats) -> dict:
    """Every field of ``stats`` as JSON-ready data, dicts in key order.

    Floats survive a JSON round trip exactly (``repr`` is shortest
    round-trip), so comparing loaded fingerprints is a bitwise compare.
    """
    scalars = {
        name: getattr(stats, name)
        for name in (
            "topology", "policy", "arrivals", "completions", "drops",
            "deadline_misses", "in_flight", "elapsed", "p50", "p99", "p999",
            "mean_sojourn", "max_sojourn", "goodput", "hops_served",
            "path_hops", "retransmissions", "blocked_retries",
        )
    }
    scalars["link_loads"] = [
        [a, b, load] for (a, b), load in sorted(stats.link_loads.items())
    ]
    scalars["occupancy"] = [
        [a, b, o.utilization, o.mean_queue, o.max_queue, o.served]
        for (a, b), o in sorted(stats.occupancy.items())
    ]
    scalars["checkpoints"] = [
        [c.time, c.arrivals, c.completions, c.drops, c.deadline_misses,
         c.in_flight]
        for c in stats.checkpoints
    ]
    return scalars


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_the_matrix():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_serving_stats_match_golden(case):
    got = json.loads(json.dumps(fingerprint(_run(case))))
    want = _load()[case]
    for key in want:
        assert got[key] == want[key], f"{case}: {key} differs"
    assert got == want


def test_every_fault_class_fires():
    """The matrix is only a proof if each plan actually disturbs the run."""
    golden = _load()
    for c in CONFIGS:
        base = golden[f"route-none-{c}"]
        drop = golden[f"route-drop-{c}"]
        delay = golden[f"route-delay-{c}"]
        mixed = golden[f"route-mixed-{c}"]
        assert base["retransmissions"] == 0
        assert drop["retransmissions"] > 0
        assert delay["retransmissions"] == 0 and delay["p50"] > base["p50"]
        assert mixed["retransmissions"] > 0
        assert mixed["drops"] > base["drops"]
    assert golden["route-none-drop-cap2"]["drops"] > 0  # full buffers
    assert golden["route-none-block-cap1"]["blocked_retries"] > 0


def _write() -> None:
    data = {case: fingerprint(_run(case)) for case in CASES}
    with open(GOLDEN, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f"{json.dumps(case)}: {json.dumps(fp, separators=(',', ':'))}"
            for case, fp in data.items()
        ))
        fh.write("\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_serving_golden.py --write")
    _write()
