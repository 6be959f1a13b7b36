"""Golden :class:`ServingStats` and serving-timeline fingerprints on D_3.

``run_serving`` skips the fault-plan queries a plan cannot answer "yes"
to, streams arrivals past its event heap, resolves each request's link
queues once and derives ``link_loads`` from the per-direction ``served``
counts.  Those shortcuts are only sound if every output stays the same
bit for bit, so this module pins every field of the stats — counters,
percentiles, ``link_loads``, ``occupancy`` and ``checkpoints`` — and the
:class:`~repro.obs.timeline.TimelineRecorder` a run fills (its message
events, fault events and cycle count) over two matrices.

The fault matrix makes every fault class fire:

* routers: the closed-form ``route`` and the generic ``bfs_router``;
* plans: none, drop-only (rate plus an explicit trigger), delay-only
  (rate plus an explicit delay), and crash + cut + downtime + drop;
* policies: ``drop`` with ``queue_capacity=2`` and ``block`` with
  ``queue_capacity=1`` under a horizon, both with a deadline and
  checkpoints.

The tie matrix pins the same-instant order (departures, then arrivals in
array order, then retry-injections, then creation order; see
``docs/model.md``, "Serving semantics").  Its arrivals are whole numbers,
16 requests per instant, so with ``service_time`` 1.0 (and 0.5) arrivals
land on the instants where departures and blocked re-injections fall:

* service times 1.0 and 0.5;
* plans: none, and the mixed plan plus a delay rate;
* policies: ``block`` with ``queue_capacity=1`` under a horizon that
  cuts the arrival stream, and ``drop`` with ``queue_capacity=0``.

Each case has two entries in ``serving_golden.json``: ``<case>`` holds
the stats and ``<case>/timeline`` the timeline.  ``--write`` only
appends the entries the file lacks; it never rewrites a recorded one.
To change a fingerprint on purpose, delete its entry by hand, say why in
CHANGES.md, and run::

    PYTHONPATH=src python tests/simulator/test_serving_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import TimelineRecorder
from repro.routing import route
from repro.simulator import FaultPlan
from repro.simulator.serving import (
    ServingConfig,
    bfs_router,
    deterministic_arrivals,
    open_loop_pairs,
    poisson_arrivals,
    run_serving,
)
from repro.topology import DualCube

GOLDEN = Path(__file__).with_name("serving_golden.json")

_DC = DualCube(3)
_NUM = 480
_ARRIVALS = poisson_arrivals(0.5 * _DC.num_nodes, _NUM, seed=3)
# 16 requests per whole-number instant, 0 through 29.
_TIED_ARRIVALS = np.floor(deterministic_arrivals(0.5 * _DC.num_nodes, _NUM))
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

_MIXED = dict(
    node_crashes={5: 12},
    link_cuts={(0, 1): 6},
    downtimes=[(9, 4, 14), (20, 10, 22)],
    drop_rate=0.05,
    seed=11,
    max_retries=4,
)

PLANS = {
    "none": lambda: None,
    "drop": lambda: FaultPlan(
        drop_rate=0.08, drops=[(*_FIRST_HOP, 1)], seed=3, max_retries=3
    ),
    "delay": lambda: FaultPlan(
        delay_rate=0.15, max_delay=3, delays={_FIRST_ISSUE: 2}, seed=5
    ),
    "mixed": lambda: FaultPlan(**_MIXED),
    "mixed+delay": lambda: FaultPlan(**_MIXED, delay_rate=0.2, max_delay=2),
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
    "drop-cap0": ServingConfig(
        queue_capacity=0, policy="drop", deadline=6.0, checkpoint_every=4.0
    ),
}

# case -> (router, arrivals, plan, config): the fault matrix first, then
# the tie matrix, named by its service time.
CASES = {
    f"{r}-{p}-{c}": (r, _ARRIVALS, p, CONFIGS[c])
    for r in ROUTERS
    for p in ("none", "drop", "delay", "mixed")
    for c in ("drop-cap2", "block-cap1")
}
CASES.update(
    (
        f"tie{service}-{p}-{c}",
        (
            "route",
            _TIED_ARRIVALS,
            p,
            dataclasses.replace(CONFIGS[c], service_time=service),
        ),
    )
    for service in (1.0, 0.5)
    for p in ("none", "mixed+delay")
    for c in ("block-cap1", "drop-cap0")
)


def _run(case: str, *, timeline=None, pairs=_PAIRS):
    r, arrivals, p, config = CASES[case]
    return run_serving(
        _DC,
        ROUTERS[r](),
        arrivals,
        pairs,
        config=config,
        fault_plan=PLANS[p](),
        timeline=timeline,
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


def _digest(rows: list) -> str:
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def timeline_fingerprint(recorder: TimelineRecorder) -> dict:
    """Counts plus order-sensitive digests of a serving timeline.

    The digests cover every field of every event in recording order, so
    a reordered, moved or relabelled event changes them; the counts say
    roughly what changed when one does.
    """
    events = [[e.cycle, e.src, e.dst, e.size, e.kind] for e in recorder.events]
    faults = [[f.cycle, f.kind, f.rank, f.src, f.dst] for f in recorder.faults]
    return {
        "num_cycles": recorder.num_cycles,
        "events": len(events),
        "fault_counts": dict(sorted(recorder.fault_counts().items())),
        "events_sha256": _digest(events),
        "faults_sha256": _digest(faults),
    }


def _timeline_key(case: str) -> str:
    return f"{case}/timeline"


def _recorded(case: str) -> tuple[dict, dict]:
    recorder = TimelineRecorder(num_nodes=_DC.num_nodes)
    stats = _run(case, timeline=recorder)
    return fingerprint(stats), timeline_fingerprint(recorder)


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def _keys() -> list[str]:
    return [key for case in CASES for key in (case, _timeline_key(case))]


def _roundtrip(fp: dict) -> dict:
    return json.loads(json.dumps(fp))


def test_golden_covers_the_matrix():
    assert sorted(_load()) == sorted(_keys())


@pytest.mark.parametrize("case", list(CASES))
def test_serving_stats_match_golden(case):
    got = _roundtrip(fingerprint(_run(case)))
    want = _load()[case]
    for key in want:
        assert got[key] == want[key], f"{case}: {key} differs"
    assert got == want


@pytest.mark.parametrize("case", list(CASES))
def test_serving_timeline_matches_golden(case):
    """A recorder sees the golden timeline and leaves the stats alone."""
    stats, timeline = map(_roundtrip, _recorded(case))
    golden = _load()
    assert stats == golden[case], f"{case}: stats differ under a timeline"
    want = golden[_timeline_key(case)]
    for key in want:
        assert timeline[key] == want[key], f"{case}: timeline {key} differs"
    assert timeline == want


def test_every_fault_class_fires():
    """The matrix is only a proof if each plan actually disturbs the run."""
    golden = _load()
    for c in ("drop-cap2", "block-cap1"):
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
    for service in (1.0, 0.5):
        block = golden[f"tie{service}-none-block-cap1"]
        assert block["blocked_retries"] > 0
        assert block["arrivals"] < _NUM  # the horizon cut the stream
        assert golden[f"tie{service}-none-drop-cap0"]["drops"] > 0
        for c in ("block-cap1", "drop-cap0"):
            faulty = golden[f"tie{service}-mixed+delay-{c}"]
            assert faulty["retransmissions"] > 0
            timeline = golden[_timeline_key(f"tie{service}-mixed+delay-{c}")]
            assert timeline["fault_counts"]["drop"] > faulty["drops"]


@pytest.mark.parametrize("case", ["tie1.0-none-drop-cap0",
                                  "tie0.5-none-block-cap1"])
def test_tie_cases_pin_same_instant_order(case):
    """Swapping two requests that arrive at one instant changes the run.

    So the tie goldens pin the order in which simultaneous arrivals are
    offered, not just what they add up to.
    """
    pairs = list(_PAIRS)
    first = int(np.flatnonzero(_TIED_ARRIVALS == _TIED_ARRIVALS[0])[-1])
    pairs[0], pairs[first] = pairs[first], pairs[0]
    recorder = TimelineRecorder(num_nodes=_DC.num_nodes)
    _run(case, timeline=recorder, pairs=pairs)
    swapped = _roundtrip(timeline_fingerprint(recorder))
    assert swapped != _load()[_timeline_key(case)]


def _write() -> None:
    """Append the entries ``serving_golden.json`` lacks; keep the rest.

    Recorded entries are never rewritten: the file's text up to its
    closing brace is kept byte for byte and the new entries go after it.
    """
    have = _load() if GOLDEN.exists() else {}
    lines = []
    for case in CASES:
        missing = [k for k in (case, _timeline_key(case)) if k not in have]
        if not missing:
            continue
        stats, timeline = _recorded(case)
        for key in missing:
            fp = stats if key == case else timeline
            lines.append(
                f"{json.dumps(key)}: {json.dumps(fp, separators=(',', ':'))}"
            )
    if not lines:
        return
    body = GOLDEN.read_text().rstrip() if GOLDEN.exists() else "{}"
    if not body.endswith("}"):
        sys.exit(f"{GOLDEN}: does not end with '}}'; fix it by hand")
    body = body[:-1].rstrip().rstrip(",")
    sep = "\n" if body == "{" else ",\n"
    GOLDEN.write_text(body + sep + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_serving_golden.py --write")
    _write()
