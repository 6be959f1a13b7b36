"""Counter fingerprints of fixed seeded workloads, compared exactly.

The paper's claims are step and message counts, and every cost counter
is a deterministic function of the algorithm and its seeded input.  Each
``(bench, backend, n)`` record here reruns one workload and compares its
eight exact fields (``comm_steps`` ... ``timeouts``) with
``counter_fingerprints.json``:

* ``D_prefix`` and ``D_sort`` on the array backend and the engine, the
  blocked ``large_prefix`` / ``large_sort`` (8 keys per node) and random
  traffic, on D_2 and D_3;
* the fault scenarios on D_3: one node fault and one link fault
  (degraded mode), a seeded 5% drop plan with retry, and random traffic
  under the same drop plan;
* the array backend on D_9, and one sharded ``D_prefix`` on D_3;
* open-loop serving on D_2: Poisson, bursty with a deadline, a one-slot
  buffer under overload, and the drop plan on live queues;
* one SLO fault campaign on D_2.

Workloads without a lockstep ledger map their statistics onto the same
eight fields; the mappings are spelled out where each record is built.
The golden values were copied from earlier committed baselines, not
recorded by running this module, and there is no ``--write`` mode: a
fingerprint changes only by hand, with the reason in CHANGES.md.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.dual_prefix import dual_prefix
from repro.core.dual_sort import dual_sort
from repro.core.large_inputs import large_prefix, large_sort
from repro.core.ops import ADD
from repro.core.run_faulty import run_faulty
from repro.routing.dualcube_routing import route
from repro.simulator import CostCounters, FaultPlan
from repro.simulator.campaign import run_campaign
from repro.simulator.serving import (
    ServingConfig,
    onoff_arrivals,
    open_loop_pairs,
    poisson_arrivals,
    run_serving,
)
from repro.simulator.traffic import random_pairs, run_traffic
from repro.topology import DualCube, FaultSet, RecursiveDualCube

GOLDEN = Path(__file__).with_name("counter_fingerprints.json")

FIELDS = (
    "comm_steps",
    "comp_steps",
    "messages",
    "payload_items",
    "max_message_payload",
    "messages_dropped",
    "retries",
    "timeouts",
)

BLOCK = 8  # keys per node of the blocked variants
PAIRS_PER_NODE = 4  # random-traffic pairs per node
REQUESTS_PER_NODE = 20  # open-loop serving requests per node
SERVE_RATE = 0.3  # per-node Poisson arrival rate
DROP_PLAN = dict(drop_rate=0.05, seed=7, max_retries=200)


def _fields(c: CostCounters) -> dict:
    s = c.summary()
    return {f: s[f] for f in FIELDS}


def _counted(num_nodes: int, run) -> dict:
    c = CostCounters(num_nodes)
    run(c)
    return _fields(c)


def _mapped(**values) -> dict:
    """A record of a workload without a lockstep ledger; unnamed fields
    are 0."""
    return {f: values.get(f, 0) for f in FIELDS}


def _traffic(dc, pairs, plan=None) -> dict:
    # messages = physical link crossings (attempts included),
    # payload_items = logical hops, retries = messages_dropped =
    # retransmissions; single-key payloads.
    stats = run_traffic(dc, lambda u, v: route(dc, u, v), pairs,
                        fault_plan=plan)
    return _mapped(messages=stats.total_hops, payload_items=stats.path_hops,
                   max_message_payload=1, retries=stats.retransmissions,
                   messages_dropped=stats.retransmissions)


def _core(n: int) -> dict:
    """D_n prefix and sort on both backends, the blocked variants and
    random traffic, drawing their inputs from one stream in this order."""
    rng = np.random.default_rng(n)
    dc, rdc = DualCube(n), RecursiveDualCube(n)
    size = dc.num_nodes
    out = {}
    vals = rng.integers(0, 1000, size)
    out["dual_prefix", "replay", n] = _counted(
        size, lambda c: dual_prefix(dc, vals, ADD, counters=c))
    _, res = dual_prefix(dc, rng.integers(0, 1000, size), ADD, backend="engine")
    out["dual_prefix", "engine", n] = _fields(res.counters)
    keys = rng.permutation(size)
    out["dual_sort", "replay", n] = _counted(
        size, lambda c: dual_sort(rdc, keys, counters=c))
    _, res = dual_sort(rdc, rng.permutation(size), backend="engine")
    out["dual_sort", "engine", n] = _fields(res.counters)
    vals = rng.integers(0, 1000, BLOCK * size)
    out[f"large_prefix_b{BLOCK}", "replay", n] = _counted(
        size, lambda c: large_prefix(dc, vals, ADD, counters=c))
    keys = rng.permutation(BLOCK * size)
    out[f"large_sort_b{BLOCK}", "replay", n] = _counted(
        size, lambda c: large_sort(rdc, keys, counters=c))
    out["run_traffic", "router", n] = _traffic(
        dc, random_pairs(size, PAIRS_PER_NODE * size, rng))
    return out


def _faults(n: int = 3) -> dict:
    """`run_faulty` prefix and sort under a node fault, a link fault and
    the seeded drop plan, then random traffic under the drop plan."""
    rng = np.random.default_rng(n)
    dc, rdc = DualCube(n), RecursiveDualCube(n)
    out = {}
    for kind, topo, data in (
        ("prefix", dc, rng.integers(0, 1000, dc.num_nodes).tolist()),
        ("sort", rdc, rng.permutation(rdc.num_nodes).tolist()),
    ):
        v = topo.neighbors(2)[0]
        for label, faults, plan, mode in (
            ("degraded-node", FaultSet(nodes=[1]), None, "degraded"),
            ("degraded-link", FaultSet(links=[(2, v)]), None, "degraded"),
            ("retry-drop", None, FaultPlan(**DROP_PLAN), "retry"),
        ):
            res = run_faulty(kind, topo, data, faults=faults, plan=plan,
                             mode=mode)
            out[f"fault_{kind}", label, n] = _fields(res.result.counters)
    pairs = random_pairs(dc.num_nodes, PAIRS_PER_NODE * dc.num_nodes, rng)
    out["fault_traffic", "router", n] = _traffic(
        dc, pairs, FaultPlan(**DROP_PLAN))
    return out


def _replay() -> dict:
    """The array backend on D_9, and one prefix sharded over 4 workers."""
    rng = np.random.default_rng(9)
    dc, rdc = DualCube(9), RecursiveDualCube(9)
    size = dc.num_nodes
    vals = rng.integers(0, 1000, size)
    keys = rng.permutation(size)
    out = {
        ("dual_prefix", "replay", 9): _counted(
            size, lambda c: dual_prefix(dc, vals, ADD, counters=c)),
        ("dual_sort", "replay", 9): _counted(
            size, lambda c: dual_sort(rdc, keys, counters=c)),
    }
    dc = DualCube(3)
    vals = np.random.default_rng(3).integers(0, 1000, dc.num_nodes)
    out["dual_prefix", "replay-sharded", 3] = _counted(
        dc.num_nodes,
        lambda c: dual_prefix(dc, vals, ADD, counters=c, shards=4))
    return out


def _serving(n: int = 2) -> dict:
    """Open-loop serving scenarios on D_n, seeded with ``n``.

    messages = hops served (retransmissions included), payload_items =
    logical hops, retries = retransmissions + backpressure re-offers,
    messages_dropped = fault-plan losses + request drops, timeouts =
    deadline misses.
    """
    dc = DualCube(n)
    requests = REQUESTS_PER_NODE * dc.num_nodes
    pairs = open_loop_pairs(dc, requests, n)
    out = {}
    # The capacity row offers 6x the load to one-slot buffers, so it
    # drops; the bursts make the bursty row miss its deadline.
    for bench, arrivals, scale, config, plan in (
        ("serve_poisson", poisson_arrivals, 1.0, None, None),
        ("serve_bursty", onoff_arrivals, 1.0, ServingConfig(deadline=15.0),
         None),
        ("serve_capacity", poisson_arrivals, 6.0,
         ServingConfig(queue_capacity=1, deadline=12.0), None),
        ("serve_fault", poisson_arrivals, 1.0, None, FaultPlan(**DROP_PLAN)),
    ):
        rate = SERVE_RATE * scale * dc.num_nodes
        stats = run_serving(dc, lambda u, v: route(dc, u, v),
                            arrivals(rate, requests, n), pairs,
                            config=config, fault_plan=plan)
        out[bench, "serving", n] = _mapped(
            messages=stats.hops_served, payload_items=stats.path_hops,
            max_message_payload=1,
            retries=stats.retransmissions + stats.blocked_retries,
            messages_dropped=stats.retransmissions + stats.drops,
            timeouts=stats.deadline_misses)
    return out


def _campaign(n: int = 2) -> dict:
    """One SLO fault campaign on D_n, seeded with ``n``.

    messages = probe evaluations, timeouts = violations, payload_items /
    max_message_payload = summed / largest minimal fault-set size,
    retries = triage classes over all violations, messages_dropped =
    static cross-checks.
    """
    result = run_campaign(DualCube(n), seed=n, trials=4)
    sizes = [v.size for v in result.violations]
    return {("fault_campaign", "campaign", n): _mapped(
        messages=result.evaluations, payload_items=sum(sizes),
        max_message_payload=max(sizes, default=0),
        timeouts=len(sizes),
        retries=sum(len(v.triage.classes) for v in result.violations),
        messages_dropped=len(result.cross_checks))}


@functools.cache
def rebuilt() -> dict:
    """Every record, keyed ``"bench/backend/n"`` like the JSON."""
    records = {**_core(2), **_core(3), **_faults(), **_replay(),
               **_serving(), **_campaign()}
    return {f"{b}/{be}/{n}": r for (b, be, n), r in records.items()}


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_every_golden_record_is_rebuilt():
    assert sorted(rebuilt()) == sorted(_golden())


@pytest.mark.parametrize("key", list(_golden()))
def test_fingerprint_matches_golden(key):
    bench, backend, n = key.split("/")
    got, want = rebuilt()[key], _golden()[key]
    for field in FIELDS:
        assert got[field] == want[field], (
            f"{bench}/{backend} n={n}: {field} is {got[field]}, "
            f"golden {want[field]}")


def test_fault_traffic_hop_ledgers_reconcile():
    # Physical crossings minus logical hops is exactly the retransmissions.
    r = rebuilt()["fault_traffic/router/3"]
    assert r["retries"] > 0
    assert r["messages"] - r["payload_items"] == r["retries"]
