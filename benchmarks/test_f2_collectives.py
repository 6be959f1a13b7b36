"""F2 — extension: collective communication in 2n steps.

The paper cites the authors' companion collective-communication work;
this experiment measures the cluster-technique collectives implemented
here: broadcast, reduce/allreduce, scatter, gather, allgather — all
completing in exactly 2n steps (the diameter, hence step-optimal within
the model) on the cycle-accurate engine, with measured message/payload
traffic.

Expected shape: steps = 2n for every collective at every n; payload
totals ordered broadcast < scatter ~ gather < allgather.
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.routing import (
    allgather_engine,
    allreduce,
    broadcast_engine,
    gather_engine,
    scatter_engine,
)
from repro.core.ops import ADD
from repro.topology import DualCube

from benchmarks._util import emit


def collective_rows(n: int):
    dc = DualCube(n)
    vals = [int(x) for x in np.random.default_rng(n).integers(0, 100, dc.num_nodes)]
    rows = []

    _, res = broadcast_engine(dc, 0, 42)
    rows.append(("broadcast", res.comm_steps, res.counters.messages, res.counters.payload_items))
    _, res = allreduce(dc, vals, ADD, backend="engine")
    rows.append(("allreduce", res.comm_steps, res.counters.messages, res.counters.payload_items))
    _, res = scatter_engine(dc, 0, vals)
    rows.append(("scatter", res.comm_steps, res.counters.messages, res.counters.payload_items))
    _, res = gather_engine(dc, 0, vals)
    rows.append(("gather", res.comm_steps, res.counters.messages, res.counters.payload_items))
    _, res = allgather_engine(dc, vals)
    rows.append(("allgather", res.comm_steps, res.counters.messages, res.counters.payload_items))
    return rows


@pytest.mark.parametrize("n", [2, 3])
def test_collectives_table(benchmark, n):
    rows = benchmark.pedantic(collective_rows, args=(n,), rounds=1, iterations=1)
    emit(
        f"F2_collectives_n{n}",
        format_table(
            ["collective", "comm steps", "messages", "payload items"],
            rows,
            title=f"Collectives on D_{n} (diameter {2 * n}) — all step-optimal",
        ),
    )
    payloads = {name: payload for name, _, _, payload in rows}
    for name, steps, _msgs, _payload in rows:
        assert steps == 2 * n, name
    # Traffic ordering: one-value collectives < personalized < all-to-all.
    assert payloads["broadcast"] <= payloads["scatter"]
    assert payloads["scatter"] <= payloads["allgather"]
    assert payloads["gather"] <= payloads["allgather"]


@pytest.mark.parametrize("collective", ["scatter", "gather", "allgather"])
def test_collective_wallclock(benchmark, collective):
    benchmark.group = "F2 engine collectives D_3"
    dc = DualCube(3)
    vals = list(range(32))

    if collective == "scatter":
        out, res = benchmark(lambda: scatter_engine(dc, 0, vals))
        assert out == vals
    elif collective == "gather":
        out, res = benchmark(lambda: gather_engine(dc, 0, vals))
        assert out == vals
    else:
        lists, res = benchmark(lambda: allgather_engine(dc, vals))
        assert len(lists[0]) == 32
    assert res.comm_steps == 6


def test_every_root_works(benchmark):
    dc = DualCube(3)
    vals = list(range(32))

    def sweep():
        for root in range(0, 32, 5):
            got, res = scatter_engine(dc, root, vals)
            assert got == vals and res.comm_steps == 6
            coll, res = gather_engine(dc, root, vals)
            assert coll == vals and res.comm_steps == 6
        return True

    assert benchmark.pedantic(sweep, rounds=1, iterations=1)
