"""Cluster-scale demo: D_5 with blocked inputs and collectives.

The paper's future work asks for inputs larger than the network and for
empirical analysis; this example runs a 512-node D_5 with 64 keys per
node (32768 keys total), plus broadcast and allreduce, and prints the
measured communication costs next to the closed forms.

Run:  python examples/cluster_scale_demo.py
"""

import time

import numpy as np

from repro import ADD, CostCounters, DualCube, RecursiveDualCube, broadcast_engine
from repro.analysis.complexity import (
    dual_prefix_comm_exact,
    dual_sort_comm_exact,
)
from repro.core.large_inputs import large_prefix, large_sort
from repro.routing import allreduce


def main() -> None:
    n = 5
    dc = DualCube(n)
    rdc = RecursiveDualCube(n)
    B = 64
    N = B * dc.num_nodes
    rng = np.random.default_rng(0)
    print(f"network: {dc.name} with {dc.num_nodes} nodes, {dc.n} links each; "
          f"{B} items per node, N = {N}")
    print()

    print("=== Blocked prefix sums ===")
    values = rng.integers(0, 1000, N)
    counters = CostCounters(dc.num_nodes)
    t0 = time.perf_counter()
    prefix = large_prefix(dc, values, ADD, counters=counters)
    dt = time.perf_counter() - t0
    assert prefix[-1] == values.sum()
    print(f"prefix of {N} values: {counters.comm_steps} network steps "
          f"(= plain D_prefix's {dual_prefix_comm_exact(n)}), "
          f"{counters.max_node_ops} local ops/node, {dt * 1e3:.1f} ms simulated")
    print()

    print("=== Blocked sort (merge-split bitonic) ===")
    keys = rng.permutation(N)
    counters = CostCounters(rdc.num_nodes)
    t0 = time.perf_counter()
    skeys = large_sort(rdc, keys, counters=counters)
    dt = time.perf_counter() - t0
    assert list(skeys[:3]) == [0, 1, 2] and skeys[-1] == N - 1
    print(f"sort of {N} keys: {counters.comm_steps} network steps "
          f"(= plain D_sort's {dual_sort_comm_exact(n)}), "
          f"max message payload {counters.max_message_payload} keys, "
          f"{dt * 1e3:.1f} ms simulated")
    print()

    print("=== Collectives ===")
    totals = allreduce(dc, values[: dc.num_nodes], ADD)
    print(f"allreduce on {dc.num_nodes} nodes: total {totals[0]} at every node "
          f"in {2 * n} steps")
    small = DualCube(3)
    got, res = broadcast_engine(small, 0, "hello")
    print(f"broadcast on {small.name} (cycle-accurate engine): all "
          f"{small.num_nodes} nodes received in {res.comm_steps} steps "
          f"(= diameter {small.diameter()})")


if __name__ == "__main__":
    main()
