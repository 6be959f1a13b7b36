"""repro — Prefix Computation and Sorting in Dual-Cube (Li, Peng, Chu, ICPP 2008).

A complete implementation of the paper's system: the dual-cube
interconnection network in both presentations, a cycle-accurate
synchronous message-passing simulator enforcing the paper's 1-port
bidirectional-channel model, the two headline algorithms (`D_prefix`,
`D_sort`) with hypercube baselines, collective communication, large-input
extensions, and application kernels.

Quickstart::

    import numpy as np
    from repro import DualCube, RecursiveDualCube, dual_prefix, dual_sort, ADD

    dc = DualCube(3)                       # 32 nodes, 3 links each
    prefix = dual_prefix(dc, np.arange(1, 33), ADD)

    rdc = RecursiveDualCube(3)
    sorted_keys = dual_sort(rdc, np.random.permutation(32))

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced figures/theorems.
"""

from repro.topology import (
    DualCube,
    Hypercube,
    RecursiveDualCube,
    CubeConnectedCycles,
    WrappedButterfly,
    DeBruijn,
    ShuffleExchange,
    standard_to_recursive,
    recursive_to_standard,
)
from repro.core import (
    AssocOp,
    ADD,
    MUL,
    MIN,
    MAX,
    CONCAT,
    MATMUL2,
    dual_prefix,
    dual_sort,
    cube_prefix,
    hypercube_bitonic_sort,
    dual_sort_schedule,
    bitonic_schedule,
    is_bitonic,
    large_prefix,
    large_sort,
    sequential_prefix,
)
from repro.simulator import CostCounters, TraceRecorder, run_spmd
from repro.routing import route, broadcast_engine, allreduce

__version__ = "1.0.0"

__all__ = [
    "DualCube",
    "Hypercube",
    "RecursiveDualCube",
    "CubeConnectedCycles",
    "WrappedButterfly",
    "DeBruijn",
    "ShuffleExchange",
    "standard_to_recursive",
    "recursive_to_standard",
    "AssocOp",
    "ADD",
    "MUL",
    "MIN",
    "MAX",
    "CONCAT",
    "MATMUL2",
    "dual_prefix",
    "dual_sort",
    "cube_prefix",
    "hypercube_bitonic_sort",
    "dual_sort_schedule",
    "bitonic_schedule",
    "is_bitonic",
    "large_prefix",
    "large_sort",
    "sequential_prefix",
    "CostCounters",
    "TraceRecorder",
    "run_spmd",
    "route",
    "broadcast_engine",
    "allreduce",
    "__version__",
]
