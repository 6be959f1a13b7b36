"""The paper's algorithms: parallel prefix and sorting in the dual-cube.

Each algorithm has one entry point (`cube_prefix`, `dual_prefix`,
`dual_sort`, `hypercube_bitonic_sort`, `large_prefix`, `large_sort`,
`emulated_cube_prefix`, `ring_sort`, and `repro.routing.allreduce`) with
a ``backend=`` keyword selecting one of two executions:

* ``engine`` — SPMD generator programs run on the cycle-accurate
  simulator, which *measures* communication/computation steps under the
  1-port model (this is what validates Theorems 1 and 2) and serves as
  the reference oracle; it returns ``(result, EngineResult)``;
* ``replay`` (the default) — the array backend: the schedule compiled
  once per (algorithm, topology, variant) into cached descriptors and
  run as in-place numpy operations over reshape views of the whole
  network's state; it charges the engine's exact cost ledger, records
  the engine's trace labels, and scales the same schedules to D_9-D_11,
  optionally sharding the prefix's cluster phases over worker processes.

Every entry point dispatches through :mod:`repro.core.backends`, which
checks its input once and declares each backend's capabilities
(counters/trace/profiler/shards support, return shape) exactly once.
The ``*_program`` factories expose the engine programs to the static
analyzer.  All executions are cross-checked against each other and
against sequential oracles in the test suite.
"""

from repro.core.ops import (
    AssocOp,
    ADD,
    MUL,
    MIN,
    MAX,
    CONCAT,
    MATMUL2,
    combine_arrays,
    combine_into,
)
from repro.core.arrangement import (
    arranged_index,
    arranged_index_v,
    arrange,
    dearrange,
)
from repro.core.cube_prefix import cube_prefix, cube_prefix_program
from repro.core.dual_prefix import (
    dual_prefix,
    dual_prefix_program,
    dual_suffix,
)
from repro.core.backends import (
    BackendSpec,
    backend_names,
    backend_spec,
    entry_points,
    resolve_backend,
)
from repro.core.bitonic import (
    is_bitonic,
    hypercube_bitonic_sort,
    bitonic_schedule,
)
from repro.core.dual_sort import (
    dual_sort,
    dual_sort_schedule,
    schedule_program,
    ScheduleStep,
)
from repro.core.large_inputs import large_prefix, large_sort
from repro.core.replay import (
    clear_plan_cache,
    plan_cache_stats,
)
from repro.core.emulation import (
    emulated_cube_prefix,
    exchange_algorithm_program,
    run_exchange_algorithm_engine,
    emulation_comm_steps,
)
from repro.core.ring_sort import ring_sort, ring_sort_program, ring_sort_steps
from repro.core.sorting_networks import (
    bitonic_sort_network,
    odd_even_merge_sort_network,
    schedule_to_network,
    apply_network,
    network_depth,
    comparator_count,
    verify_zero_one,
    is_dimension_exchange_network,
)
from repro.core.run_faulty import FaultyRunResult, build_faulty_program, run_faulty
from repro.core.verify import (
    check_prefix,
    check_sorted,
    is_permutation_of,
    sequential_prefix,
)

__all__ = [
    "AssocOp",
    "ADD",
    "MUL",
    "MIN",
    "MAX",
    "CONCAT",
    "MATMUL2",
    "combine_arrays",
    "combine_into",
    "arranged_index",
    "arranged_index_v",
    "arrange",
    "dearrange",
    "cube_prefix",
    "cube_prefix_program",
    "dual_prefix",
    "dual_prefix_program",
    "dual_suffix",
    "BackendSpec",
    "backend_names",
    "backend_spec",
    "entry_points",
    "resolve_backend",
    "is_bitonic",
    "hypercube_bitonic_sort",
    "bitonic_schedule",
    "dual_sort",
    "dual_sort_schedule",
    "schedule_program",
    "ScheduleStep",
    "large_prefix",
    "large_sort",
    "clear_plan_cache",
    "plan_cache_stats",
    "emulated_cube_prefix",
    "exchange_algorithm_program",
    "run_exchange_algorithm_engine",
    "emulation_comm_steps",
    "ring_sort",
    "ring_sort_program",
    "ring_sort_steps",
    "bitonic_sort_network",
    "odd_even_merge_sort_network",
    "schedule_to_network",
    "apply_network",
    "network_depth",
    "comparator_count",
    "verify_zero_one",
    "is_dimension_exchange_network",
    "FaultyRunResult",
    "build_faulty_program",
    "run_faulty",
    "check_prefix",
    "check_sorted",
    "is_permutation_of",
    "sequential_prefix",
]
