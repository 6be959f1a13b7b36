"""Synchronous message-passing network simulator.

This package is the substitute for the paper's abstract machine: a
synchronous multicomputer whose nodes are connected by bidirectional
channels under the 1-port model (each node sends at most one and receives
at most one message per clock cycle).  Theorems 1 and 2 are statements
about step counts under exactly this model, so the simulator enforces it
and the benchmark harness reads its counters.

Programming model (mpi4py-flavoured SPMD): every node runs the same
*program*, a Python generator instantiated per rank, which yields
communication requests — :class:`Send`, :class:`Recv`, :class:`SendRecv`,
:class:`Idle` — and receives delivered payloads back at the yield point.
:func:`run_spmd` advances all programs in lockstep, one request per clock
cycle, verifying that every message travels along an existing link and
that no node exceeds its port budget.
"""

from repro.simulator.errors import (
    SimulationError,
    DeadlockError,
    LinkError,
    ProgramError,
    FaultError,
    RetryLimitError,
    RequestTimeoutError,
)
from repro.simulator.requests import Send, Recv, SendRecv, Shift, Idle
from repro.simulator.counters import CostCounters, Packed
from repro.simulator.faults import FAULTED, FaultPlan
from repro.simulator.serving import (
    ServingConfig,
    ServingStats,
    SaturationResult,
    run_serving,
    find_saturation,
)
from repro.simulator.node import NodeCtx
from repro.simulator.trace import TraceRecorder
from repro.simulator.engine import (
    EngineResult,
    run_spmd,
    use_fault_plan,
    use_timeline,
)
from repro.simulator.campaign import (
    SLO,
    CampaignError,
    CampaignResult,
    run_campaign,
    churn_downtimes,
    cluster_outage,
    rolling_restart,
)

__all__ = [
    "SimulationError",
    "DeadlockError",
    "LinkError",
    "ProgramError",
    "FaultError",
    "RetryLimitError",
    "RequestTimeoutError",
    "FAULTED",
    "FaultPlan",
    "ServingConfig",
    "ServingStats",
    "SaturationResult",
    "run_serving",
    "find_saturation",
    "Send",
    "Recv",
    "SendRecv",
    "Shift",
    "Idle",
    "CostCounters",
    "Packed",
    "NodeCtx",
    "TraceRecorder",
    "EngineResult",
    "run_spmd",
    "use_fault_plan",
    "use_timeline",
    "SLO",
    "CampaignError",
    "CampaignResult",
    "run_campaign",
    "churn_downtimes",
    "cluster_outage",
    "rolling_restart",
]
