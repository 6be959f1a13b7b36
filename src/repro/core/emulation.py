"""Generic hypercube-algorithm emulation on the dual-cube.

The paper's second design technique, stated generally in its conclusion:

    "Since most of the algorithms in hypercube are recursive, the
    algorithms that emulate these hypercube algorithms can be developed
    using the second technique.  However, the overhead for the emulation
    will be [3] times of the corresponding hypercube algorithm in the
    worst-case due to the lack of edges."

`D_sort` is one instance (Batcher's network emulated step by step).  This
module exposes the technique itself: any hypercube algorithm expressed as
a sequence of *dimension-exchange rounds* — each node exchanges a value
with its dimension-``d`` partner, then updates local state — runs on the
recursive dual-cube unchanged, with unsupported dimensions emulated by
the 3-hop relay schedule (packed 2-key messages, see
:mod:`repro.core.dual_sort`).

The star witness is :func:`emulated_cube_prefix`: Algorithm 1 run on
D_n via emulation.  Comparing it to `D_prefix` (the cluster technique)
quantifies the paper's closing argument — when the inter-cluster
communication can be designed directly, the cluster technique wins
(2n steps vs ~3(2n-1) for emulation).  Ablation A4 prints the table.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.backends import dispatch
from repro.core.dual_sort import _dim_mode, step_cycle_cost
from repro.core.ops import AssocOp
from repro.simulator import (
    CostCounters,
    Idle,
    Packed,
    Recv,
    Send,
    SendRecv,
    TraceRecorder,
    run_spmd,
)
from repro.simulator.counters import charge_exchange_step
from repro.topology.base import DimensionedTopology

__all__ = [
    "ExchangeRound",
    "exchange_value_program",
    "exchange_algorithm_program",
    "run_exchange_algorithm_engine",
    "emulated_cube_prefix",
    "emulation_comm_steps",
]

# An exchange algorithm is a list of rounds; each round names the
# dimension and an update ``state, received -> state`` applied at every
# node after the exchange.  The exchanged value is produced by
# ``outgoing(state)``.
ExchangeRound = tuple[int, Callable[[Any], Any], Callable[[Any, Any, int], Any]]


def exchange_value_program(
    ctx, topo: DimensionedTopology, dim: int, value: Any
):
    """One full-duplex value exchange along ``dim`` (generator phase).

    Direct pairs complete in 1 cycle.  On topologies with unsupported
    dimensions (the recursive dual-cube), the supported half relays for
    the unsupported half using the packed 3-cycle schedule; this is the
    communication kernel shared by every emulated hypercube algorithm.
    Returns the partner's value.
    """
    u = ctx.rank
    partner = u ^ (1 << dim)
    if _dim_mode(topo, dim) == "direct":
        got = yield SendRecv(partner, value)
        return got
    if topo.has_dimension_link(u, dim):
        cross = u ^ 1
        relayed = yield Recv(cross)
        pair = yield SendRecv(partner, Packed((relayed, value)))
        back, got = pair.items
        yield Send(cross, back)
        return got
    cross = u ^ 1
    yield Send(cross, value)
    yield Idle()
    got = yield Recv(cross)
    return got


def exchange_algorithm_program(
    topo: DimensionedTopology,
    initial: Sequence[Any],
    rounds: Sequence[ExchangeRound],
):
    """The SPMD program realizing a dimension-exchange algorithm on ``topo``.

    This is the exact program :func:`run_exchange_algorithm_engine` runs;
    it is exposed so the static schedule analyzer
    (:mod:`repro.analysis.static`) can extract its communication schedule
    without an engine run.
    """
    states = list(initial)
    if len(states) != topo.num_nodes:
        raise ValueError(
            f"expected {topo.num_nodes} states for {topo.name}, got {len(states)}"
        )

    def program(ctx):
        state = states[ctx.rank]
        for dim, outgoing, update in rounds:
            got = yield from exchange_value_program(
                ctx, topo, dim, outgoing(state)
            )
            ctx.compute(1)
            state = update(state, got, ctx.rank)
            ctx.record(f"round dim {dim}", state)
        return state

    return program


def run_exchange_algorithm_engine(
    topo: DimensionedTopology,
    initial: Sequence[Any],
    rounds: Sequence[ExchangeRound],
    *,
    trace: TraceRecorder | None = None,
):
    """Run a dimension-exchange algorithm on the cycle-accurate engine.

    ``initial[u]`` is node ``u``'s starting state; each round
    ``(dim, outgoing, update)`` exchanges ``outgoing(state)`` along
    ``dim`` and sets ``state = update(state, received, rank)``.
    Returns ``(final_states, EngineResult)``.
    """
    program = exchange_algorithm_program(topo, initial, rounds)
    result = run_spmd(topo, program, trace=trace)
    return list(result.returns), result


def emulated_cube_prefix(
    topo: DimensionedTopology,
    values,
    op: AssocOp,
    *,
    backend: str = "replay",
    inclusive: bool = True,
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
):
    """Algorithm 1 emulated on ``topo``, a hypercube or a recursive
    dual-cube; the prefix order follows node addresses.

    On a hypercube this is plain `Cube_prefix`; on the recursive
    dual-cube every odd (class-0-unsupported) dimension is 3-hop
    emulated.  Returns ``(t, s)`` like
    :func:`~repro.core.cube_prefix.cube_prefix`: arrays from
    ``backend="replay"`` (the default; takes ``counters`` and charges
    every round as a dimension exchange on ``topo``), or
    ``((t, s), EngineResult)`` from ``backend="engine"`` (takes
    ``trace``).
    """
    return dispatch("emulated_cube_prefix", backend, topo, values, op,
                    inclusive=inclusive, counters=counters, trace=trace)


def _emulated_cube_prefix_engine(topo, values, op: AssocOp, *,
                                 inclusive: bool, trace):
    q = len(values).bit_length() - 1

    def program(ctx):
        # Cube_prefix's round, with the exchange emulated on ``topo``.
        u = ctx.rank
        t = values[u]
        s = t if inclusive else op.identity
        for i in range(q):
            temp = yield from exchange_value_program(ctx, topo, i, t)
            ctx.compute(2)  # one round: t-fold plus (conditional) s-fold
            if (u >> i) & 1:
                s = op(temp, s)
                t = op(temp, t)
            else:
                t = op(t, temp)
        return t, s

    result = run_spmd(topo, program, trace=trace)
    return ([r[0] for r in result.returns],
            [r[1] for r in result.returns]), result


def _emulated_cube_prefix_replay(topo, values, op: AssocOp, *,
                                 inclusive: bool, counters):
    from repro.core.replay import ascend_prefix

    n = len(values)
    t, s = ascend_prefix(values, op, range(n.bit_length() - 1),
                         inclusive=inclusive)
    if counters is not None:
        for i in range(n.bit_length() - 1):
            direct = _dim_mode(topo, i) == "direct"
            charge_exchange_step(counters, n, direct, ops_each=2)
    return t, s


def emulation_comm_steps(topo: DimensionedTopology, dims: Sequence[int]) -> int:
    """Closed-form cycles for an exchange sequence under packed emulation."""
    return sum(step_cycle_cost(topo, d) for d in dims)
