"""Differential grounding: static fault predictions vs live engine runs.

The acceptance bar for the static analyzer is exactness, not plausibility:

* :func:`recovery_impact` must predict ``run_faulty``'s exclusion set for
  **every** single-node and single-link fault on D_2..D_4 (degraded
  mode; reroute and sort covered on D_2..D_3).
* ``"block"``-semantics :func:`analyze_fault_impact` must name exactly
  the ranks the engine reports in ``DeadlockError.blocked``.
* ``"cancel"``-semantics taint must be sound: every rank the static
  analysis calls clean must return its fault-free value from a live
  cancel-mode run.
"""

import pytest

from repro.analysis.static import analyze_fault_impact, extract_schedule, recovery_impact
from repro.core.dual_prefix import dual_prefix_program
from repro.core.ops import ADD, AssocOp
from repro.core.run_faulty import run_faulty
from repro.simulator.engine import run_spmd, use_fault_plan
from repro.simulator.errors import DeadlockError
from repro.simulator.faults import FAULTED, FaultPlan
from repro.topology import DualCube, RecursiveDualCube
from repro.topology.faults import FaultSet

def _absorb_add(a, b):
    if a is FAULTED:
        return b
    if b is FAULTED:
        return a
    return a + b


# Cancel-mode programs resume with the FAULTED sentinel after a timed-out
# receive, so the live op must absorb it; fault-free it is exactly ADD.
ADD_ABSORB = AssocOp("add-absorb", _absorb_add, 0, commutative=True)


def single_faults(topo):
    """Every single-node and single-link FaultSet of ``topo``."""
    for r in range(topo.num_nodes):
        yield FaultSet(nodes=[r])
    for u, v in topo.edges():
        yield FaultSet(links=[(u, v)])


def _assert_match(topo, faults, mode, kind, data):
    static = recovery_impact(topo, faults, mode=mode)
    dynamic = run_faulty(kind, topo, data, faults=faults, mode=mode)
    assert static.excluded == dynamic.excluded, (
        f"{topo.name} {mode} {kind} faults={faults}: "
        f"static {static.excluded} != dynamic {dynamic.excluded}"
    )
    # values is permuted to input-index order, so the None slots are the
    # excluded ranks' input indices — same cardinality, not same indices.
    assert sum(v is None for v in dynamic.values) == len(dynamic.excluded)


class TestDegradedExclusionExact:
    """Static BFS membership == dynamic degraded outcome, exhaustively."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_prefix_all_single_faults(self, n):
        dc = DualCube(n)
        data = list(range(dc.num_nodes))
        for faults in single_faults(dc):
            _assert_match(dc, faults, "degraded", "prefix", data)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sort_all_single_faults(self, n):
        rdc = RecursiveDualCube(n)
        keys = list(reversed(range(rdc.num_nodes)))
        for faults in single_faults(rdc):
            _assert_match(rdc, faults, "degraded", "sort", keys)

    def test_prefix_double_faults_sample(self):
        # A non-exhaustive but adversarial slice: pairs around rank 0,
        # where exclusion is least monotone (the root can move).
        dc = DualCube(3)
        data = list(range(dc.num_nodes))
        ns = dc.neighbors(0)
        pairs = [
            FaultSet(nodes=[0, ns[0]]),
            FaultSet(nodes=list(ns[:2])),
            FaultSet(nodes=[ns[0]], links=[(0, ns[1])]),
            FaultSet(links=[(0, v) for v in ns]),
        ]
        for faults in pairs:
            _assert_match(dc, faults, "degraded", "prefix", data)


class TestRerouteExclusionExact:
    @pytest.mark.parametrize("n", [2, 3])
    def test_prefix_all_single_faults(self, n):
        dc = DualCube(n)
        data = list(range(dc.num_nodes))
        for faults in single_faults(dc):
            _assert_match(dc, faults, "reroute", "prefix", data)

    def test_prefix_d4_sampled(self):
        dc = DualCube(4)
        data = list(range(dc.num_nodes))
        cases = [FaultSet(nodes=[r]) for r in range(0, dc.num_nodes, 8)]
        cases += [
            FaultSet(links=[e])
            for i, e in enumerate(dc.edges())
            if i % 16 == 0
        ]
        for faults in cases:
            _assert_match(dc, faults, "reroute", "prefix", data)


@pytest.fixture(scope="module", params=[2, 3])
def prefix_case(request):
    n = request.param
    dc = DualCube(n)
    data = list(range(dc.num_nodes))
    sched = extract_schedule(dc, dual_prefix_program(dc, data, ADD))
    baseline = run_spmd(dc, dual_prefix_program(dc, data, ADD)).returns
    return dc, data, sched, baseline


class TestBlockSemanticsVsEngine:
    """Static blocked set == the engine's DeadlockError report."""

    def _dynamic_blocked(self, dc, data, plan):
        prog = dual_prefix_program(dc, data, ADD)
        try:
            with use_fault_plan(plan):
                run_spmd(dc, prog)
            return frozenset()
        except DeadlockError as e:
            return frozenset(e.blocked)

    def test_all_single_faults(self, prefix_case):
        dc, data, sched, _ = prefix_case
        plans = [FaultPlan(node_crashes={r: 1}) for r in range(dc.num_nodes)]
        plans += [FaultPlan(node_crashes={r: 3}) for r in range(dc.num_nodes)]
        plans += [
            FaultPlan(link_cuts={(min(u, v), max(u, v)): 1})
            for u, v in dc.edges()
        ]
        for plan in plans:
            static = frozenset(
                analyze_fault_impact(sched, plan, semantics="block").blocked
            )
            dynamic = self._dynamic_blocked(dc, data, plan)
            assert static == dynamic, (
                f"{dc.name} {plan}: static {sorted(static)} "
                f"!= engine {sorted(dynamic)}"
            )

    def test_mid_schedule_cuts(self, prefix_case):
        dc, data, sched, _ = prefix_case
        for cycle in range(1, sched.steps + 2):
            plan = FaultPlan(link_cuts={(0, 1): cycle})
            static = frozenset(
                analyze_fault_impact(sched, plan, semantics="block").blocked
            )
            dynamic = self._dynamic_blocked(dc, data, plan)
            assert static == dynamic, f"cut (0,1)@{cycle}"


class TestCancelSemanticsSound:
    """Ranks the static taint calls clean keep their fault-free values."""

    def test_all_single_faults(self, prefix_case):
        dc, data, sched, baseline = prefix_case
        timeout = sched.steps + 1
        plans = [
            FaultPlan(node_crashes={r: 1}, timeout=timeout,
                      on_timeout="cancel")
            for r in range(dc.num_nodes)
        ]
        plans += [
            FaultPlan(link_cuts={(min(u, v), max(u, v)): 1},
                      timeout=timeout, on_timeout="cancel")
            for u, v in dc.edges()
        ]
        for plan in plans:
            impact = analyze_fault_impact(sched, plan)
            assert impact.semantics == "cancel"
            prog = dual_prefix_program(dc, data, ADD_ABSORB)
            with use_fault_plan(plan):
                result = run_spmd(dc, prog)
            blast = set(impact.blast_radius)
            for rank in range(dc.num_nodes):
                if rank in blast:
                    continue
                assert result.returns[rank] == baseline[rank], (
                    f"{dc.name} {plan}: rank {rank} is "
                    f"outside the static blast radius but its value "
                    f"changed ({result.returns[rank]!r} != "
                    f"{baseline[rank]!r})"
                )

    def test_exact_taint_on_cut(self, prefix_case):
        # The step-1 cut taints everything in a prefix (all-to-all
        # mixing): the engine must also complete without deadlock.
        dc, data, sched, _ = prefix_case
        plan = FaultPlan(
            link_cuts={(0, 1): 1}, timeout=sched.steps + 1,
            on_timeout="cancel",
        )
        impact = analyze_fault_impact(sched, plan)
        assert impact.blast_radius == tuple(range(dc.num_nodes))
        prog = dual_prefix_program(dc, data, ADD_ABSORB)
        with use_fault_plan(plan):
            run_spmd(dc, prog)  # must not raise
