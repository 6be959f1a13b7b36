"""Unit tests for the static fault-impact analyzer.

The differential grounding against live engine runs lives in
``test_fault_differential.py``; these tests pin the analyzer's own
semantics on hand-built and extracted schedules: taint vs blocking
propagation, the pairing diagnosis of fault-pruned schedules, the
minimal-cut search machinery, and the exact structural cuts.
"""

import pytest

from repro.analysis.static import (
    analyze_fault_impact,
    extract_schedule,
    fault_set_of,
    minimal_cut,
    minimal_cut_table,
    quorum_node_cut,
    quorum_violated,
    rank_included_violated,
    recovery_impact,
    structural_link_cut,
    structural_node_cut,
)
from repro.core.dual_prefix import dual_prefix_program
from repro.core.ops import ADD
from repro.simulator.faults import FaultPlan, StaticFaultView
from repro.topology import DualCube, Hypercube
from repro.topology.faults import FaultSet


@pytest.fixture(scope="module")
def d2_prefix():
    dc = DualCube(2)
    sched = extract_schedule(
        dc, dual_prefix_program(dc, list(range(dc.num_nodes)), ADD)
    )
    assert sched.completed
    return dc, sched


class TestStaticFaultView:
    def test_plan_projection(self):
        plan = FaultPlan(
            node_crashes={3: 2}, link_cuts={(0, 1): 4}, timeout=7,
            on_timeout="cancel",
        )
        view = plan.static_view()
        assert view.crashes == ((3, 2),)
        assert view.cuts == (((0, 1), 4),)
        assert not view.transient
        assert view.timeout == 7
        assert view.on_timeout == "cancel"

    def test_transient_flag(self):
        assert FaultPlan(drop_rate=0.1, seed=1).static_view().transient
        assert FaultPlan(delays={(0, 1): 2}).static_view().transient
        assert not FaultPlan().static_view().transient

    def test_from_faults_pins_cycle_one(self):
        fs = FaultSet(nodes=[5], links=[(2, 1)])
        view = StaticFaultView.from_faults(nodes=fs.nodes, links=fs.links)
        assert view.crashes == ((5, 1),)
        assert view.cuts == (((1, 2), 1),)

    def test_timing_queries(self):
        view = StaticFaultView(crashes=((3, 2),), cuts=(((0, 1), 4),))
        assert not view.node_dead(3, 1)
        assert view.node_dead(3, 2)
        assert view.node_dead(3, 9)
        assert not view.link_down(0, 1, 3)
        assert view.link_down(1, 0, 4)
        # A dead endpoint takes its links down too.
        assert view.link_down(3, 2, 2)

    def test_is_empty(self):
        assert StaticFaultView().is_empty
        assert not StaticFaultView(crashes=((0, 1),)).is_empty
        assert not StaticFaultView(transient=True).is_empty


class TestAnalyzeFaultImpact:
    def test_empty_faults_no_blast(self, d2_prefix):
        _, sched = d2_prefix
        imp = analyze_fault_impact(sched, FaultSet())
        assert imp.blast_radius == ()
        assert imp.delivered == len(sched.events)
        assert imp.schedule.completed
        assert imp.diagnose() == []

    def test_crash_after_last_use_empty_blast(self, d2_prefix):
        _, sched = d2_prefix
        plan = FaultPlan(node_crashes={0: sched.steps + 1})
        imp = analyze_fault_impact(sched, plan)
        assert imp.blast_radius == ()
        assert imp.dead == ()

    def test_block_semantics_deadlock_cycle(self, d2_prefix):
        _, sched = d2_prefix
        imp = analyze_fault_impact(
            sched, FaultSet(links=[(0, 1)]), semantics="block"
        )
        # Step 1 pairs 0 <-> 1; the cut blocks both, and the stall
        # cascades through every later exchange.
        assert 0 in imp.blocked and 1 in imp.blocked
        assert imp.blast_radius == tuple(range(8))
        found = {v.code for v in imp.diagnose()}
        assert "deadlock" in found
        cyc = next(v for v in imp.diagnose() if v.code == "deadlock")
        assert "0 -> 1 -> 0" in cyc.message

    def test_crashed_partner_orphan_diagnosis(self, d2_prefix):
        _, sched = d2_prefix
        imp = analyze_fault_impact(
            sched, FaultPlan(node_crashes={3: 2}), semantics="block"
        )
        assert imp.dead == (3,)
        assert 3 not in imp.blocked
        orphans = [v for v in imp.diagnose() if v.code == "orphan"]
        assert orphans
        assert all("has terminated" in v.message for v in orphans)

    def test_cancel_semantics_taints_not_blocks(self, d2_prefix):
        _, sched = d2_prefix
        imp = analyze_fault_impact(
            sched, FaultSet(links=[(0, 1)]), semantics="cancel"
        )
        assert imp.blocked == ()
        assert imp.schedule.completed
        assert imp.diagnose() == []
        assert 0 in imp.tainted and 1 in imp.tainted
        # Prefix mixes every rank with every other: full taint closure.
        assert imp.blast_radius == tuple(range(8))

    def test_cancel_dead_ranks_not_tainted(self, d2_prefix):
        _, sched = d2_prefix
        imp = analyze_fault_impact(
            sched, FaultPlan(node_crashes={3: 1}), semantics="cancel"
        )
        assert imp.dead == (3,)
        assert 3 not in imp.tainted

    def test_semantics_default_follows_plan(self, d2_prefix):
        _, sched = d2_prefix
        blocky = FaultPlan(node_crashes={0: 1})
        cancelly = FaultPlan(
            node_crashes={0: 1}, timeout=3, on_timeout="cancel"
        )
        assert analyze_fault_impact(sched, blocky).semantics == "block"
        assert analyze_fault_impact(sched, cancelly).semantics == "cancel"

    def test_transient_plan_rejected(self, d2_prefix):
        _, sched = d2_prefix
        with pytest.raises(ValueError, match="drop/delay"):
            analyze_fault_impact(sched, FaultPlan(drop_rate=0.5, seed=1))

    def test_downtime_plan_rejected(self, d2_prefix):
        # Bounded outages stall the lockstep, so schedule steps drift
        # from engine cycles: a step-indexed window analysis would be
        # unsound.  The analyzer demands the structural
        # over-approximation instead.
        _, sched = d2_prefix
        with pytest.raises(ValueError, match="downtime"):
            analyze_fault_impact(sched, FaultPlan(downtimes=[(0, 2, 4)]))

    def test_incomplete_baseline_rejected(self, d2_prefix):
        _, sched = d2_prefix
        imp = analyze_fault_impact(sched, FaultSet(links=[(0, 1)]))
        with pytest.raises(ValueError, match="completed baseline"):
            analyze_fault_impact(imp.schedule, FaultSet())

    def test_crash_rank_out_of_range(self, d2_prefix):
        _, sched = d2_prefix
        with pytest.raises(ValueError, match="outside"):
            analyze_fault_impact(sched, FaultSet(nodes=[99]))

    def test_bad_semantics_rejected(self, d2_prefix):
        _, sched = d2_prefix
        with pytest.raises(ValueError, match="semantics"):
            analyze_fault_impact(sched, FaultSet(), semantics="maybe")

    def test_pruned_schedule_consistency(self, d2_prefix):
        _, sched = d2_prefix
        imp = analyze_fault_impact(sched, FaultSet(links=[(0, 1)]))
        pruned = imp.schedule
        assert not pruned.completed
        assert pruned.stalled_at == 1
        assert len(pruned.events) + len(imp.lost) == len(sched.events)
        assert {b.rank for b in pruned.blocked} == set(imp.blocked)


class TestRecoveryImpact:
    def test_no_faults_everyone_in(self):
        ri = recovery_impact(DualCube(2))
        assert ri.root == 0
        assert ri.excluded == ()
        assert len(ri.members) == 8

    def test_degraded_single_crash(self):
        # D_2 stays connected after one crash: only the crashed rank out.
        ri = recovery_impact(DualCube(2), FaultSet(nodes=[5]))
        assert ri.excluded == (5,)

    def test_root_moves_off_crashed_zero(self):
        ri = recovery_impact(DualCube(2), FaultSet(nodes=[0]))
        assert ri.root == 1
        assert ri.excluded == (0,)

    def test_isolating_cut_strands_root(self):
        # Crash both neighbors' links of rank 0... cut the N(0) links:
        # root 0 keeps its index but reaches nobody.
        dc = DualCube(2)
        cuts = [(0, v) for v in dc.neighbors(0)]
        ri = recovery_impact(dc, FaultSet(links=cuts))
        assert ri.root == 0
        assert ri.members == (0,)
        assert len(ri.excluded) == 7

    def test_reroute_mode(self):
        ri = recovery_impact(
            DualCube(2), FaultSet(nodes=[3]), mode="reroute"
        )
        assert ri.excluded == (3,)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            recovery_impact(DualCube(2), mode="optimistic")


class TestPredicates:
    def test_fault_set_of(self):
        fs = fault_set_of([("node", 3), ("link", (4, 1))])
        assert fs.nodes == frozenset({3})
        assert fs.links == frozenset({(1, 4)})
        with pytest.raises(ValueError, match="kind"):
            fault_set_of([("cpu", 1)])

    def test_rank_included(self):
        dc = DualCube(2)
        violated = rank_included_violated(dc, 5)
        assert violated((("node", 5),))
        assert not violated((("node", 3),))
        # Rank 5 survives but is stranded from root 0: excluded.
        boundary = tuple(("node", v) for v in dc.neighbors(5))
        assert violated(boundary)

    def test_root_always_included_while_alive(self):
        # run_faulty's root is min(healthy): as long as rank 0 lives it
        # IS the root, so only crashing it can exclude it.
        dc = DualCube(2)
        violated = rank_included_violated(dc, 0)
        assert violated((("node", 0),))
        boundary = tuple(("node", v) for v in dc.neighbors(0))
        assert not violated(boundary)

    def test_quorum(self):
        dc = DualCube(2)
        violated = quorum_violated(dc, 0.75)  # need 6 of 8
        assert not violated((("node", 1),))
        # D_2 is 2-regular (an 8-cycle): crashing an *adjacent* pair
        # leaves a connected 6-path, exactly meeting the quorum ...
        assert not violated((("node", 0), ("node", 1)))
        # ... but any third crash drops below it.
        assert violated((("node", 1), ("node", 2), ("node", 3)))
        with pytest.raises(ValueError, match="fraction"):
            quorum_violated(dc, 0.0)


class TestMinimalCut:
    def test_empty_set_violation_short_circuits(self):
        res = minimal_cut(lambda s: True, [1, 2, 3])
        assert res.elements == ()
        assert res.found and res.exact
        assert res.size == 0

    def test_exact_pair(self):
        res = minimal_cut(lambda s: {2, 4} <= set(s), list(range(6)))
        assert set(res.elements) == {2, 4}
        assert res.found and res.exact

    def test_non_monotone_predicate_found_exactly(self):
        # Violated by {1} and by {0, 2} but NOT by supersets of {1} that
        # include 3 — monotone superset pruning would miss this shape.
        def violated(s):
            s = set(s)
            return (1 in s and 3 not in s) or {0, 2} <= s

        res = minimal_cut(violated, [3, 1, 0, 2])
        assert res.elements == (1,)
        assert res.exact

    def test_seed_minimized(self):
        res = minimal_cut(
            lambda s: 7 in set(s),
            list(range(10)),
            seeds=[(5, 6, 7, 8)],
        )
        assert res.elements == (7,)
        assert res.found and res.exact

    def test_budget_marks_inexact(self):
        def violated(s):
            return len(set(s)) >= 3

        res = minimal_cut(
            violated, list(range(30)), seeds=[tuple(range(3))], budget=10
        )
        assert res.found
        assert res.size == 3
        assert not res.exact
        assert res.evaluations <= 10

    def test_no_cut_exact_when_fully_enumerated(self):
        res = minimal_cut(lambda s: False, [1, 2, 3])
        assert not res.found
        assert res.exact
        assert res.size is None

    def test_no_cut_inexact_under_max_size(self):
        res = minimal_cut(lambda s: False, list(range(6)), max_size=2)
        assert not res.found
        assert not res.exact

    def test_deterministic(self):
        def violated(s):
            return len(set(s) & {2, 3, 5}) >= 2

        runs = [
            minimal_cut(violated, list(range(8))) for _ in range(3)
        ]
        assert len({r.elements for r in runs}) == 1


class TestStructuralCuts:
    @pytest.mark.parametrize("n", [2, 3])
    def test_dualcube_connectivity(self, n):
        dc = DualCube(n)
        nc = structural_node_cut(dc)
        lc = structural_link_cut(dc)
        # D_n is n-regular and maximally connected: kappa = lambda = n.
        assert nc.size == n and nc.exact
        assert lc.size == n and lc.exact
        # Witnesses really disconnect a healthy rank.
        ri = recovery_impact(dc, fault_set_of(nc.elements))
        assert any(r not in fault_set_of(nc.elements).nodes
                   for r in ri.excluded)

    def test_hypercube_connectivity(self):
        q = Hypercube(5)
        assert structural_node_cut(q).size == 5
        assert structural_link_cut(q).size == 5

    @pytest.mark.parametrize(
        "n, node_flows, link_flows", [(2, 14, 7), (3, 109, 31), (4, 609, 127)]
    )
    def test_sweeps_run_a_fixed_number_of_flows(self, n, node_flows,
                                                link_flows):
        # Each cut's evaluations count its max-flows: one per source/sink
        # pair the sweep visits, whatever graph the flows share.
        assert structural_node_cut(DualCube(n)).evaluations == node_flows
        assert structural_link_cut(DualCube(n)).evaluations == link_flows

    @pytest.mark.parametrize("n", [2, 3])
    def test_quorum_cut_matches_degree(self, n):
        qc = quorum_node_cut(DualCube(n))
        # Crashing N(0) strands root 0, excluding all but one rank —
        # cheaper than crashing a quarter of the network directly.
        assert qc.size == n
        assert qc.exact


class TestMinimalCutTable:
    @pytest.fixture(scope="class")
    def table(self):
        return minimal_cut_table(max_n=3)

    def test_rows_and_values(self, table):
        assert [r["topology"] for r in table] == ["D_2", "D_3", "Q_5"]
        for r in table:
            assert r["node_cut"] == r["link_cut"] == r["degree"]
            assert r["quorum_cut"] == r["degree"]
            assert r["quorum_exact"]
            assert len(r["node_witness"]) == r["node_cut"]
            assert len(r["link_witness"]) == r["link_cut"]

    def test_deterministic(self, table):
        assert minimal_cut_table(max_n=3) == table

    def test_bad_max_n(self):
        with pytest.raises(ValueError, match="max_n"):
            minimal_cut_table(max_n=1)
