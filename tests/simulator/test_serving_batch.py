"""Cross-validation against :func:`run_traffic`, plus serving-core units.

The batch router and the queueing simulator are two views of the same
routed traffic.  A *closed-batch* serving run — every request at t=0,
unbounded queues, no deadlines — must serve exactly the hop crossings
``run_traffic`` counts: identical per-link load Counter (compared via
its derived aggregates: sum, max, mean, support) and identical
``path_hops``, with or without a fault plan.  That equality is what
licenses reading E18's serving numbers alongside E11's batch numbers.
"""

from collections import Counter
from itertools import pairwise

import numpy as np
import pytest

from repro.routing import route
from repro.simulator import FaultPlan
from repro.simulator.serving import (
    ServingConfig,
    bfs_router,
    find_saturation,
    onoff_arrivals,
    open_loop_pairs,
    run_serving,
    trace_arrivals,
)
from repro.simulator.traffic import (
    hypercube_dimension_order_path,
    run_traffic,
)
from repro.topology import DualCube, Hypercube, Metacube


def _closed_batch(topo, router, pairs, *, plan=None):
    arrivals = np.zeros(len(pairs))
    return run_serving(topo, router, arrivals, pairs, fault_plan=plan)


def _traffic_batch(topo, router, pairs, *, plan=None):
    return run_traffic(topo, router, pairs, fault_plan=plan)


class TestClosedBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_reproduces_run_traffic_exactly(self, seed):
        dc = DualCube(2)
        router = lambda u, v: route(dc, u, v)
        pairs = open_loop_pairs(dc, 200, seed=seed)

        batch = run_traffic(dc, router, pairs)
        served = _closed_batch(dc, router, pairs)

        assert served.path_hops == batch.path_hops
        assert served.hops_served == batch.total_hops
        # The load Counter, compared through every aggregate run_traffic
        # derives from it.
        loads = served.link_loads
        assert sum(loads.values()) == batch.total_hops
        assert max(loads.values()) == batch.max_link_load
        assert len(loads) == batch.loaded_links
        assert float(np.mean(list(loads.values()))) == pytest.approx(
            batch.mean_link_load
        )
        # Closed batch with infinite queues: everything completes.
        assert served.completions == len(pairs)
        assert served.drops == served.deadline_misses == served.in_flight == 0

    def test_fault_plan_reproduces_bit_for_bit_on_single_link(self):
        """Both engines key the drop schedule by a global attempt counter.
        On a single link, crossings happen in the same sequential order in
        both, so one plan yields the identical retransmission schedule."""
        cube = Hypercube(1)
        pairs = [(0, 1)] * 120
        plan = FaultPlan(drop_rate=0.1, seed=13, max_retries=100)

        batch = run_traffic(
            cube, hypercube_dimension_order_path, pairs, fault_plan=plan
        )
        served = _closed_batch(
            cube, hypercube_dimension_order_path, pairs, plan=plan
        )

        assert batch.retransmissions > 0
        assert served.retransmissions == batch.retransmissions
        assert served.hops_served == batch.total_hops
        assert served.path_hops == batch.path_hops
        assert served.link_loads == {(0, 1): batch.total_hops}

    def test_fault_plan_accounting_identities_multihop(self):
        """Across a multi-link topology the two engines interleave
        crossings differently, so retransmission *schedules* diverge —
        but the serving-side accounting identities must still hold."""
        cube = Hypercube(3)
        pairs = open_loop_pairs(cube, 150, seed=5)
        plan = FaultPlan(drop_rate=0.1, seed=13, max_retries=100)

        served = _closed_batch(
            cube, hypercube_dimension_order_path, pairs, plan=plan
        )
        assert served.retransmissions > 0
        assert served.hops_served == served.path_hops + served.retransmissions
        assert sum(served.link_loads.values()) == served.hops_served
        assert served.conservation_ok()

    def test_bfs_router_agrees_with_closed_form_lengths(self):
        """The generic BFS fallback routes shortest paths, so the serving
        hop totals match the closed-form dual-cube router's."""
        dc = DualCube(2)
        pairs = open_loop_pairs(dc, 100, seed=3)
        closed = _closed_batch(dc, lambda u, v: route(dc, u, v), pairs)
        generic = _closed_batch(dc, bfs_router(dc), pairs)
        assert generic.path_hops == closed.path_hops


class TestRouterOutputChecks:
    """``run_serving`` checks router output with the helper
    ``run_traffic`` uses, so the messages match its tests."""

    def test_empty_path_names_router_and_pair(self):
        def broken_router(u, v):
            return []

        with pytest.raises(ValueError) as exc:
            _closed_batch(Hypercube(2), broken_router, [(1, 2)])
        msg = str(exc.value)
        assert "broken_router" in msg and "(1, 2)" in msg and "Q_2" in msg

    def test_none_path_treated_as_unroutable(self):
        with pytest.raises(ValueError, match="empty path"):
            _closed_batch(Hypercube(2), lambda u, v: None, [(0, 1)])

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValueError, match="endpoints"):
            _closed_batch(Hypercube(2), lambda u, v: [u, u ^ 1], [(0, 3)])

    def test_non_edge_hop_rejected(self):
        with pytest.raises(ValueError, match=r"non-edge \(0, 3\) on Q_2"):
            _closed_batch(Hypercube(2), lambda u, v: [u, v], [(0, 3)])

    @pytest.mark.parametrize(
        "bad, match",
        [
            # The hop (1, -7) has the key 1 * 8 - 7 of the link (0, 1).
            ((1, -7), r"^node -7 out of range for D_2 with 8 nodes$"),
            ((0, 3), r"^router used non-edge \(0, 3\) on D_2$"),
        ],
        ids=["aliasing-key", "non-edge"],
    )
    def test_a_checked_edge_excuses_only_itself(self, bad, match):
        """Each directed edge goes to ``has_edge`` once per run, but only
        that exact hop skips it later: once valid traffic has made the
        link queue (0, 1), a bad hop still gets its error."""
        dc = DualCube(2)
        paths = {(0, 1): [0, 1], (1, -7): [1, -7], (0, 3): [0, 3]}
        with pytest.raises(ValueError, match=match):
            run_serving(
                dc, lambda u, v: paths[u, v], [0.0, 0.0, 2.0],
                [(0, 1), (0, 1), bad],
            )

    @pytest.mark.parametrize(
        "simulate", [_closed_batch, _traffic_batch], ids=["serving", "traffic"]
    )
    def test_each_directed_edge_is_checked_once_per_run(self, simulate):
        class Counting(DualCube):
            def has_edge(self, u, v):
                calls[u, v] += 1
                return super().has_edge(u, v)

        calls: Counter = Counter()
        dc = Counting(2)
        pairs = open_loop_pairs(dc, 200, seed=3)
        # Routed on a plain D_2: route() checks its own hops with has_edge.
        paths = {pair: route(DualCube(2), *pair) for pair in pairs}
        hops = {hop for path in paths.values() for hop in pairwise(path)}
        for run in (1, 2):  # no state is kept across runs
            simulate(dc, lambda u, v: paths[u, v], pairs)
            assert calls == {hop: run for hop in hops}


@pytest.mark.parametrize(
    "simulate", [_closed_batch, _traffic_batch], ids=["serving", "traffic"]
)
@pytest.mark.parametrize(
    "plan, match",
    [
        (lambda: FaultPlan(node_crashes={999: 1}), "out of range"),
        (lambda: FaultPlan(link_cuts={(0, 3): 1}), "not an edge"),
        (lambda: FaultPlan(downtimes=[(-5, 1, 4)]), "out of range"),
        (lambda: FaultPlan(drops=[(100, 200, 3)]), "out of range"),
    ],
    ids=["crash", "cut", "downtime", "drop"],
)
def test_plan_outside_topology_rejected(simulate, plan, match):
    """Regression: both simulators used to ignore these plans silently,
    so the run equalled the fault-free one and a mistyped rank passed."""
    dc = DualCube(2)
    pairs = open_loop_pairs(dc, 20, seed=1)
    with pytest.raises(ValueError, match=match):
        simulate(dc, lambda u, v: route(dc, u, v), pairs, plan=plan())


class TestServingCore:
    def test_capacity_zero_drops_everything_queued(self):
        """capacity=0: only the in-service slot exists; a second
        simultaneous request on the same link is dropped on arrival."""
        cube = Hypercube(1)
        pairs = [(0, 1), (0, 1)]
        cfg = ServingConfig(queue_capacity=0)
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.0, 0.0], pairs, config=cfg
        )
        assert stats.completions == 1
        assert stats.drops == 1
        assert stats.conservation_ok()

    def test_deadline_miss_is_not_goodput(self):
        cube = Hypercube(1)
        pairs = [(0, 1)] * 4
        cfg = ServingConfig(deadline=2.5)
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.0] * 4, pairs, config=cfg
        )
        # Service completions at t=1,2,3,4: two in deadline, two late.
        assert stats.completions == 2
        assert stats.deadline_misses == 2
        assert stats.goodput == pytest.approx(2 / 4.0)
        assert stats.finished == 4

    def test_self_pair_completes_instantly(self):
        cube = Hypercube(2)
        stats = run_serving(
            cube, hypercube_dimension_order_path, [1.0], [(2, 2)]
        )
        assert stats.completions == 1
        assert stats.hops_served == 0
        assert stats.max_sojourn == 0.0

    def test_horizon_truncates_arrivals(self):
        cube = Hypercube(1)
        cfg = ServingConfig(horizon=2.0)
        stats = run_serving(
            cube,
            hypercube_dimension_order_path,
            [0.0, 1.0, 5.0],
            [(0, 1)] * 3,
            config=cfg,
        )
        assert stats.arrivals == 2
        assert stats.elapsed == 2.0

    def test_block_with_finite_capacity_requires_horizon(self):
        cfg = ServingConfig(queue_capacity=1, policy="block")
        with pytest.raises(ValueError, match="horizon"):
            run_serving(
                Hypercube(1), hypercube_dimension_order_path, [0.0], [(0, 1)],
                config=cfg,
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            run_serving(
                Hypercube(1), hypercube_dimension_order_path, [0.0, 1.0],
                [(0, 1)],
            )

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            trace_arrivals([1.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            trace_arrivals([0.0, float("nan")])
        with pytest.raises(ValueError, match="1-D"):
            trace_arrivals([[0.0], [1.0]])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="service_time"):
            ServingConfig(service_time=0)
        with pytest.raises(ValueError, match="policy"):
            ServingConfig(policy="shed")
        with pytest.raises(ValueError, match="queue_capacity"):
            ServingConfig(queue_capacity=-1)
        with pytest.raises(ValueError, match="deadline"):
            ServingConfig(deadline=0.0)

    def test_onoff_long_run_rate(self):
        times = onoff_arrivals(2.0, 20_000, seed=9)
        assert len(times) / times[-1] == pytest.approx(2.0, rel=0.1)
        assert (np.diff(times) >= 0).all()

    def test_row_shape(self):
        stats = _closed_batch(
            Hypercube(1), hypercube_dimension_order_path, [(0, 1)]
        )
        row = stats.row()
        assert row[0] == "Q_1"
        assert len(row) == 10


class TestFindSaturation:
    def test_validation(self):
        cube = Hypercube(1)
        router = hypercube_dimension_order_path
        with pytest.raises(ValueError, match="requests"):
            find_saturation(cube, router, requests=10)
        with pytest.raises(ValueError, match="max_requests"):
            find_saturation(cube, router, requests=200, max_requests=100)
        with pytest.raises(ValueError, match="rel_tol"):
            find_saturation(cube, router, rel_tol=1.5)

    def test_single_link_knee_is_deterministic_and_sane(self):
        """Q_1 is two M/D/1 queues; the per-node knee sits below the
        service rate (1.0) and the sweep reproduces itself exactly."""
        cube = Hypercube(1)
        kw = dict(requests=100, max_requests=600, window=60.0, seed=4)
        a = find_saturation(cube, hypercube_dimension_order_path, **kw)
        b = find_saturation(cube, hypercube_dimension_order_path, **kw)
        assert a == b
        assert 0.0 < a.rate < 1.0
        assert a.rate <= a.diverged_rate
        assert (a.diverged_rate - a.rate) <= 0.05 * a.diverged_rate
        # The probe log is the audit trail: monotone bracket endpoints.
        assert a.probes[0][0] == 0.01

    @pytest.mark.serving_slow
    def test_e18_dualcube_vs_hypercube_vs_metacube(self):
        """Acceptance sweep (excluded from tier-1; select with
        -m serving_slow): D_3 vs the same-size hypercube Q_5 vs MC(2,1).
        The hypercube's extra links buy a higher per-node knee; the
        metacube's sparser wiring a lower one."""
        dc = DualCube(3)
        q = Hypercube(5)
        mc = Metacube(2, 1)
        r_dc = find_saturation(dc, lambda u, v: route(dc, u, v), seed=0)
        r_q = find_saturation(q, hypercube_dimension_order_path, seed=0)
        r_mc = find_saturation(mc, bfs_router(mc), seed=0)
        assert r_q.rate > r_dc.rate > r_mc.rate
        # Seed-stability: the published E18 numbers reproduce.
        again = find_saturation(dc, lambda u, v: route(dc, u, v), seed=0)
        assert again == r_dc


class TestServingMembershipFaults:
    """Downtime/crash membership threaded into the live queues."""

    def test_down_source_refused_at_admission(self):
        cube = Hypercube(1)
        plan = FaultPlan(downtimes=[(0, 1, 3)])
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.5], [(0, 1)],
            fault_plan=plan,
        )
        # cycle_of(0.5) = 1 is inside [1, 3): refused on arrival.
        assert stats.drops == 1
        assert stats.completions == 0
        assert stats.conservation_ok()

    def test_source_up_again_after_interval_admits(self):
        cube = Hypercube(1)
        plan = FaultPlan(downtimes=[(0, 1, 3)])
        stats = run_serving(
            cube, hypercube_dimension_order_path, [3.5], [(0, 1)],
            fault_plan=plan,
        )
        assert stats.drops == 0
        assert stats.completions == 1

    def test_down_endpoint_blocks_crossing_until_rejoin(self):
        # Source is healthy; the destination is offline when service
        # would complete, so the crossing retransmits in place and only
        # lands after the rejoin.
        cube = Hypercube(1)
        plan = FaultPlan(downtimes=[(1, 1, 4)])
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.25], [(0, 1)],
            fault_plan=plan,
        )
        assert stats.completions == 1
        assert stats.retransmissions >= 1
        assert stats.max_sojourn > 1.0  # waited out the outage
        assert stats.conservation_ok()

    def test_down_endpoint_exhausts_retries_into_drop(self):
        cube = Hypercube(1)
        plan = FaultPlan(downtimes=[(1, 1, 100)], max_retries=3)
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.25], [(0, 1)],
            fault_plan=plan,
        )
        assert stats.completions == 0
        assert stats.drops == 1
        # Every lost attempt counts, including the one that exhausts the
        # budget: max_retries in-place retransmissions + the final loss.
        assert stats.retransmissions == 4
        assert stats.conservation_ok()

    def test_drop_only_plans_unaffected_by_membership_hooks(self):
        # The membership checks consult the same attempt counter stream:
        # a plan with no structural faults reproduces the pre-membership
        # results bit for bit.
        dc = DualCube(2)
        arrivals = np.sort(np.abs(np.sin(np.arange(1, 41)))) * 10.0
        pairs = open_loop_pairs(dc, 40, seed=9)
        plan = lambda: FaultPlan(drop_rate=0.1, seed=5, max_retries=50)
        a = run_serving(dc, lambda u, v: route(dc, u, v), arrivals, pairs,
                        fault_plan=plan())
        b = run_serving(dc, lambda u, v: route(dc, u, v), arrivals, pairs,
                        fault_plan=plan())
        assert repr(a) == repr(b)
