"""Property-based suite for the serving simulator.

Three invariants drive the design of :mod:`repro.simulator.serving`, and
each gets a Hypothesis property here:

* **Determinism** — identical inputs (arrivals, pairs, config, fault
  plan) reproduce an identical :class:`ServingStats`, down to the repr:
  event ties are broken by explicit sequence numbers, never hash order.
* **Reorder invariance** — the relative order of *simultaneous* trace
  arrivals is presentation, not semantics: with unbounded queues, every
  aggregate counter (outcomes, hop totals, per-link loads) is invariant
  under permuting same-time entries.
* **Conservation** — ``arrivals == completions + drops + deadline_misses
  + in_flight`` at the end of the run *and at every checkpoint*, across
  random capacities, deadlines, horizons and fault plans.  This is the
  bookkeeping identity any accounting bug breaks first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import route
from repro.simulator import FaultPlan
from repro.simulator.serving import (
    ServingConfig,
    open_loop_pairs,
    poisson_arrivals,
    run_serving,
)
from repro.simulator.traffic import run_traffic
from repro.topology import DualCube, Topology

_DC = DualCube(2)


def _router(u, v):
    return route(_DC, u, v)


_router.__name__ = "dualcube_route"


def _workload(num, seed, rate=2.0):
    arrivals = poisson_arrivals(rate, num, seed=seed)
    pairs = open_loop_pairs(_DC, num, seed=seed + 1)
    return arrivals, pairs


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 80),
        st.integers(0, 2**31 - 1),
        st.sampled_from([None, 0, 1, 3]),
        st.sampled_from([None, 4.0, 12.0]),
    )
    def test_same_inputs_same_stats(self, num, seed, capacity, deadline):
        arrivals, pairs = _workload(num, seed)
        cfg = ServingConfig(
            queue_capacity=capacity, deadline=deadline, checkpoint_every=2.0
        )
        a = run_serving(_DC, _router, arrivals, pairs, config=cfg)
        b = run_serving(_DC, _router, arrivals, pairs, config=cfg)
        assert a == b
        # Byte-identical, not merely ==: the stats double as a regression
        # fingerprint, so even float formatting must reproduce.
        assert repr(a) == repr(b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**31 - 1))
    def test_deterministic_under_faults(self, num, seed):
        arrivals, pairs = _workload(num, seed)
        plan = FaultPlan(drop_rate=0.2, seed=seed % 1000, max_retries=50)
        a = run_serving(_DC, _router, arrivals, pairs, fault_plan=plan)
        b = run_serving(_DC, _router, arrivals, pairs, fault_plan=plan)
        assert a == b and repr(a) == repr(b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**31 - 1))
    def test_different_seeds_differ(self, num, seed):
        """The seed actually reaches the workload (no silent reseeding)."""
        a1, p1 = _workload(num, seed)
        a2, p2 = _workload(num, seed + 1)
        assert not (np.array_equal(a1, a2) and p1 == p2)


class TestReorderInvariance:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 50), st.integers(0, 2**31 - 1))
    def test_simultaneous_arrival_order_is_immaterial(self, num, seed):
        rng = np.random.default_rng(seed)
        # Integer-valued times force many exact ties.
        times = np.sort(rng.integers(0, max(2, num // 3), num)).astype(float)
        pairs = open_loop_pairs(_DC, num, seed=seed)

        # Permute entries *within* each equal-time group.
        perm = np.arange(num)
        for t in np.unique(times):
            (idx,) = np.nonzero(times == t)
            perm[idx] = rng.permutation(idx)
        shuffled_pairs = [pairs[i] for i in perm]
        assert sorted(shuffled_pairs) == sorted(pairs)

        a = run_serving(_DC, _router, times, pairs)
        b = run_serving(_DC, _router, times, shuffled_pairs)
        assert (a.arrivals, a.completions, a.drops, a.deadline_misses,
                a.in_flight) == (b.arrivals, b.completions, b.drops,
                                 b.deadline_misses, b.in_flight)
        assert a.hops_served == b.hops_served
        assert a.path_hops == b.path_hops
        assert a.link_loads == b.link_loads


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 80),
        st.integers(0, 2**31 - 1),
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([None, 3.0, 8.0]),
        st.sampled_from([None, 10.0]),
        st.booleans(),
    )
    def test_holds_at_every_checkpoint(
        self, num, seed, capacity, deadline, horizon, faulty
    ):
        arrivals, pairs = _workload(num, seed, rate=3.0)
        cfg = ServingConfig(
            queue_capacity=capacity,
            deadline=deadline,
            horizon=horizon,
            checkpoint_every=1.0,
        )
        plan = (
            FaultPlan(drop_rate=0.15, seed=seed % 997, max_retries=20)
            if faulty
            else None
        )
        stats = run_serving(
            _DC, _router, arrivals, pairs, config=cfg, fault_plan=plan
        )
        assert stats.conservation_ok()
        # Assert the identity by hand too, so a bug in conservation_ok()
        # itself cannot vacuously pass.
        assert stats.arrivals == (
            stats.completions + stats.drops + stats.deadline_misses
            + stats.in_flight
        )
        for c in stats.checkpoints:
            assert c.arrivals == (
                c.completions + c.drops + c.deadline_misses + c.in_flight
            )
        # Checkpoint counters are non-decreasing in time.
        for prev, cur in zip(stats.checkpoints, stats.checkpoints[1:]):
            assert cur.time > prev.time
            assert cur.arrivals >= prev.arrivals
            assert cur.completions >= prev.completions
            assert cur.drops >= prev.drops
            assert cur.deadline_misses >= prev.deadline_misses

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["drop", "block"]),
        st.booleans(),
    )
    def test_early_drain_trailing_checkpoints_conserve(
        self, num, seed, policy, faulty
    ):
        # The workload drains long before the horizon; the trailing
        # checkpoints over the idle tail must keep the identity and
        # freeze at the final totals (regression: they used to stop at
        # the last event instead of covering the configured window).
        arrivals, pairs = _workload(num, seed, rate=5.0)
        horizon = float(np.ceil(arrivals[-1])) + 25.0
        cfg = ServingConfig(
            queue_capacity=1 if policy == "block" else None,
            policy=policy,
            horizon=horizon,
            checkpoint_every=2.0,
        )
        plan = (
            FaultPlan(drop_rate=0.2, seed=seed % 911, max_retries=30)
            if faulty
            else None
        )
        stats = run_serving(
            _DC, _router, arrivals, pairs, config=cfg, fault_plan=plan
        )
        assert stats.elapsed == horizon
        assert stats.conservation_ok()
        for c in stats.checkpoints:
            assert c.arrivals == (
                c.completions + c.drops + c.deadline_misses + c.in_flight
            )
        # The series reaches the end of the window, not the last event.
        assert stats.checkpoints[-1].time == pytest.approx(
            2.0 * int(horizon // 2.0)
        )
        tail = stats.checkpoints[-1]
        assert tail.arrivals == stats.arrivals
        assert tail.in_flight == stats.in_flight

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 50), st.integers(0, 2**31 - 1))
    def test_blocking_policy_conserves_at_horizon(self, num, seed):
        arrivals, pairs = _workload(num, seed, rate=4.0)
        cfg = ServingConfig(
            queue_capacity=1, policy="block", horizon=8.0, checkpoint_every=1.0
        )
        stats = run_serving(_DC, _router, arrivals, pairs, config=cfg)
        assert stats.conservation_ok()
        assert stats.drops == 0  # backpressure never discards
        # Whatever did not finish by the horizon is in flight.
        assert stats.in_flight == stats.arrivals - stats.finished


class TestHorizonWindowAccounting:
    """The configured horizon *is* the observation window.

    Regression suite for the elapsed-time bug: a run that drained before
    its horizon used to report rates over the last-event time instead of
    the full configured window, inflating goodput, utilization and queue
    occupancy, and truncating the trailing checkpoint series.
    """

    def _drained_run(self, horizon):
        arrivals = np.array([0.5, 1.0, 1.5, 2.0])
        pairs = open_loop_pairs(_DC, 4, seed=3)
        cfg = ServingConfig(horizon=horizon, checkpoint_every=4.0)
        return run_serving(_DC, _router, arrivals, pairs, config=cfg)

    def test_idle_tail_counts_toward_elapsed(self):
        stats = self._drained_run(40.0)
        assert stats.in_flight == 0  # drained long before the horizon
        assert stats.elapsed == 40.0
        assert stats.goodput == pytest.approx(stats.completions / 40.0)

    def test_checkpoints_cover_the_idle_tail(self):
        stats = self._drained_run(40.0)
        assert [c.time for c in stats.checkpoints] == [
            4.0 * k for k in range(1, 11)
        ]
        tail = stats.checkpoints[-1]
        assert tail.arrivals == 4
        assert tail.in_flight == 0
        assert tail.completions == stats.completions

    def test_rates_dilute_with_longer_window(self):
        short = self._drained_run(10.0)
        long = self._drained_run(50.0)
        # Same drained workload, 5x window: every rate shrinks 5x.
        assert long.completions == short.completions
        assert long.goodput == pytest.approx(short.goodput / 5.0)
        assert long.utilization == pytest.approx(short.utilization / 5.0)
        for key, occ in long.occupancy.items():
            assert occ.utilization == pytest.approx(
                short.occupancy[key].utilization / 5.0
            )
            assert occ.mean_queue == pytest.approx(
                short.occupancy[key].mean_queue / 5.0
            )

    def test_unbounded_run_ends_at_last_event(self):
        arrivals = np.array([0.5, 1.0, 1.5, 2.0])
        pairs = open_loop_pairs(_DC, 4, seed=3)
        cfg = ServingConfig(checkpoint_every=4.0)
        stats = run_serving(_DC, _router, arrivals, pairs, config=cfg)
        # No horizon: the window ends with the last event, well before
        # the bounded runs' tails, and rates use that shorter window.
        assert 2.0 <= stats.elapsed < 10.0
        assert stats.goodput == pytest.approx(
            stats.completions / stats.elapsed
        )


def _array_router(u, v):
    return np.asarray(route(_DC, u, v))


class TestArrayPathRouter:
    """A router may return its path as a NumPy array: its nodes become
    Python ints, so the stats (link keys included) and the fault plan's
    drop and delay verdicts are those of the same path as a list."""

    @pytest.mark.parametrize("plan", [
        FaultPlan(drop_rate=0.2, seed=3),
        FaultPlan(delay_rate=0.2, seed=3),
    ], ids=["drop", "delay"])
    def test_serving_equals_list_router(self, plan):
        arrivals, pairs = _workload(200, seed=5)
        want = run_serving(_DC, _router, arrivals, pairs, fault_plan=plan)
        got = run_serving(_DC, _array_router, arrivals, pairs,
                          fault_plan=plan)
        assert repr(got) == repr(want)

    def test_traffic_equals_list_router(self):
        plan = FaultPlan(drop_rate=0.2, seed=3)
        pairs = open_loop_pairs(_DC, 200, seed=6)
        got = run_traffic(_DC, _array_router, pairs, fault_plan=plan)
        assert repr(got) == repr(
            run_traffic(_DC, _router, pairs, fault_plan=plan))

    def test_float_path_rejected(self):
        class Ring(Topology):
            num_nodes = 4

            def neighbors(self, u):
                return ((u - 1) % 4, (u + 1) % 4)

        with pytest.raises(TypeError):
            run_traffic(Ring(), lambda u, v: [0.0, 1.0, 2.0], [(0, 2)])
