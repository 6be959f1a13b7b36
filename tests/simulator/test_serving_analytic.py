"""Analytic validation of the serving simulator against queueing theory.

A single hypercube link fed Poisson arrivals with deterministic service
is exactly an M/D/1 queue, which has a closed-form mean sojourn time
(Pollaczek-Khinchine):

    T = 1/mu + rho / (2 * mu * (1 - rho))        with rho = lambda / mu

These tests pin the event core to that formula within 5% and pin
utilization to offered load below saturation — if the simulator's
bookkeeping (server occupancy, FIFO hand-off, busy-time integration)
drifts, these are the tests that notice, independent of any
implementation detail.
"""

import numpy as np
import pytest

from repro.simulator import FaultPlan
from repro.simulator.serving import (
    ServingConfig,
    deterministic_arrivals,
    poisson_arrivals,
    run_serving,
)
from repro.simulator.traffic import hypercube_dimension_order_path
from repro.topology import Hypercube

# One directed link: every request goes 0 -> 1 on Q_1.
_LINK = Hypercube(1)
_N = 50_000


def _md1_sojourn(rho: float, mu: float = 1.0) -> float:
    """Pollaczek-Khinchine mean sojourn for M/D/1."""
    return 1.0 / mu + rho / (2.0 * mu * (1.0 - rho))


def _single_link_run(rho: float, *, seed: int = 1, num: int = _N):
    arrivals = poisson_arrivals(rho, num, seed=seed)
    pairs = [(0, 1)] * num
    return run_serving(_LINK, hypercube_dimension_order_path, arrivals, pairs)


class TestMD1:
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_mean_sojourn_matches_closed_form(self, rho):
        stats = _single_link_run(rho)
        assert stats.completions == _N
        assert stats.mean_sojourn == pytest.approx(_md1_sojourn(rho), rel=0.05)

    def test_sojourn_grows_with_load(self):
        """Monotonicity sanity: heavier load means longer mean sojourn."""
        means = [_single_link_run(rho).mean_sojourn for rho in (0.2, 0.5, 0.8)]
        assert means == sorted(means)
        # At rho=0.8 queueing delay dominates: T = 1 + 0.8/0.4 = 3.0.
        assert means[-1] == pytest.approx(_md1_sojourn(0.8), rel=0.05)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_utilization_equals_offered_load(self, rho):
        """Below saturation the server is busy exactly rho of the time."""
        stats = _single_link_run(rho)
        occ = stats.occupancy[(0, 1)]
        assert occ.utilization == pytest.approx(rho, rel=0.03)
        # The aggregate property averages loaded links; here there is one.
        assert stats.utilization == pytest.approx(rho, rel=0.03)

    def test_mean_queue_matches_littles_law(self):
        """L_q = lambda * W_q for the waiting buffer (Little's law)."""
        rho = 0.6
        stats = _single_link_run(rho)
        w_q = stats.mean_sojourn - 1.0  # waiting time = sojourn - service
        occ = stats.occupancy[(0, 1)]
        assert occ.mean_queue == pytest.approx(rho * w_q, rel=0.05)


class TestDD1:
    """Deterministic arrivals below capacity see zero queueing."""

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.99])
    def test_every_sojourn_is_exactly_one_service_time(self, rho):
        num = 2_000
        arrivals = deterministic_arrivals(rho, num)
        pairs = [(0, 1)] * num
        stats = run_serving(_LINK, hypercube_dimension_order_path, arrivals, pairs)
        assert stats.completions == num
        # abs tolerance only: arrival times are cumulative floats, so the
        # sojourns at rho=0.99 carry ~1e-13 of accumulated rounding.
        for value in (stats.mean_sojourn, stats.p50, stats.p99, stats.p999,
                      stats.max_sojourn):
            assert value == pytest.approx(1.0, abs=1e-9)
        occ = stats.occupancy[(0, 1)]
        assert occ.max_queue == 0

    def test_goodput_equals_arrival_rate(self):
        """Open loop below saturation: throughput out = offered load in."""
        rho = 0.5
        num = 10_000
        arrivals = deterministic_arrivals(rho, num)
        stats = run_serving(
            _LINK, hypercube_dimension_order_path, arrivals, [(0, 1)] * num
        )
        assert stats.goodput == pytest.approx(rho, rel=0.01)

    def test_overload_never_clears_the_queue(self):
        """rho > 1 with D/D/1: backlog grows linearly, p99 reflects it."""
        num = 2_000
        arrivals = deterministic_arrivals(2.0, num)  # 2x service rate
        stats = run_serving(
            _LINK, hypercube_dimension_order_path, arrivals, [(0, 1)] * num
        )
        # Request i arrives at i/2 and departs at i+1: sojourn i/2 + 1.
        assert stats.max_sojourn == pytest.approx(num / 2.0, rel=0.01)
        assert stats.occupancy[(0, 1)].utilization == pytest.approx(1.0, rel=0.01)


class TestFailedAttempts:
    def test_retransmissions_count_as_busy_time(self):
        """A dropped crossing occupies the server like a delivered one:
        four attempts of one request keep the link busy all 4 time units."""
        stats = run_serving(
            _LINK, hypercube_dimension_order_path, [0.0], [(0, 1)],
            fault_plan=FaultPlan(drop_rate=1.0, max_retries=3),
        )
        assert stats.retransmissions == 4 and stats.drops == 1
        assert stats.occupancy[(0, 1)].utilization == 1.0
        assert stats.utilization == 1.0


class TestPoissonProcess:
    """The arrival-process generators themselves obey their contracts."""

    def test_poisson_rate_converges(self):
        times = poisson_arrivals(4.0, 40_000, seed=3)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(4.0, rel=0.03)

    def test_deterministic_spacing_is_exact(self):
        times = deterministic_arrivals(0.25, 5)
        assert np.allclose(times, [0.0, 4.0, 8.0, 12.0, 16.0])
