"""Integration tests for the 3-hop emulation under the 1-port model (E8).

These analyze the engine's per-delivery timeline to verify, independently
of the counters, that the claimed schedules are physically consistent: every
message rides an existing link, no node exceeds one send/one receive per
cycle, and the relayed exchanges complete in 3 cycles (packed) / 4 cycles
(single).
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.dual_sort import ScheduleStep
from repro.obs import TimelineRecorder
from repro.simulator import run_spmd
from repro.topology import RecursiveDualCube


def run_single_step(n, dim, policy):
    """``(rdc, keys, result, events)``: one compare-exchange step on D_n
    and the timeline's link events of its run."""
    rdc = RecursiveDualCube(n)
    rng = np.random.default_rng(dim)
    keys = [int(k) for k in rng.integers(0, 100, rdc.num_nodes)]
    step = [ScheduleStep(dim, "const", 0)]
    tl = TimelineRecorder(rdc.num_nodes)
    res = run_spmd(rdc, _program_factory(rdc, keys, step, policy), timeline=tl)
    return rdc, keys, res, tl.events


def _program_factory(rdc, keys, schedule, policy):
    from repro.core.dual_sort import _compare_exchange_program

    def program(ctx):
        key = keys[ctx.rank]
        for step in schedule:
            key = yield from _compare_exchange_program(ctx, rdc, step, key, policy)
        return key

    return program


class TestPortDiscipline:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_one_send_one_recv_per_cycle(self, dim, policy):
        _, _, _, events = run_single_step(3, dim, policy)
        per_cycle_src = Counter((e.cycle, e.src) for e in events)
        per_cycle_dst = Counter((e.cycle, e.dst) for e in events)
        assert all(v == 1 for v in per_cycle_src.values())
        assert all(v == 1 for v in per_cycle_dst.values())

    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    def test_messages_ride_existing_links_only(self, dim):
        rdc, _, _, events = run_single_step(3, dim, "packed")
        for e in events:
            assert rdc.has_edge(e.src, e.dst), (e.src, e.dst)


class TestStepCycleCounts:
    def test_dimension_zero_is_one_cycle(self):
        _, _, res, _ = run_single_step(3, 0, "packed")
        assert res.comm_steps == 1

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_higher_dims_are_three_cycles_packed(self, dim):
        _, _, res, _ = run_single_step(3, dim, "packed")
        assert res.comm_steps == 3

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_higher_dims_are_four_cycles_single(self, dim):
        _, _, res, _ = run_single_step(3, dim, "single")
        assert res.comm_steps == 4

    @pytest.mark.parametrize("dim", [1, 2])
    def test_packed_middle_hop_carries_two_keys(self, dim):
        _, _, _, events = run_single_step(3, dim, "packed")
        sizes = Counter(e.size for e in events)
        half = 16
        assert sizes[2] == half  # middle-hop pair messages
        assert sizes[1] == 2 * half  # cross-edge relay in/out

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_policy_messages_all_one_key(self, dim):
        _, _, _, events = run_single_step(3, dim, "single")
        assert all(e.size == 1 for e in events)


class TestExchangeSemantics:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_every_pair_compares_correctly(self, dim, policy):
        rdc, keys, res, _ = run_single_step(3, dim, policy)
        for u in rdc.nodes():
            v = u ^ (1 << dim)
            lo, hi = sorted((keys[u], keys[v]))
            expected = lo if (u >> dim) & 1 == 0 else hi  # ascending
            assert res.returns[u] == expected, (u, dim)

    def test_relay_traffic_flows_through_cross_edges(self):
        _, _, _, events = run_single_step(2, 1, "packed")
        # dim 1 is odd -> class-1 nodes have links, class-0 are relayed
        # through cross.
        first_cycle = [e for e in events if e.cycle == 1]
        assert first_cycle
        for e in first_cycle:
            assert e.src ^ e.dst == 1  # all cycle-1 messages are cross-edge
            assert e.src & 1 == 0  # from unsupported (class 0 at odd dim)
