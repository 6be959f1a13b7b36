"""Differential tests: the indexed matcher against the legacy reference.

Every engine-backed core algorithm runs twice — once under
``matching="legacy"`` (the original whole-snapshot rescan, kept verbatim
as the oracle) and once under ``matching="indexed"`` (the slot-array
worklist matcher) — and must produce identical returns, communication
steps, computation steps, and per-node send/receive tallies.
"""

import numpy as np
import pytest

from repro.core.dual_prefix import dual_prefix_engine
from repro.core.dual_sort import dual_sort_engine
from repro.core.large_inputs import large_prefix_engine
from repro.core.ops import ADD, MAX, AssocOp
from repro.routing import (
    allgather_engine,
    allreduce_engine,
    broadcast_engine,
    gather_engine,
    scatter_engine,
)
from repro.routing.fault_tolerant import ft_route
from repro.routing.ring_allreduce import ring_allreduce_engine
from repro.simulator import Idle, Recv, Send, SendRecv, run_spmd, use_matching
from repro.topology import (
    DualCube,
    FaultSet,
    FaultyTopology,
    Hypercube,
    RecursiveDualCube,
)


def _fingerprint(result):
    """Everything the differential contract covers, in comparable form."""
    return {
        "returns": list(result.returns),
        "summary": result.counters.summary(),
        "sends": result.counters.sends.tolist(),
        "recvs": result.counters.recvs.tolist(),
        "active_cycles": result.counters.active_cycles,
    }


def assert_matchers_agree(run):
    """``run`` performs one engine-backed algorithm and returns its EngineResult."""
    with use_matching("legacy"):
        legacy = _fingerprint(run())
    with use_matching("indexed"):
        indexed = _fingerprint(run())
    assert indexed == legacy
    return legacy


class TestCoreAlgorithms:
    @pytest.mark.parametrize("op", [ADD, MAX], ids=["add", "max"])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_dual_prefix_engine(self, small_n, op, paper_literal, rng):
        dc = DualCube(small_n)
        vals = [int(x) for x in rng.integers(0, 100, dc.num_nodes)]

        expected = []
        for v in vals:
            expected.append(v if not expected else op(expected[-1], v))

        def run():
            out, result = dual_prefix_engine(
                dc, vals, op, paper_literal=paper_literal
            )
            assert list(out) == expected
            return result

        assert_matchers_agree(run)

    def test_dual_prefix_engine_non_commutative(self, small_n):
        dc = DualCube(small_n)
        strcat = AssocOp("strcat", lambda a, b: a + b, "", commutative=False)
        vals = [f"<{k}>" for k in range(dc.num_nodes)]

        def run():
            out, result = dual_prefix_engine(dc, vals, strcat)
            assert out[-1] == "".join(vals)
            return result

        assert_matchers_agree(run)

    @pytest.mark.parametrize("payload_policy", ["packed", "single"])
    def test_dual_sort_engine(self, small_n, payload_policy, rng):
        rdc = RecursiveDualCube(small_n)
        keys = [int(x) for x in rng.permutation(rdc.num_nodes)]

        def run():
            out, result = dual_sort_engine(
                rdc, keys, payload_policy=payload_policy
            )
            assert out == sorted(keys)
            return result

        assert_matchers_agree(run)

    def test_large_prefix_engine(self, rng):
        dc = DualCube(2)
        vals = [int(x) for x in rng.integers(0, 50, dc.num_nodes * 4)]

        def run():
            out, result = large_prefix_engine(dc, vals, ADD)
            assert list(out) == list(np.cumsum(vals))
            return result

        assert_matchers_agree(run)


class TestCollectives:
    def test_broadcast(self, small_n):
        dc = DualCube(small_n)

        def run():
            values, result = broadcast_engine(dc, 0, "tok")
            assert values == ["tok"] * dc.num_nodes
            return result

        assert_matchers_agree(run)

    def test_allreduce(self, small_n, rng):
        dc = DualCube(small_n)
        vals = [int(x) for x in rng.integers(0, 100, dc.num_nodes)]

        def run():
            totals, result = allreduce_engine(dc, vals, ADD)
            assert totals == [sum(vals)] * dc.num_nodes
            return result

        assert_matchers_agree(run)

    def test_scatter_gather_allgather(self, small_n):
        dc = DualCube(small_n)
        items = [f"item{k}" for k in range(dc.num_nodes)]

        def run_scatter():
            _, result = scatter_engine(dc, 0, items)
            return result

        def run_gather():
            _, result = gather_engine(dc, 0, items)
            return result

        def run_allgather():
            _, result = allgather_engine(dc, items)
            return result

        assert_matchers_agree(run_scatter)
        assert_matchers_agree(run_gather)
        assert_matchers_agree(run_allgather)

    def test_ring_allreduce_shift_heavy(self, small_n, rng):
        rdc = RecursiveDualCube(small_n)
        if rdc.num_nodes < 3:
            pytest.skip("ring needs >= 3 nodes")
        vectors = rng.integers(0, 20, (rdc.num_nodes, rdc.num_nodes)).tolist()

        def run():
            results, result = ring_allreduce_engine(rdc, vectors, ADD)
            expected = list(np.asarray(vectors).sum(axis=0))
            assert all(list(r) == expected for r in results)
            return result

        assert_matchers_agree(run)


class TestFaultTolerantRouting:
    def test_store_and_forward_over_ft_paths(self):
        """Tokens relayed hop-by-hop along fault-tolerant routes.

        The per-hop Send/Recv/Idle weave exercises exactly the snapshot
        pruning the matchers must agree on: most requests block for many
        cycles while one hop at a time completes.
        """
        dc = DualCube(2)
        ft = FaultyTopology(dc, FaultSet(links=[(0, dc.neighbors(0)[0])]))
        healthy = ft.healthy_nodes()
        pairs = [(healthy[0], healthy[-1]), (healthy[-1], healthy[1])]
        paths = [ft_route(ft, u, v) for u, v in pairs]
        assert all(p is not None for p in paths)

        def program(ctx):
            u = ctx.rank
            received = []
            for path in paths:
                token = f"msg-from-{path[0]}" if u == path[0] else None
                pos = path.index(u) if u in path else -1
                for k in range(len(path) - 1):
                    if pos == k:
                        yield Send(path[k + 1], token)
                    elif pos == k + 1:
                        token = yield Recv(path[k])
                    else:
                        yield Idle()
                if pos == len(path) - 1:
                    received.append(token)
            return received

        def run():
            result = run_spmd(ft, program)
            for (u, v), path in zip(pairs, paths):
                assert f"msg-from-{u}" in result.returns[v]
                assert result.comm_steps == sum(len(p) - 1 for p in paths)
            return result

        assert_matchers_agree(run)


class TestStaggeredStress:
    def test_staggered_pairwise_exchanges(self):
        """Pairs idle different amounts before exchanging: heavy pruning."""
        cube = Hypercube(3)

        def program(ctx):
            u = ctx.rank
            total = 0
            for d in range(3):
                partner = u ^ (1 << d)
                # Both pair members agree on the stagger; distinct pairs
                # do not, so every cycle's snapshot mixes ready and
                # blocked requests.
                for _ in range((min(u, partner) * 7 + d) % 3):
                    yield Idle()
                got = yield SendRecv(partner, u + total)
                total += got
            return total

        assert_matchers_agree(lambda: run_spmd(cube, program))

    def test_relay_wave_worst_case_for_rescan(self):
        """A token snaking down a Gray-code path with all receivers posted
        up front — the legacy matcher's quadratic pruning case."""
        cube = Hypercube(3)
        gray = [0, 1, 3, 2, 6, 7, 5, 4]
        pos_of = {node: k for k, node in enumerate(gray)}

        def program(ctx):
            pos = pos_of[ctx.rank]
            if pos == 0:
                yield Send(gray[1], 1)
                return 0
            token = yield Recv(gray[pos - 1])
            if pos + 1 < len(gray):
                yield Send(gray[pos + 1], token + 1)
            return token

        def run():
            result = run_spmd(cube, program)
            assert [result.returns[gray[k]] for k in range(8)] == list(range(8))
            assert result.comm_steps == 7
            return result

        assert_matchers_agree(run)


class TestFastModeEquivalence:
    def test_fast_mode_skips_message_log_only_when_unrequested(self):
        def program(ctx):
            yield SendRecv(ctx.rank ^ 1, ctx.rank)

        assert run_spmd(Hypercube(1), program).message_log is None
        # The log is kept when it is requested.
        res = run_spmd(Hypercube(1), program, log_messages=True)
        assert len(res.message_log) == 2
