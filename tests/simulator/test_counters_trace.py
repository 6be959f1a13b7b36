"""Tests for cost counters, payload sizing, and the trace recorder."""

import pytest

from repro.simulator import CostCounters, Packed, TraceRecorder
from repro.obs import TimelineRecorder
from repro.simulator.counters import Ledger, charge_exchange_step, payload_size


class TestPayloadSize:
    def test_none_is_zero(self):
        assert payload_size(None) == 0

    def test_scalar_is_one(self):
        assert payload_size(42) == 1
        assert payload_size("key") == 1

    def test_plain_tuples_are_single_values(self):
        # A tuple *value* (e.g. a CONCAT partial result) is one item; only
        # the explicit Packed container counts as a multi-key message.
        assert payload_size((1, 2)) == 1
        assert payload_size([1, 2, 3]) == 1

    def test_packed_counts_items(self):
        assert payload_size(Packed((1, 2))) == 2
        assert payload_size(Packed(())) == 0
        assert len(Packed((1, 2, 3))) == 3
        assert Packed((1, 2)) == Packed((1, 2))
        assert Packed((1, 2)) != Packed((2, 1))
        assert Packed((1,)) != (1,)


class TestCostCounters:
    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            CostCounters(0)

    def test_compute_recording(self):
        c = CostCounters(3)
        c.record_compute(0, 2)
        c.record_compute(0, 1)
        c.record_compute(2, 5)
        assert c.comp_steps == 2
        assert c.max_node_ops == 5
        assert c.total_ops == 8

    def test_compute_rejects_negative_ops(self):
        with pytest.raises(ValueError):
            CostCounters(2).record_compute(0, -1)

    def test_vectorized_side_recording(self):
        c = CostCounters(8)
        c.record_comm_step(messages=8)
        c.record_comm_step(messages=4, payload_items=8, max_payload=2)
        c.record_comp_step(ops_each=2)
        c.record_comp_step(ops_each=1, ranks=[0, 1])
        assert c.comm_steps == 2
        assert c.messages == 12
        assert c.payload_items == 16
        assert c.max_message_payload == 2
        assert c.comp_steps == 2  # ranks 0-1 did two rounds
        assert c.max_node_ops == 3

    def test_comp_step_duplicate_ranks_all_counted(self):
        """Regression: buffered fancy indexing collapsed duplicate ranks,
        so a node doing several rounds in one call was undercounted."""
        c = CostCounters(4)
        c.record_comp_step(ops_each=1, ranks=[1, 1, 2])
        assert c.comp_steps == 2  # rank 1 did two rounds
        assert c.total_ops == 3
        assert c.max_node_ops == 2

    def test_comp_step_duplicate_ranks_accumulate_ops(self):
        c = CostCounters(3)
        c.record_comp_step(ops_each=5, ranks=[0, 0, 0, 2])
        c.record_comp_step(ops_each=1, ranks=[2])
        assert c.comp_steps == 3
        assert c.max_node_ops == 15
        assert c.total_ops == 21

    def test_record_bulk_adds_engine_tallies(self):
        c = CostCounters(4)
        c.record_bulk(
            cycles=2,
            active_cycles=1,
            messages=2,
            payload_items=3,
            max_message_payload=2,
            sends=[1, 0, 1, 0],
            recvs=[0, 1, 0, 1],
        )
        assert c.cycles == 2
        assert c.active_cycles == 1
        assert c.messages == 2
        assert c.payload_items == 3
        assert c.max_message_payload == 2
        assert list(c.sends) == [1, 0, 1, 0]
        assert list(c.recvs) == [0, 1, 0, 1]

    def test_record_bulk_keeps_existing_max_payload(self):
        c = CostCounters(2)
        c.record_comm_step(messages=1, payload_items=3, max_payload=3)
        c.record_bulk(
            cycles=1,
            active_cycles=1,
            messages=1,
            payload_items=1,
            max_message_payload=1,
            sends=[0, 1],
            recvs=[1, 0],
        )
        assert c.max_message_payload == 3

    def test_zero_message_step_not_active(self):
        c = CostCounters(2)
        c.record_comm_step(messages=0)
        assert c.cycles == 1
        assert c.active_cycles == 0

    def test_summary_keys(self):
        s = CostCounters(2).summary()
        assert set(s) == {
            "comm_steps",
            "comp_steps",
            "messages",
            "payload_items",
            "max_message_payload",
            "max_node_ops",
            "total_ops",
            "messages_dropped",
            "retries",
            "timeouts",
            "node_crashes",
        }

    def test_fault_counter_hooks(self):
        c = CostCounters(2)
        c.record_drop()
        c.record_drop()
        c.record_timeout()
        c.record_crash()
        s = c.summary()
        assert s["messages_dropped"] == 2
        assert s["retries"] == 2
        assert s["timeouts"] == 1
        assert s["node_crashes"] == 1

    def test_repr_contains_summary(self):
        assert "comm_steps=0" in repr(CostCounters(2))


class TestLedger:
    """A :class:`Ledger` charged in one call leaves the counters and an
    attached timeline exactly as recording its steps one by one does."""

    @staticmethod
    def _record(target):
        target.record_comm_step(messages=8)
        target.record_comp_step(ops_each=2)
        charge_exchange_step(target, 8, False, payload_policy="single",
                             block=3, ops_each=6)
        target.record_comm_step(messages=0)

    def test_ledger_keeps_scalars_and_ordered_steps(self):
        led = Ledger()
        self._record(led)
        assert (led.cycles, led.active_cycles) == (6, 5)
        assert (led.messages, led.payload_items) == (24, 56)
        assert led.max_message_payload == 3
        assert (led.shared_calls, led.shared_ops) == (2, 8)
        assert [s[0] for s in led.steps] == [
            "comm", "comp", "comm", "comm", "comm", "comm", "comp", "comm"]

    def test_charge_equals_step_by_step_recording(self):
        led = Ledger()
        self._record(led)
        one, each = CostCounters(8), CostCounters(8)
        tl_one, tl_each = TimelineRecorder(8), TimelineRecorder(8)
        one.attach_timeline(tl_one)
        each.attach_timeline(tl_each)
        for c in (one, each):
            c.record_comp_step(ops_each=1, ranks=range(4, 8))
        one.charge(led)
        self._record(each)
        assert one.summary() == each.summary()
        assert one.comp_calls.tolist() == each.comp_calls.tolist()
        assert one.comp_ops.tolist() == each.comp_ops.tolist()
        assert tl_one.steps == tl_each.steps
        assert len(tl_one.steps) == 9

    def test_per_rank_arrays_add_shared_and_subset_charges(self):
        c = CostCounters(4)
        c.record_comp_step(ops_each=3)
        c.record_comp_step(ops_each=1, ranks=range(2, 4))
        c.record_compute(0, 5)
        assert c.comp_calls.tolist() == [2, 1, 2, 2]
        assert c.comp_ops.tolist() == [8, 3, 4, 4]
        assert (c.comp_steps, c.max_node_ops, c.total_ops) == (2, 8, 19)

    def test_exchange_step_charges(self):
        for policy, cycles, items in (("packed", 3, 16), ("single", 4, 16)):
            led = Ledger()
            charge_exchange_step(led, 8, False, payload_policy=policy)
            assert (led.cycles, led.messages) == (cycles, 4 * cycles)
            assert led.payload_items == items
            assert led.max_message_payload == (2 if policy == "packed" else 1)
        led = Ledger()
        charge_exchange_step(led, 8, True, block=4, ops_each=8)
        assert (led.cycles, led.messages, led.payload_items) == (1, 8, 32)
        assert (led.max_message_payload, led.shared_ops) == (4, 8)


class TestTraceRecorder:
    def test_record_and_snapshot(self):
        t = TraceRecorder()
        for r in range(4):
            t.record("a", r, r * r)
        assert t.labels() == ("a",)
        assert t.snapshot("a", 4) == [0, 1, 4, 9]
        assert t.depth("a") == 1

    def test_record_array(self):
        t = TraceRecorder()
        t.record_array("x", [5, 6, 7])
        assert t.snapshot("x", 3) == [5, 6, 7]

    def test_series_in_order(self):
        t = TraceRecorder()
        t.record_array("x", [1, 2])
        t.record_array("x", [3, 4])
        assert t.series("x", 2) == [[1, 2], [3, 4]]
        assert t.depth("x") == 2

    def test_labels_preserve_first_seen_order(self):
        t = TraceRecorder()
        t.record("b", 0, 1)
        t.record("a", 0, 1)
        t.record("b", 0, 2)
        assert t.labels() == ("b", "a")

    def test_incomplete_snapshot_raises(self):
        t = TraceRecorder()
        t.record("x", 0, 1)
        with pytest.raises(KeyError, match="rank 1"):
            t.snapshot("x", 2)

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            TraceRecorder().snapshot("missing", 1)

    def test_unknown_label_lists_known_labels(self):
        """Regression: a bare ``KeyError: 'label'`` said nothing about what
        *was* recorded; the message now enumerates the known labels."""
        t = TraceRecorder()
        t.record_array("input", [1, 2])
        t.record_array("output", [3, 4])
        for call in (
            lambda: t.snapshot("step 1", 2),
            lambda: t.depth("step 1"),
            lambda: t.series("step 1", 2),
        ):
            with pytest.raises(KeyError, match="'input', 'output'"):
                call()

    def test_unknown_label_on_empty_recorder_says_none(self):
        with pytest.raises(KeyError, match="<none>"):
            TraceRecorder().depth("x")

    def test_record_array_validates_length(self):
        t = TraceRecorder(num_nodes=4)
        with pytest.raises(ValueError, match="expects exactly 4"):
            t.record_array("x", [1, 2, 3])
        with pytest.raises(ValueError, match="expects exactly 4"):
            t.record_array("x", [1, 2, 3, 4, 5])
        # Nothing was recorded by the rejected snapshots.
        assert t.labels() == ()
        t.record_array("x", [1, 2, 3, 4])
        assert t.snapshot("x", 4) == [1, 2, 3, 4]

    def test_record_array_validates_generators(self):
        # The iterable is materialized before the check, so a too-short
        # generator is caught just like a list.
        t = TraceRecorder(num_nodes=3)
        with pytest.raises(ValueError, match="has 2 values"):
            t.record_array("x", (v for v in [1, 2]))

    def test_record_array_unsized_recorder_accepts_any_length(self):
        t = TraceRecorder()
        t.record_array("x", [1, 2])
        assert t.snapshot("x", 2) == [1, 2]

    def test_bad_num_nodes_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TraceRecorder(num_nodes=0)
        with pytest.raises(ValueError, match="positive"):
            TraceRecorder(num_nodes=-3)
