"""TimelineRecorder unit semantics (no engine involved)."""

import pytest

from repro.obs import (
    CycleAggregate,
    FaultEvent,
    LinkEvent,
    TimelineRecorder,
    cross_validate_timeline,
)


class TestEvents:
    def test_record_message_keeps_order_and_fields(self):
        t = TimelineRecorder()
        t.record_message(1, 0, 4, size=2, kind="sendrecv")
        t.record_message(1, 4, 0)
        (a, b) = t.events
        assert a == LinkEvent(1, 0, 4, 2, "sendrecv")
        assert b.size == 1 and b.kind == "send"
        assert a.link == b.link == (0, 4)

    def test_bulk_load_preserves_per_cycle_resolution(self):
        t = TimelineRecorder()
        t.bulk_load_messages(
            [(1, 0, 1, 1, "send"), (3, 1, 0, 1, "send"), (1, 2, 3, 1, "send")]
        )
        aggs = t.cycle_aggregates()
        assert [a.messages for a in aggs] == [2, 0, 1]

    def test_fault_kind_validated(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultEvent(1, "meltdown")
        t = TimelineRecorder()
        with pytest.raises(ValueError, match="fault kind"):
            t.record_fault(1, "meltdown")

    def test_fault_counts(self):
        t = TimelineRecorder()
        t.record_fault(1, "drop", rank=0, src=0, dst=1)
        t.record_fault(2, "drop", rank=3)
        t.record_fault(5, "crash", rank=1)
        assert t.fault_counts() == {
            "drop": 2, "timeout": 0, "crash": 1, "leave": 0, "join": 0,
        }

    def test_bad_num_nodes_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TimelineRecorder(num_nodes=0)


class TestCycles:
    def test_set_cycles_is_monotonic_max(self):
        t = TimelineRecorder()
        t.set_cycles(5)
        t.set_cycles(3)
        assert t.num_cycles == 5
        with pytest.raises(ValueError, match="non-negative"):
            t.set_cycles(-1)

    def test_num_cycles_covers_trailing_idle_and_late_faults(self):
        t = TimelineRecorder()
        t.record_message(2, 0, 1)
        assert t.num_cycles == 2
        t.record_fault(4, "timeout", rank=0)
        assert t.num_cycles == 4
        t.set_cycles(7)  # engine ran 3 more idle cycles
        assert t.num_cycles == 7

    def test_cycle_aggregates_include_idle_cycles(self):
        t = TimelineRecorder()
        t.record_message(1, 0, 1, size=3)
        t.record_fault(2, "drop", rank=0)
        t.set_cycles(4)
        aggs = t.cycle_aggregates()
        assert len(aggs) == 4
        assert aggs[0] == CycleAggregate(
            cycle=1, messages=1, payload_items=3, link_loads={(0, 1): 1}
        )
        assert aggs[1].drops == 1 and aggs[1].faults == 1
        assert aggs[3].messages == 0 and aggs[3].faults == 0


class TestVectorizedSteps:
    def test_comm_steps_number_themselves_and_extend_cycles(self):
        t = TimelineRecorder()
        t.record_comm_step(8, 16, 2)
        t.record_comp_step(ops_each=4)
        t.record_comm_step(4)
        assert [s.step for s in t.steps] == [1, 1, 2]
        assert [s.kind for s in t.steps] == ["comm", "comp", "comm"]
        assert t.num_cycles == 2
        assert t.total_messages == 12
        # Coarse rounds fold into the per-cycle aggregates.
        aggs = t.cycle_aggregates()
        assert aggs[0].messages == 8 and aggs[0].payload_items == 16
        assert aggs[1].messages == 4 and aggs[1].payload_items == 4

    def test_payload_items_default_to_one_per_message(self):
        t = TimelineRecorder()
        t.record_comm_step(5)
        assert t.steps[0].payload_items == 5


class TestViews:
    def test_link_loads_and_utilization_grid(self):
        t = TimelineRecorder(num_nodes=4)
        t.record_message(1, 0, 1)
        t.record_message(1, 1, 0)
        t.record_message(3, 2, 3)
        links, grid = t.link_utilization()
        assert links == [(0, 1), (2, 3)]
        assert grid == [[2, 0, 0], [0, 0, 1]]
        assert t.link_loads() == {(0, 1): 2, (2, 3): 1}

    def test_to_comm_schedule_roundtrip(self):
        t = TimelineRecorder(num_nodes=4)
        t.record_message(1, 0, 1, size=2, kind="sendrecv")
        t.set_cycles(2)
        sched = t.to_comm_schedule()
        assert sched.num_nodes == 4
        assert sched.steps == 2
        (e,) = sched.events
        assert (e.step, e.src, e.dst, e.kind, e.size) == (1, 0, 1, "sendrecv", 2)

    def test_to_comm_schedule_infers_num_nodes(self):
        t = TimelineRecorder()
        t.record_message(1, 0, 5)
        assert t.to_comm_schedule().num_nodes == 6


class TestCrossValidate:
    def _recorder(self):
        t = TimelineRecorder(num_nodes=2)
        t.record_message(1, 0, 1, size=1, kind="send")
        t.set_cycles(1)
        return t

    def test_identical_timelines_validate(self):
        t = self._recorder()
        assert cross_validate_timeline(t, t.to_comm_schedule()) == []

    def test_cycle_count_mismatch_reported(self):
        t = self._recorder()
        other = self._recorder()
        other.set_cycles(3)
        problems = cross_validate_timeline(t, other.to_comm_schedule())
        assert any("cycle count" in p for p in problems)

    def test_event_mismatch_reported_both_ways(self):
        t = self._recorder()
        other = self._recorder()
        other.record_message(1, 1, 0)
        problems = cross_validate_timeline(t, other.to_comm_schedule())
        assert any("absent from the timeline" in p for p in problems)
        problems = cross_validate_timeline(other, t.to_comm_schedule())
        assert any("absent from the static schedule" in p for p in problems)

    def test_kind_only_diff_reported(self):
        a = self._recorder()
        b = TimelineRecorder(num_nodes=2)
        b.record_message(1, 0, 1, size=1, kind="shift")
        b.set_cycles(1)
        assert cross_validate_timeline(a, b.to_comm_schedule()) != []
