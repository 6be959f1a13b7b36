"""PhaseProfiler spans and their wiring into the algorithms."""

import numpy as np
import pytest

from repro.core.dual_sort import dual_sort
from repro.core.large_inputs import large_prefix, large_sort
from repro.core.ops import ADD
from repro.obs import NULL_PROFILER, PhaseProfiler
from repro.topology import DualCube, RecursiveDualCube


class TestProfiler:
    def test_span_records_name_meta_and_duration(self):
        p = PhaseProfiler()
        with p.span("work", step=3):
            pass
        (s,) = p.spans
        assert s.name == "work"
        assert s.meta == {"step": 3}
        assert s.duration_s >= 0.0

    def test_totals_sum_repeats_in_first_seen_order(self):
        p = PhaseProfiler()
        for name in ("a", "b", "a"):
            with p.span(name):
                pass
        totals = p.totals()
        assert list(totals) == ["a", "b"]
        assert totals["a"] >= 0.0 and len(p.spans) == 3
        assert p.total_s() == pytest.approx(sum(s.duration_s for s in p.spans))

    def test_spans_record_even_when_body_raises(self):
        p = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with p.span("bad"):
                raise RuntimeError("boom")
        assert [s.name for s in p.spans] == ["bad"]

    def test_null_profiler_is_inert(self):
        with NULL_PROFILER.span("anything", k=1):
            pass
        assert not hasattr(NULL_PROFILER, "spans")


class TestAlgorithmWiring:
    def test_large_prefix_phases(self):
        dc = DualCube(2)
        prof = PhaseProfiler()
        vals = np.arange(dc.num_nodes * 4)
        out = large_prefix(dc, vals, ADD, profiler=prof)
        assert list(out) == list(np.cumsum(vals))
        assert list(prof.totals()) == ["local-prefix", "network", "fold"]

    def test_large_sort_phases_cover_schedule_segments(self):
        rdc = RecursiveDualCube(2)
        prof = PhaseProfiler()
        keys = np.arange(rdc.num_nodes * 2)[::-1]
        out = large_sort(rdc, keys, profiler=prof)
        assert list(out) == sorted(keys)
        totals = prof.totals()
        assert list(totals)[0] == "local-sort"
        # One span per ScheduleStep, named by its recursion segment.
        assert any(name.startswith("base") for name in totals)
        assert any("merge" in name for name in totals)

    def test_dual_sort_vec_per_step_spans(self):
        rdc = RecursiveDualCube(2)
        prof = PhaseProfiler()
        keys = np.arange(rdc.num_nodes)[::-1]
        out = dual_sort(rdc, keys, profiler=prof)
        assert list(out) == sorted(keys)
        steps = [s.meta.get("step") for s in prof.spans]
        assert steps == sorted(steps)  # one span per step, in order
        assert all("dim" in s.meta for s in prof.spans)

    def test_profiler_default_changes_nothing(self):
        dc = DualCube(2)
        vals = np.arange(dc.num_nodes * 4)
        a = large_prefix(dc, vals, ADD)
        b = large_prefix(dc, vals, ADD, profiler=PhaseProfiler())
        assert list(a) == list(b)
