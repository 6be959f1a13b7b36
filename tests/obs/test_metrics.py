"""Metrics registry semantics and byte-exact exporter goldens."""

import json
import math

import pytest

from repro.core.dual_prefix import dual_prefix
from repro.core.ops import ADD
from repro.obs import (
    Histogram,
    MetricsRegistry,
    TimelineRecorder,
    registry_from_counters,
    registry_from_timeline,
)
from repro.simulator import use_timeline
from repro.topology import DualCube


def _small_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter(
        "repro_messages", "Messages delivered", {"algo": "prefix"}
    ).inc(5)
    reg.gauge("repro_depth").set(3.5)
    h = reg.histogram("repro_sizes", "Payload sizes", buckets=(1, 2))
    for v in (1, 2, 3.5):
        h.observe(v)
    return reg


class TestInstruments:
    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match=">= 0"):
            reg.counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(-3)
        assert g.value == 7

    def test_histogram_cumulative_ends_at_inf(self):
        h = Histogram("h", buckets=(1, 10))
        for v in (0.5, 5, 500):
            h.observe(v)
        assert h.cumulative() == [(1.0, 1), (10.0, 2), (math.inf, 3)]
        assert h.count == 3 and h.sum == 505.5

    def test_histogram_buckets_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("h", buckets=(5, 1))

    def test_metric_names_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="metric name"):
            reg.counter("bad name")
        with pytest.raises(ValueError, match="digit"):
            reg.counter("0bad")


class TestRegistry:
    def test_same_name_and_labels_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("c", labels={"x": "1"})
        b = reg.counter("c", labels={"x": "1"})
        c = reg.counter("c", labels={"x": "2"})
        assert a is b and a is not c

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("m")


class TestExporterGoldens:
    """Byte-exact: any drift here breaks downstream scrapers/parsers."""

    def test_prometheus_golden(self):
        expected = (
            "# HELP repro_messages Messages delivered\n"
            "# TYPE repro_messages counter\n"
            'repro_messages_total{algo="prefix"} 5\n'
            "# TYPE repro_depth gauge\n"
            "repro_depth 3.5\n"
            "# HELP repro_sizes Payload sizes\n"
            "# TYPE repro_sizes histogram\n"
            'repro_sizes_bucket{le="1"} 1\n'
            'repro_sizes_bucket{le="2"} 2\n'
            'repro_sizes_bucket{le="+Inf"} 3\n'
            "repro_sizes_sum 6.5\n"
            "repro_sizes_count 3\n"
        )
        assert _small_registry().to_prometheus() == expected

    def test_jsonlines_golden(self):
        expected = (
            '{"labels": {"algo": "prefix"}, "name": "repro_messages", '
            '"type": "counter", "value": 5.0}\n'
            '{"name": "repro_depth", "type": "gauge", "value": 3.5}\n'
            '{"buckets": {"+Inf": 3, "1": 1, "2": 2}, "count": 3, '
            '"name": "repro_sizes", "sum": 6.5, "type": "histogram"}\n'
        )
        assert _small_registry().to_jsonlines() == expected

    def test_exports_are_deterministic(self):
        assert (
            _small_registry().to_prometheus()
            == _small_registry().to_prometheus()
        )
        assert (
            _small_registry().to_jsonlines() == _small_registry().to_jsonlines()
        )

    def test_jsonlines_parse_back(self):
        rows = [
            json.loads(line)
            for line in _small_registry().to_jsonlines().splitlines()
        ]
        assert [r["type"] for r in rows] == ["counter", "gauge", "histogram"]

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", labels={"k": 'a"b\\c\nd'}).inc(1)
        out = reg.to_prometheus()
        assert 'k="a\\"b\\\\c\\nd"' in out

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
        assert MetricsRegistry().to_jsonlines() == ""


class TestFeeds:
    def test_registry_from_counters_covers_ledger(self):
        dc = DualCube(2)
        _, result = dual_prefix(dc, list(range(dc.num_nodes)), ADD, backend="engine")
        reg = registry_from_counters(result.counters)
        by_name = {m.name: m for m in reg.metrics()}
        assert by_name["repro_messages"].value == result.counters.messages
        assert by_name["repro_comm_steps"].value == result.counters.comm_steps
        assert by_name["repro_node_sends"].count == dc.num_nodes

    def test_registry_from_timeline_covers_recorder(self):
        dc = DualCube(2)
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        with use_timeline(t):
            dual_prefix(dc, list(range(dc.num_nodes)), ADD, backend="engine")
        reg = registry_from_timeline(t)
        by_name = {m.name: m for m in reg.metrics() if not m.labels}
        assert by_name["repro_timeline_cycles"].value == t.num_cycles
        assert by_name["repro_timeline_messages"].value == len(t.events)
        fault_counters = [
            m for m in reg.metrics() if m.name == "repro_timeline_faults"
        ]
        assert sorted(m.labels["kind"] for m in fault_counters) == [
            "crash",
            "drop",
            "join",
            "leave",
            "timeout",
        ]

    def test_feeds_compose_into_one_registry(self):
        dc = DualCube(2)
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        with use_timeline(t):
            _, result = dual_prefix(dc, list(range(dc.num_nodes)), ADD, backend="engine")
        reg = registry_from_counters(result.counters)
        out = registry_from_timeline(t, registry=reg)
        assert out is reg
        names = {m.name for m in reg.metrics()}
        assert "repro_messages" in names and "repro_timeline_cycles" in names


class TestPrometheusSpecConformance:
    """Text-format spec details: the +Inf bucket, special values, and
    family grouping."""

    def test_inf_bucket_present_and_equals_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 2))
        for v in (0.5, 1.5, 99):
            h.observe(v)
        lines = reg.to_prometheus().splitlines()
        inf_lines = [l for l in lines if 'le="+Inf"' in l]
        assert len(inf_lines) == 1
        (count_line,) = [l for l in lines if l.startswith("h_count")]
        assert inf_lines[0].split()[-1] == count_line.split()[-1] == "3"

    def test_explicit_inf_bucket_is_normalized(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 2, math.inf))
        assert h.bounds == (1.0, 2.0)
        h.observe(5)
        lines = reg.to_prometheus().splitlines()
        assert len([l for l in lines if 'le="+Inf"' in l]) == 1

    def test_only_inf_bucket_rejected(self):
        with pytest.raises(ValueError, match="finite bucket"):
            Histogram("h", buckets=(math.inf,))

    def test_negative_inf_and_nan_render_per_spec(self):
        reg = MetricsRegistry()
        reg.gauge("lo").set(-math.inf)
        reg.gauge("hi").set(math.inf)
        reg.gauge("bad").set(math.nan)
        text = reg.to_prometheus()
        assert "lo -Inf\n" in text
        assert "hi +Inf\n" in text
        assert "bad NaN\n" in text
        assert "-inf" not in text and " nan" not in text

    def test_interleaved_families_are_grouped(self):
        reg = MetricsRegistry()
        reg.counter("a", "first", {"x": "1"}).inc(1)
        reg.counter("b").inc(2)
        reg.counter("a", labels={"x": "2"}).inc(3)
        lines = reg.to_prometheus().splitlines()
        assert lines == [
            "# HELP a first",
            "# TYPE a counter",
            'a_total{x="1"} 1',
            'a_total{x="2"} 3',
            "# TYPE b counter",
            "b_total 2",
        ]

    def test_cross_labelset_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m", labels={"x": "1"})
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("m", labels={"x": "2"})
