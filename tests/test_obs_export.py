"""Export-path tests: Prometheus grammar, Chrome counter tracks, snapshots.

Validates the three exporters in :mod:`repro.obs.export` against their
target formats — the Prometheus text exposition grammar (escaping,
``_bucket``/``_sum``/``_count`` invariants), the Chrome Trace Event Format
(counter events round-trip through ``load_chrome_trace`` and
``validate_chrome_events``) — plus the scheduler integration that merges
live counter tracks and a ``METRICS_*.json`` snapshot into one run.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import knobs
from repro.cluster import make_cluster
from repro.core import SearchConfig
from repro.obs import (
    MetricsRegistry,
    record_counter_tracks,
    set_registry,
    snapshot,
    to_prometheus,
    write_metrics_snapshot,
)
from repro.sched import JobSpec, SchedulerConfig, schedule_trace
from repro.sim import TraceRecorder, load_chrome_trace, validate_chrome_events

TINY_SEARCH = SearchConfig(max_iterations=25, time_budget_s=0.5, record_history=False)


@pytest.fixture
def registry():
    """A fresh registry installed as the process-wide default."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def _tiny_jobs(n: int = 2):
    return [
        JobSpec(
            name=f"job-{i}",
            algorithm="grpo" if i % 2 else "ppo",
            batch_size=64,
            target_iterations=3,
            min_gpus=8,
            max_gpus=8,
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})?"  # labels
    r" (NaN|[+-]Inf|-?[0-9.e+-]+)$"  # value
)


class TestPrometheusExposition:
    def test_every_line_matches_the_grammar(self, registry):
        registry.counter("requests_total", "total requests").inc(3)
        registry.gauge("inflight", "in flight").set(1.5)
        h = registry.histogram("latency_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = to_prometheus(registry)
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE_LINE.match(line), f"bad exposition line: {line!r}"

    def test_help_and_type_precede_samples(self, registry):
        registry.counter("requests_total", "total requests").inc()
        lines = to_prometheus(registry).splitlines()
        assert lines[0] == "# HELP requests_total total requests"
        assert lines[1] == "# TYPE requests_total counter"
        assert lines[2] == "requests_total 1"

    def test_metric_names_are_sanitized(self, registry):
        registry.counter("weird-name.total", "").inc()
        text = to_prometheus(registry)
        assert "weird_name_total 1" in text
        assert "weird-name" not in text

    def test_label_values_are_escaped(self, registry):
        c = registry.counter("escapes_total", "", labels=("path",))
        c.labels(path='a\\b"c\nd').inc()
        text = to_prometheus(registry)
        assert 'escapes_total{path="a\\\\b\\"c\\nd"} 1' in text
        # The escaped line still parses under the grammar.
        sample = [l for l in text.splitlines() if l.startswith("escapes_total{")][0]
        assert _SAMPLE_LINE.match(sample)

    def test_histogram_bucket_sum_count_invariants(self, registry):
        h = registry.histogram("h_seconds", "h", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 2.0, 20.0):
            h.observe(v)
        lines = to_prometheus(registry).splitlines()
        buckets = [l for l in lines if l.startswith("h_seconds_bucket")]
        # One bucket per bound plus the +Inf bucket, cumulative and monotone.
        assert len(buckets) == 4
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)
        assert buckets[-1] == 'h_seconds_bucket{le="+Inf"} 5'
        assert counts[-1] == 5
        les = [re.search(r'le="([^"]+)"', l).group(1) for l in buckets]
        assert les == ["0.1", "1", "10", "+Inf"]
        assert "h_seconds_count 5" in lines
        sum_line = [l for l in lines if l.startswith("h_seconds_sum ")][0]
        assert float(sum_line.split(" ")[1]) == pytest.approx(23.05)

    def test_labeled_histogram_keeps_le_with_labels(self, registry):
        h = registry.histogram("lh_seconds", "", labels=("outcome",), buckets=(1.0,))
        h.labels(outcome="hit").observe(0.5)
        text = to_prometheus(registry)
        assert 'lh_seconds_bucket{outcome="hit",le="1"} 1' in text
        assert 'lh_seconds_bucket{outcome="hit",le="+Inf"} 1' in text
        assert 'lh_seconds_count{outcome="hit"} 1' in text

    def test_histogram_min_max_lines(self, registry):
        h = registry.histogram("mm_seconds", "", buckets=(1.0,))
        for v in (0.3, 2.5, 0.9):
            h.observe(v)
        lines = to_prometheus(registry).splitlines()
        assert "mm_seconds_min 0.3" in lines
        assert "mm_seconds_max 2.5" in lines
        # The extremes parse under the grammar and sit with the other samples.
        for suffix in ("_min", "_max"):
            (sample,) = [l for l in lines if l.startswith(f"mm_seconds{suffix}")]
            assert _SAMPLE_LINE.match(sample)

    def test_labeled_histogram_min_max_keep_labels(self, registry):
        h = registry.histogram("lmm_seconds", "", labels=("outcome",), buckets=(1.0,))
        h.labels(outcome="hit").observe(0.5)
        h.labels(outcome="hit").observe(1.5)
        text = to_prometheus(registry)
        assert 'lmm_seconds_min{outcome="hit"} 0.5' in text
        assert 'lmm_seconds_max{outcome="hit"} 1.5' in text

    def test_empty_histogram_extremes_are_zero(self, registry):
        registry.histogram("empty_seconds", "", buckets=(1.0,))
        text = to_prometheus(registry)
        assert "empty_seconds_min 0" in text
        assert "empty_seconds_max 0" in text

    def test_special_float_values(self, registry):
        registry.gauge("weird_gauge", "").set(float("inf"))
        assert "weird_gauge +Inf" in to_prometheus(registry)
        registry.gauge("weird_gauge", "").set(float("nan"))
        assert "weird_gauge NaN" in to_prometheus(registry)


# ---------------------------------------------------------------------- #
# JSON snapshots
# ---------------------------------------------------------------------- #
class TestSnapshot:
    def test_snapshot_includes_meta_and_percentiles(self, registry):
        h = registry.histogram("s_seconds", "")
        h.observe(0.25)
        data = snapshot(registry, extra={"source": "test"})
        assert data["meta"] == {"source": "test"}
        series = data["metrics"]["s_seconds"]["series"][0]
        for key in ("p50", "p90", "p99", "buckets", "count", "sum"):
            assert key in series

    def test_write_metrics_snapshot_round_trips(self, registry, tmp_path):
        registry.counter("w_total", "").inc(7)
        path = write_metrics_snapshot(
            registry, tmp_path / "METRICS_test.json", extra={"mode": "unit"}
        )
        data = json.loads(path.read_text())
        assert data["meta"]["mode"] == "unit"
        assert data["metrics"]["w_total"]["series"][0]["value"] == 7
        assert data["knobs"] == knobs.snapshot()

    def test_snapshot_stamps_schema_version(self, registry):
        from repro.obs import SNAPSHOT_SCHEMA_VERSION

        data = snapshot(registry)
        assert data["schema_version"] == SNAPSHOT_SCHEMA_VERSION == 2

    def test_snapshot_series_carry_exact_extremes(self, registry):
        h = registry.histogram("ext_seconds", "")
        for v in (0.2, 4.0, 1.0):
            h.observe(v)
        series = snapshot(registry)["metrics"]["ext_seconds"]["series"][0]
        assert series["min"] == 0.2
        assert series["max"] == 4.0
        # Empty series report 0.0 extremes, not +/-inf (JSON-safe).
        registry.histogram("ext2_seconds", "")
        empty = snapshot(registry)["metrics"]["ext2_seconds"]["series"]
        assert empty == [] or all(
            s["min"] == 0.0 and s["max"] == 0.0 for s in empty
        )

    def test_snapshot_runs_collectors(self, registry):
        registry.register_collector(
            lambda: registry.gauge("lazy", "").set(9)
        )
        data = snapshot(registry)
        assert data["metrics"]["lazy"]["series"][0]["value"] == 9


# ---------------------------------------------------------------------- #
# Chrome-trace counter events
# ---------------------------------------------------------------------- #
class TestCounterTracks:
    def test_round_trip_through_load_and_validate(self, tmp_path):
        recorder = TraceRecorder()
        samples = [
            (0.0, {"running jobs": 0, "free GPUs": 16}),
            (5.0, {"running jobs": 2, "free GPUs": 0}),
            (9.5, {"running jobs": 1, "free GPUs": 8}),
        ]
        emitted = record_counter_tracks(recorder, "cluster", samples)
        assert emitted == 6
        path = recorder.save(tmp_path / "trace.json")
        events = load_chrome_trace(path)
        validate_chrome_events(events)
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 6
        assert {e["name"] for e in counters} == {"running jobs", "free GPUs"}
        # Counter events live on tid 0 with numeric args and µs timestamps.
        by_time = sorted(
            (e for e in counters if e["name"] == "running jobs"),
            key=lambda e: e["ts"],
        )
        assert [e["ts"] for e in by_time] == [0.0, 5.0e6, 9.5e6]
        assert [e["args"]["running jobs"] for e in by_time] == [0.0, 2.0, 1.0]
        assert all(e["tid"] == 0 for e in counters)
        assert all(e["cat"] == "metrics" for e in counters)

    def test_empty_counter_args_fail_validation(self):
        events = [{"ph": "C", "ts": 0, "pid": 1, "tid": 0, "name": "x", "args": {}}]
        with pytest.raises(ValueError, match="counter"):
            validate_chrome_events(events)

    def test_non_numeric_counter_args_fail_validation(self):
        events = [
            {"ph": "C", "ts": 0, "pid": 1, "tid": 0, "name": "x",
             "args": {"x": "high"}}
        ]
        with pytest.raises(ValueError):
            validate_chrome_events(events)


# ---------------------------------------------------------------------- #
# Scheduler integration: one run -> counter tracks + METRICS snapshot
# ---------------------------------------------------------------------- #
class TestSchedulerTelemetry:
    def test_schedule_run_exports_tracks_and_snapshot(self, registry, tmp_path):
        trace_path = tmp_path / "TRACE_tiny.json"
        report = schedule_trace(
            cluster=make_cluster(16),
            jobs=_tiny_jobs(),
            policy="first_fit",
            config=SchedulerConfig(search=TINY_SEARCH),
            trace_path=str(trace_path),
        )
        assert report.all_completed

        # Counter tracks merged into the Chrome trace (>= 4 distinct).
        events = load_chrome_trace(report.trace_path)
        validate_chrome_events(events)
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert len(tracks) >= 4
        assert {"running jobs", "queued jobs", "free GPUs", "GPU utilization"} <= tracks

        # The METRICS_*.json snapshot lands next to the trace by default.
        assert report.metrics_path == str(tmp_path / "METRICS_TRACE_tiny.json")
        data = json.loads(Path(report.metrics_path).read_text())
        assert data["meta"]["policy"] == "first_fit"
        for name in ("service_request_seconds", "sched_decision_seconds"):
            series = data["metrics"][name]["series"]
            assert series, f"{name} recorded no series"
            for entry in series:
                assert entry["count"] > 0
                assert entry["p50"] >= 0.0
                assert entry["p99"] >= entry["p50"] * 0.999

    def test_explicit_metrics_path_wins(self, registry, tmp_path):
        metrics_path = tmp_path / "custom" / "snapshot.json"
        report = schedule_trace(
            cluster=make_cluster(16),
            jobs=_tiny_jobs(1),
            policy="first_fit",
            config=SchedulerConfig(search=TINY_SEARCH),
            trace_path=str(tmp_path / "TRACE_x.json"),
            metrics_path=str(metrics_path),
        )
        assert report.metrics_path == str(metrics_path)
        assert metrics_path.exists()

    def test_no_trace_no_metrics_by_default(self, registry, tmp_path):
        report = schedule_trace(
            cluster=make_cluster(16),
            jobs=_tiny_jobs(1),
            policy="first_fit",
            config=SchedulerConfig(search=TINY_SEARCH),
        )
        assert report.metrics_path is None
        assert not list(tmp_path.glob("METRICS_*"))
