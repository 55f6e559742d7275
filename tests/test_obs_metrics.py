"""Unit tests of the telemetry core: registry, instruments, P², logging.

Covers the :mod:`repro.obs.metrics` instrument semantics (counters, gauges,
histograms with labeled series and streaming quantiles), the
``REPRO_LOG_*`` environment knobs, the structured ``repro.*`` logging
setup, and the :class:`~repro.service.server.ServiceStats` delta arithmetic
the scheduler and benchmarks report per-run statistics through.
"""

from __future__ import annotations

import io
import json
import logging

import numpy as np
import pytest

from repro.obs.log import JsonFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    get_registry,
    set_registry,
)
from repro.service.server import ServiceStats


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty_estimator_reports_zero(self):
        assert P2Quantile(0.5).value() == 0.0

    def test_exact_below_five_observations(self):
        q = P2Quantile(0.5)
        for x in (3.0, 1.0, 2.0):
            q.observe(x)
        assert q.value() == 2.0

    def test_streaming_estimates_track_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=0.0, sigma=1.0, size=20_000)
        estimators = {p: P2Quantile(p) for p in (0.5, 0.9, 0.99)}
        for x in samples:
            for estimator in estimators.values():
                estimator.observe(float(x))
        for p, estimator in estimators.items():
            exact = float(np.quantile(samples, p))
            assert estimator.value() == pytest.approx(exact, rel=0.05), p

    def test_monotone_across_quantiles(self):
        rng = np.random.default_rng(3)
        p50, p99 = P2Quantile(0.5), P2Quantile(0.99)
        for x in rng.exponential(size=5_000):
            p50.observe(float(x))
            p99.observe(float(x))
        assert p50.value() < p99.value()


class TestCounterGauge:
    def test_counter_accumulates_and_rejects_negatives(self, registry):
        c = registry.counter("requests_total", "requests")
        c.inc()
        c.inc(2.5)
        assert c.to_dict()["series"][0]["value"] == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        g = registry.gauge("inflight", "in flight")
        g.set(5)
        g.set(2)
        g.set(4)
        assert g.to_dict()["series"][0]["value"] == 4.0

    def test_labeled_series_are_interned(self, registry):
        c = registry.counter("by_outcome", "requests", labels=("outcome",))
        c.labels(outcome="hit").inc()
        c.labels(outcome="hit").inc()
        c.labels(outcome="miss").inc()
        series = {key: s[0] for key, s in c.series_items()}
        assert series == {("hit",): 2.0, ("miss",): 1.0}

    def test_wrong_label_names_rejected(self, registry):
        c = registry.counter("labeled", "x", labels=("outcome",))
        with pytest.raises(ValueError):
            c.labels(wrong="hit")
        # A labeled family has no default series to update directly.
        with pytest.raises(ValueError):
            c.inc()

    def test_same_name_returns_same_instrument(self, registry):
        a = registry.counter("shared_total", "first")
        b = registry.counter("shared_total", "second registration ignored")
        assert a is b

    def test_type_mismatch_on_reregistration_raises(self, registry):
        registry.counter("clash", "a counter")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("clash", "now a gauge?")


class TestHistogram:
    def test_moments_buckets_and_percentiles(self, registry):
        h = registry.histogram("latency_seconds", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 2.0):
            h.observe(v)
        data = h.to_dict()["series"][0]
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(3.05)
        assert data["buckets"] == {"0.1": 1, "1.0": 3, "+Inf": 4}
        assert data["min"] == 0.05 and data["max"] == 2.0
        assert data["p50"] == pytest.approx(0.5)

    def test_percentile_lookup(self, registry):
        h = registry.histogram("p_seconds", "p")
        for v in range(1, 101):
            h.observe(float(v))
        data = h.to_dict()["series"][0]
        # Only the tracked quantiles are exported.
        assert sorted(k for k in data if k.startswith("p")) == ["p50", "p90", "p99"]
        assert data["p50"] == pytest.approx(50.0, rel=0.1)

    def test_default_buckets_sorted_unique(self):
        assert tuple(sorted(set(DEFAULT_BUCKETS))) == DEFAULT_BUCKETS

    def test_rejects_empty_or_duplicate_buckets(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad1", "", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("bad2", "", buckets=(1.0, 1.0))

    def test_labeled_histogram_series(self, registry):
        h = registry.histogram("req_seconds", "", labels=("outcome",))
        h.labels(outcome="cold").observe(1.0)
        h.labels(outcome="hit").observe(0.001)
        series = dict(h.series_items())
        assert series[("cold",)].count == 1
        assert series[("hit",)].sum == pytest.approx(0.001)


class TestRegistry:
    def test_collectors_run_on_snapshot_and_unregister(self, registry):
        calls = []

        def collector():
            calls.append(1)
            registry.gauge("collected", "").set(42)

        fn = registry.register_collector(collector)
        data = registry.to_dict()
        assert calls == [1]
        assert data["metrics"]["collected"]["series"][0]["value"] == 42
        registry.unregister_collector(fn)
        registry.collect()
        assert calls == [1]
        registry.unregister_collector(fn)  # idempotent

    def test_instruments_sorted(self, registry):
        registry.counter("zeta", "")
        registry.counter("alpha", "")
        assert [i.name for i in registry.instruments()] == ["alpha", "zeta"]

    def test_global_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestLogging:
    def test_json_formatter_emits_extras(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "served %s", ("cold",), None
        )
        record.fingerprint = "abc"
        payload = json.loads(JsonFormatter().format(record))
        assert payload["message"] == "served cold"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.test"
        assert payload["fingerprint"] == "abc"
        assert "ts" in payload

    def test_configure_logging_levels_and_format(self, monkeypatch):
        stream = io.StringIO()
        root = configure_logging(level="debug", fmt="json", stream=stream)
        try:
            assert root.level == logging.DEBUG
            get_logger("service").debug("hello", extra={"k": "v"})
            line = stream.getvalue().strip()
            payload = json.loads(line)
            assert payload["message"] == "hello" and payload["k"] == "v"
            assert not root.propagate
            assert len(root.handlers) == 1
        finally:
            configure_logging(level="warning", fmt="text")

    def test_env_knobs_drive_configuration(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        stream = io.StringIO()
        root = configure_logging(stream=stream)
        try:
            assert root.level == logging.ERROR
            assert isinstance(root.handlers[0].formatter, JsonFormatter)
        finally:
            monkeypatch.delenv("REPRO_LOG_LEVEL")
            monkeypatch.delenv("REPRO_LOG_FORMAT")
            configure_logging()

    def test_get_logger_returns_repro_children(self):
        assert get_logger("sched").name == "repro.sched"
        assert get_logger().name == "repro"


class TestServiceStatsDelta:
    def test_delta_subtracts_every_counter(self):
        baseline = ServiceStats(
            requests=10, cache_hits=4, cache_misses=6, warm_starts=2,
            problem_reuses=3,
            search_seconds=5.0,
        )
        live = ServiceStats(
            requests=25, cache_hits=14, cache_misses=11, warm_starts=5,
            problem_reuses=9,
            search_seconds=8.5,
        )
        delta = live.delta(baseline)
        assert delta.requests == 15
        assert delta.cache_hits == 10
        assert delta.cache_misses == 5
        assert delta.problem_reuses == 6
        assert delta.search_seconds == pytest.approx(3.5)
        # hit_rate recomputes from the delta, not the cumulative counters.
        assert delta.hit_rate == pytest.approx(10 / 15)

    def test_snapshot_isolates_from_live_mutation(self):
        live = ServiceStats(requests=1)
        frozen = live.snapshot()
        live.requests += 5
        live.cache_hits += 2
        assert frozen.requests == 1 and frozen.cache_hits == 0
        delta = live.snapshot().delta(frozen)
        assert delta.requests == 5 and delta.cache_hits == 2

    def test_zero_delta_hit_rate(self):
        s = ServiceStats(requests=3, cache_hits=2)
        delta = s.delta(s.snapshot())
        assert delta.requests == 0
        assert delta.hit_rate == 0.0
