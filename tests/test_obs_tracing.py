"""Tests for the causal span tracer (:mod:`repro.obs.tracing`).

Covers the tracer's own contract — implicit parentage through the context
variable, explicit grafting, the ``REPRO_TRACING`` kill switch, thread-hop
propagation via :meth:`Tracer.activate`, Chrome-trace export with flow
arrows — and the cross-*process* invariant the search layer depends on: a
process-mode :class:`SearchSession` polled in slices yields the same
span-tree parentage as a sequential one, and spans keep flowing after the
fail-soft in-process fallback.
"""

from __future__ import annotations

import threading

import pytest

from repro.algorithms import build_ppo_graph
from repro.cluster import make_cluster
from repro.core import MCMCSearcher, SearchConfig, SearchSession, instructgpt_workload
from repro.obs import (
    SpanContext,
    SpanRecord,
    Tracer,
    current_span,
    set_tracer,
    tracing_enabled,
)
from repro.sim import TraceRecorder, load_chrome_trace, validate_chrome_events


@pytest.fixture
def tracer():
    """A fresh enabled tracer installed as the process-wide default."""
    fresh = Tracer(enabled=True)
    previous = set_tracer(fresh)
    try:
        yield fresh
    finally:
        set_tracer(previous)


# ---------------------------------------------------------------------- #
# The knob
# ---------------------------------------------------------------------- #
class TestTracingKnob:
    @pytest.mark.parametrize("value", ["off", "0", "false", "NO", "Disabled"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACING", value)
        assert not tracing_enabled()
        assert not Tracer().enabled

    @pytest.mark.parametrize("value", [None, "on", "1"])
    def test_on_values(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_TRACING", raising=False)
        else:
            monkeypatch.setenv("REPRO_TRACING", value)
        assert tracing_enabled()

    @pytest.mark.parametrize("value", ["anything", "of"])
    def test_malformed_values_raise(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACING", value)
        with pytest.raises(ValueError, match="REPRO_TRACING"):
            tracing_enabled()

    def test_disabled_tracer_is_free(self):
        disabled = Tracer(enabled=False)
        with disabled.start_span("never", category="x") as span:
            assert span.context is None
            span.set(key="value")  # no-op, chainable
        assert disabled.n_records == 0
        assert disabled.extend([_record("orphan")]) == 0


def _record(name: str, context: SpanContext = None) -> SpanRecord:
    context = context or SpanContext(trace_id="t", span_id=name)
    return SpanRecord(name=name, category="test", start_s=0.0, end_s=1.0, context=context)


# ---------------------------------------------------------------------- #
# Span tree construction
# ---------------------------------------------------------------------- #
class TestSpanTree:
    def test_implicit_parentage_follows_nesting(self, tracer):
        with tracer.start_span("outer") as outer:
            assert current_span() is outer.context
            with tracer.start_span("inner") as inner:
                assert inner.context.parent_id == outer.context.span_id
                assert inner.context.trace_id == outer.context.trace_id
        assert current_span() is None
        names = {r.name: r for r in tracer.records()}
        assert set(names) == {"outer", "inner"}
        assert names["inner"].end_s <= names["outer"].end_s

    def test_explicit_parent_grafts_elsewhere(self, tracer):
        with tracer.start_span("a") as a:
            pass
        with tracer.start_span("b"):
            with tracer.start_span("grafted", parent=a.context) as grafted:
                assert grafted.context.parent_id == a.context.span_id

    def test_parent_none_forces_new_root(self, tracer):
        with tracer.start_span("root1"):
            with tracer.start_span("root2", parent=None) as root2:
                assert root2.context.parent_id is None

    def test_set_attaches_args_late(self, tracer):
        with tracer.start_span("spanned", args={"early": 1}) as span:
            span.set(late="outcome")
        (record,) = tracer.records()
        assert record.args == {"early": 1, "late": "outcome"}
        assert record.duration_s >= 0.0

    def test_activate_propagates_across_threads(self, tracer):
        with tracer.start_span("submit") as submit:
            captured = submit.context
        seen = {}

        def worker():
            with tracer.activate(captured):
                with tracer.start_span("work") as span:
                    seen["parent"] = span.context.parent_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["parent"] == captured.span_id

    def test_extend_folds_foreign_records(self, tracer):
        with tracer.start_span("parent") as parent:
            pass
        shipped = _record("shipped", parent.context.child())
        assert tracer.extend([shipped]) == 1
        assert tracer.records(since=1) == [shipped]

    def test_records_since_and_clear(self, tracer):
        with tracer.start_span("one"):
            pass
        baseline = tracer.n_records
        with tracer.start_span("two"):
            pass
        assert [r.name for r in tracer.records(since=baseline)] == ["two"]
        tracer.clear()
        assert tracer.n_records == 0

    def test_context_pickles(self, tracer):
        import pickle

        with tracer.start_span("portable") as span:
            context = span.context
        clone = pickle.loads(pickle.dumps(context))
        assert clone == context
        assert clone.child().parent_id == context.span_id


# ---------------------------------------------------------------------- #
# Chrome export: async spans + flow arrows
# ---------------------------------------------------------------------- #
class TestChromeExport:
    def test_spans_and_flows_round_trip(self, tracer, tmp_path):
        with tracer.start_span("decision", category="sched"):
            with tracer.start_span("request", category="service"):
                with tracer.start_span("chain 0", category="search"):
                    pass
        recorder = TraceRecorder()
        assert tracer.record_chrome(recorder) == 3
        events = load_chrome_trace(recorder.save(tmp_path / "trace.json"))
        validate_chrome_events(events)
        begins = {e["name"]: e for e in events if e["ph"] == "b"}
        assert set(begins) == {"decision", "request", "chain 0"}
        assert len([e for e in events if e["ph"] == "e"]) == 3
        # One flow arrow per parent->child edge, anchored at the begins.
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 2
        assert all(e.get("bp") == "e" for e in finishes)
        # The child's ancestry is readable straight from the args.
        assert begins["request"]["args"]["parent_id"] == begins["decision"]["args"]["span_id"]
        assert begins["chain 0"]["args"]["parent_id"] == begins["request"]["args"]["span_id"]
        # Earliest span is rebased to t=0.
        assert min(e["ts"] for e in begins.values()) == 0.0

    def test_since_exports_only_the_delta(self, tracer):
        with tracer.start_span("before"):
            pass
        baseline = tracer.n_records
        with tracer.start_span("after"):
            pass
        recorder = TraceRecorder()
        assert tracer.record_chrome(recorder, since=baseline) == 1

    def test_empty_export_is_zero(self, tracer):
        assert tracer.record_chrome(TraceRecorder()) == 0


# ---------------------------------------------------------------------- #
# Cross-process propagation through SearchSession
# ---------------------------------------------------------------------- #
def _session(parallel: str) -> SearchSession:
    config = SearchConfig(
        max_iterations=40, time_budget_s=60.0, seed=5, n_chains=2, parallel=parallel
    )
    searcher = MCMCSearcher(
        build_ppo_graph(),
        instructgpt_workload("7b", "7b", batch_size=64),
        make_cluster(8),
        config=config,
    )
    return SearchSession(searcher, slice_iterations=9)


def _polled_parentage(tracer: Tracer, session: SearchSession):
    """Poll to completion, one span per poll; return edges + execution modes."""
    session.start()
    modes = set()
    while not session.done:
        with tracer.start_span("session poll", category="service"):
            modes.add(session.poll().execution_mode)
    session.stop()
    by_id = {r.context.span_id: r for r in tracer.records()}
    edges = sorted(
        (r.name, by_id[r.context.parent_id].name)
        for r in tracer.records()
        if r.context.parent_id in by_id
    )
    return edges, modes


class TestCrossProcessSpans:
    def test_process_parentage_matches_sequential(self):
        sequential_tracer = Tracer(enabled=True)
        previous = set_tracer(sequential_tracer)
        try:
            sequential_edges, _ = _polled_parentage(sequential_tracer, _session("off"))
        finally:
            set_tracer(previous)
        assert sequential_edges, "sequential session recorded no span edges"
        assert ("chain 0", "session poll") in sequential_edges

        process_tracer = Tracer(enabled=True)
        previous = set_tracer(process_tracer)
        try:
            session = _session("process")
            session.start()
            if session._runner is None:
                pytest.skip("process pool unavailable on this machine")
            process_edges, modes = _polled_parentage(process_tracer, session)
        finally:
            set_tracer(previous)
        assert "process" in modes
        # Same tree shape: every chain slice hangs under the poll that ran
        # it, regardless of which process executed the slice.
        assert process_edges == sequential_edges

    def test_spans_survive_in_process_fallback(self):
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            session = _session("process")
            session.start()
            if session._runner is None:
                pytest.skip("process pool unavailable on this machine")
            with tracer.start_span("session poll", category="service"):
                session.poll()
            before = len([r for r in tracer.records() if r.name.startswith("chain")])
            assert before >= 1
            # Kill the pool: later polls fall back to the calling thread.
            session._runner.close_session()
            session._runner = None
            while not session.done:
                with tracer.start_span("session poll", category="service"):
                    assert session.poll().execution_mode in ("sequential", "idle")
            session.stop()
        finally:
            set_tracer(previous)
        chains = [r for r in tracer.records() if r.name.startswith("chain")]
        assert len(chains) > before, "fallback slices recorded no spans"
        by_id = {r.context.span_id: r for r in tracer.records()}
        for record in chains:
            assert by_id[record.context.parent_id].name == "session poll"
