"""Tests for the causal span tracer (:mod:`repro.obs.tracing`).

Covers the tracer's own contract — implicit parentage through the context
variable, explicit grafting, the bounded span store, Chrome-trace export
with flow arrows — and the parentage the search layer depends on:
every chain slice of a :class:`SearchSession` polled in slices hangs under
the poll that ran it.
"""

from __future__ import annotations


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
    tracing,
)
from repro.sim import TraceRecorder, load_chrome_trace, validate_chrome_events


@pytest.fixture
def tracer():
    """A fresh tracer installed as the process-wide default."""
    fresh = Tracer()
    previous = set_tracer(fresh)
    try:
        yield fresh
    finally:
        set_tracer(previous)


def _record(name: str, context: SpanContext = None) -> SpanRecord:
    context = context or SpanContext(trace_id="t", span_id=name)
    return SpanRecord(name=name, category="test", start_s=0.0, end_s=1.0, context=context)


# ---------------------------------------------------------------------- #
# The bounded span store
# ---------------------------------------------------------------------- #
class TestBoundedStore:
    @pytest.fixture
    def small(self, monkeypatch):
        monkeypatch.setattr(tracing, "_MAX_RECORDS", 4)
        return Tracer()

    def test_n_records_counts_past_the_cap(self, small):
        for index in range(10):
            small.append(_record(f"s{index}"))
        assert small.n_records == 10
        assert small.first_held == 6
        assert [r.name for r in small.records()] == ["s6", "s7", "s8", "s9"]

    def test_records_since_returns_only_held_records(self, small):
        for index in range(3):
            small.append(_record(f"s{index}"))
        baseline = small.n_records
        for index in range(3, 6):
            small.append(_record(f"s{index}"))
        assert [r.name for r in small.records(since=baseline)] == ["s3", "s4", "s5"]
        for index in range(6, 9):
            small.append(_record(f"s{index}"))
        # The baseline's first spans are gone; what is held comes back.
        assert [r.name for r in small.records(since=baseline)] == ["s5", "s6", "s7", "s8"]
        assert small.records(since=small.n_records) == []


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
        assert record.end_s >= record.start_s

    def test_records_since_a_baseline(self, tracer):
        with tracer.start_span("one"):
            pass
        baseline = tracer.n_records
        with tracer.start_span("two"):
            pass
        assert [r.name for r in tracer.records(since=baseline)] == ["two"]

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
# Span parentage through SearchSession
# ---------------------------------------------------------------------- #
def _session() -> SearchSession:
    config = SearchConfig(max_iterations=40, time_budget_s=60.0, seed=5, n_chains=2)
    searcher = MCMCSearcher(
        build_ppo_graph(),
        instructgpt_workload("7b", "7b", batch_size=64),
        make_cluster(8),
        config=config,
    )
    return SearchSession(searcher, slice_iterations=9)


class TestSessionSpans:
    def test_chain_slices_hang_under_their_poll(self, tracer):
        session = _session().start()
        while not session.done:
            with tracer.start_span("session poll", category="service"):
                session.poll()
        session.stop()
        records = tracer.records()
        by_id = {r.context.span_id: r for r in records}
        edges = sorted(
            (r.name, by_id[r.context.parent_id].name)
            for r in records
            if r.context.parent_id in by_id
        )
        assert ("chain 0", "session poll") in edges
        chains = [r for r in records if r.name.startswith("chain")]
        assert chains, "session recorded no chain spans"
        for record in chains:
            assert by_id[record.context.parent_id].name == "session poll"


class TestSearchInitSpan:
    def test_traced_search_has_one_init_span_under_search(self, tracer):
        result = _session().searcher.search()
        records = tracer.records()
        by_id = {r.context.span_id: r for r in records}
        inits = [r for r in records if r.name == "search.init"]
        assert len(inits) == 1
        assert by_id[inits[0].context.parent_id].name == "search"
        # Chain slices stay children of the search, siblings of the init.
        chains = [r for r in records if r.name.startswith("chain ")]
        assert chains
        assert {r.context.parent_id for r in chains} == {inits[0].context.parent_id}
        assert 0.0 < result.init_seconds <= result.elapsed_seconds

    def test_session_start_opens_init_span_under_caller(self, tracer):
        with tracer.start_span("plan request", category="service"):
            session = _session().start()
        records = tracer.records()
        by_id = {r.context.span_id: r for r in records}
        inits = [r for r in records if r.name == "search.init"]
        assert [by_id[r.context.parent_id].name for r in inits] == ["plan request"]
        assert session.stop().init_seconds > 0.0
