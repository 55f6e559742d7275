"""Tests for the decision-provenance ledger (:mod:`repro.obs.provenance`).

The ledger's append/filter/serialize contract, its bounded store, and — most load-bearing — :func:`load_provenance`'s validation: the
report CLI and CI hold every ``PROVENANCE_*.jsonl`` artifact to "each line
is a JSON object with a ``kind``", so malformed files must raise.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    ProvenanceLedger,
    provenance,
    load_provenance,
    set_ledger,
    write_provenance,
)


@pytest.fixture
def ledger():
    """A fresh ledger installed as the process-wide default."""
    fresh = ProvenanceLedger()
    previous = set_ledger(fresh)
    try:
        yield fresh
    finally:
        set_ledger(previous)


class TestLedger:
    def test_record_stamps_kind_and_seq(self, ledger):
        ledger.record("placement", job="a")
        ledger.record("swap", job="a", outcome="taken")
        events = ledger.events()
        assert [e["seq"] for e in events] == [0, 1]
        assert [e["kind"] for e in events] == ["placement", "swap"]
        assert events[1]["outcome"] == "taken"

    def test_events_filter_by_since_and_kind(self, ledger):
        ledger.record("placement", job="a")
        baseline = ledger.n_events
        ledger.record("swap", job="a")
        ledger.record("placement", job="b")
        assert [e["kind"] for e in ledger.events(since=baseline)] == ["swap", "placement"]
        assert [e["job"] for e in ledger.events(kind="placement")] == ["a", "b"]


class TestBoundedLedger:
    @pytest.fixture
    def small(self, monkeypatch):
        monkeypatch.setattr(provenance, "_MAX_EVENTS", 4)
        return ProvenanceLedger()

    def test_seq_and_n_events_count_past_the_cap(self, small):
        for index in range(10):
            small.record("placement", job=index)
        assert small.n_events == 10
        assert small.first_held == 6
        assert [e["seq"] for e in small.events()] == [6, 7, 8, 9]
        assert [e["job"] for e in small.events()] == [6, 7, 8, 9]

    def test_events_since_returns_only_held_events(self, small):
        for index in range(3):
            small.record("placement", job=index)
        baseline = small.n_events
        for index in range(3, 6):
            small.record("swap", job=index)
        assert [e["seq"] for e in small.events(since=baseline)] == [3, 4, 5]
        assert [e["seq"] for e in small.events(since=baseline, kind="swap")] == [3, 4, 5]
        for index in range(6, 9):
            small.record("swap", job=index)
        # The baseline's first events are gone; what is held comes back.
        assert [e["seq"] for e in small.events(since=baseline)] == [5, 6, 7, 8]
        assert small.events(since=small.n_events) == []


class TestSerialization:
    def test_write_and_load_round_trip(self, ledger, tmp_path):
        ledger.record("decision_wave", candidates=[{"job": "a", "cost": 1.5}])
        ledger.record("swap", outcome="rejected", ratio=0.97)
        path = ledger.write_jsonl(tmp_path / "PROVENANCE_run.jsonl")
        events = load_provenance(path)
        assert [e["kind"] for e in events] == ["decision_wave", "swap"]
        assert events[0]["candidates"] == [{"job": "a", "cost": 1.5}]
        assert events[1]["ratio"] == 0.97

    def test_write_jsonl_since_exports_the_delta(self, ledger, tmp_path):
        ledger.record("placement", job="warmup")
        baseline = ledger.n_events
        ledger.record("swap", job="real")
        events = load_provenance(ledger.write_jsonl(tmp_path / "p.jsonl", since=baseline))
        assert [e["kind"] for e in events] == ["swap"]

    def test_write_provenance_creates_parent_dirs(self, tmp_path):
        path = write_provenance([{"kind": "x"}], tmp_path / "deep" / "p.jsonl")
        assert load_provenance(path) == [{"kind": "x"}]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"kind": "a"}\n\n  \n{"kind": "b"}\n')
        assert [e["kind"] for e in load_provenance(path)] == ["a", "b"]


class TestMalformedProvenance:
    def test_non_json_line_raises_with_location(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"kind": "ok"}\nnot json at all\n')
        with pytest.raises(ValueError, match=r":2: malformed provenance line"):
            load_provenance(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not an object"):
            load_provenance(path)

    @pytest.mark.parametrize(
        "event", [{}, {"kind": ""}, {"kind": 7}, {"seq": 0, "job": "a"}]
    )
    def test_missing_or_bad_kind_raises(self, tmp_path, event):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(event) + "\n")
        with pytest.raises(ValueError, match="kind"):
            load_provenance(path)
