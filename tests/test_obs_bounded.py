"""The process-global span and provenance stores stay bounded across runs.

Nothing resets the tracer or the ledger between scheduler runs here: each
run exports its own records by the counts it snapshots when it starts.
With the caps patched small, a run whose records fit exports exactly what
it would alone, and a run whose first records were evicted says so (one
warning, a ``seq`` gap in its provenance file) instead of losing them
silently.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Any, Dict, List

import pytest

from repro.capacity import FleetTraceConfig, fleet_scheduler_config, generate_fleet_trace
from repro.cluster import make_cluster
from repro.core import SearchConfig
from repro.obs import (
    ProvenanceLedger,
    Tracer,
    load_provenance,
    provenance,
    tracing,
)
from repro.sched import ClusterScheduler, ScheduleReport
from repro.service import PlanService
from repro.sim import load_chrome_trace

SMOKE_JOBS = generate_fleet_trace(FleetTraceConfig(n_jobs=10, horizon_s=3600.0, seed=7))
SMOKE_CONFIG = dataclasses.replace(
    fleet_scheduler_config(),
    search=SearchConfig(max_iterations=60, time_budget_s=600.0, record_history=False),
)
# One warm smoke replay records 8 spans and 18 events, the cold one 23 and
# 18: a cap of 40 holds any single replay but evicts across 20 of them.
SMALL_CAP = 40


def _install_stores(monkeypatch, cap: int):
    monkeypatch.setattr(tracing, "_MAX_RECORDS", cap)
    monkeypatch.setattr(provenance, "_MAX_EVENTS", cap)
    tracer, ledger = Tracer(), ProvenanceLedger()
    monkeypatch.setattr(tracing, "_TRACER", tracer)
    monkeypatch.setattr(provenance, "_LEDGER", ledger)
    return tracer, ledger


def _replay(service: PlanService, trace_path=None) -> ScheduleReport:
    return ClusterScheduler(
        make_cluster(32), SMOKE_JOBS, policy="first_fit", config=SMOKE_CONFIG,
        service=service, trace_path=trace_path,
    ).run()


class _Warnings(logging.Handler):
    """Collects the warnings of the ``repro.sched`` logger (it does not propagate)."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: List[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


@pytest.fixture
def sched_warnings():
    handler = _Warnings()
    logger = logging.getLogger("repro.sched")
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


def _canonical_provenance(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Events with ``seq`` rebased to the run's first and wall time dropped."""
    first = events[0]["seq"]
    canonical = []
    for event in events:
        event = {k: v for k, v in event.items() if k != "wave_seconds"}
        event["seq"] -= first
        canonical.append(event)
    return canonical


def _canonical_chrome(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Chrome events with span wall times dropped and span ids renamed in order.

    Causal spans (async ``b``/``e`` and flow ``s``/``f`` events) carry
    wall-clock timestamps and process-unique ids; everything else is
    virtual time and compared exactly.
    """
    names: Dict[str, int] = {}

    def rename(span_id):
        return names.setdefault(span_id, len(names)) if span_id is not None else None

    canonical = []
    for event in events:
        event = dict(event)
        if event["ph"] in ("b", "e", "s", "f"):
            del event["ts"]
            event["id"] = rename(event["id"])
            args = {k: v for k, v in event.get("args", {}).items() if k != "wave_seconds"}
            for key in ("trace_id", "span_id", "parent_id"):
                if key in args:
                    args[key] = rename(args[key])
            if args:
                event["args"] = args
        canonical.append(event)
    return canonical


def test_twenty_replays_stay_bounded_and_export_as_if_alone(
    monkeypatch, tmp_path, sched_warnings
):
    tracer, ledger = _install_stores(monkeypatch, SMALL_CAP)
    with PlanService(estimator_cache_size=64) as service:
        for index in range(20):
            last = _replay(service, trace_path=str(tmp_path / f"TRACE_{index}.json"))
            assert len(tracer.records()) <= SMALL_CAP
            assert len(ledger.events()) <= SMALL_CAP
    assert tracer.first_held > 0 and ledger.first_held > 0  # the caps did bind
    assert sched_warnings == []  # every replay fit
    shared_provenance = load_provenance(last.provenance_path)
    shared_chrome = load_chrome_trace(last.trace_path)

    # The same (warm) replay with fresh stores, as a run alone would see them.
    with PlanService(estimator_cache_size=64) as service:
        _replay(service)
        _install_stores(monkeypatch, SMALL_CAP)
        alone = _replay(service, trace_path=str(tmp_path / "alone" / "TRACE.json"))
    alone_provenance = load_provenance(alone.provenance_path)
    assert alone_provenance[0]["seq"] == 0
    assert _canonical_provenance(shared_provenance) == _canonical_provenance(alone_provenance)
    assert _canonical_chrome(shared_chrome) == _canonical_chrome(
        load_chrome_trace(alone.trace_path)
    )


def test_evicted_baseline_warns_once_and_shows_the_seq_gap(
    monkeypatch, tmp_path, sched_warnings
):
    tracer, ledger = _install_stores(monkeypatch, 4)
    with PlanService(estimator_cache_size=64) as service:
        report = _replay(service, trace_path=str(tmp_path / "TRACE.json"))
    assert len(sched_warnings) == 1
    assert "evicted" in sched_warnings[0]
    events = load_provenance(report.provenance_path)
    # The run started at seq 0, but only the newest 4 of its events remain.
    assert ledger.n_events > 4
    assert [e["seq"] for e in events] == list(range(ledger.n_events - 4, ledger.n_events))
    assert len(tracer.records()) == 4
