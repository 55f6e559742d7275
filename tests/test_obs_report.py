"""Integration tests: causal trace + provenance + the explain-run report CLI.

One swap-forcing scheduler run (tiny admission budget, generous online
budget — the recipe from ``test_sched_online``) produces the full artifact
family in a temp directory; the tests then hold the run to the PR's
acceptance contract:

* the merged Chrome trace contains async span events and flow arrows
  linking a placement decision → its PlanService request → a search chain,
  and the swap-accept instant back to the session poll that produced the
  winning plan, with ``validate_chrome_events`` passing;
* the ``PROVENANCE_*.jsonl`` ledger names every swap (accept and reject)
  with its margin arithmetic and every job's plan lineage;
* ``python -m repro.obs.report`` renders all of it, and fails with a
  nonzero exit on malformed provenance.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import make_cluster
from repro.core import SearchConfig
from repro.obs import (
    MetricsRegistry,
    ProvenanceLedger,
    Tracer,
    load_provenance,
    set_ledger,
    set_registry,
    set_tracer,
)
from repro.obs.report import discover_runs, main, render_report
from repro.sched import ClusterScheduler, JobSpec, SchedulerConfig
from repro.sim import load_chrome_trace, validate_chrome_events


def _swap_forcing_run(out_dir: Path):
    """The deterministic swap-forcing recipe from ``test_sched_online``."""
    jobs = [
        JobSpec(
            name=f"job-{i}",
            algorithm="grpo" if i % 2 else "ppo",
            batch_size=128,
            arrival_time=40.0 * i,
            target_iterations=25,
            min_gpus=8,
            max_gpus=8,
        )
        for i in range(2)
    ]
    config = SchedulerConfig(
        search=SearchConfig(
            max_iterations=20, time_budget_s=1.0, seed=0, record_history=False
        ),
        elastic=False,
        online_replanning=True,
        online_search=SearchConfig(
            max_iterations=600, time_budget_s=30.0, seed=0, record_history=False
        ),
        poll_interval_s=15.0,
        poll_iterations=150,
        swap_margin=1.0,
    )
    scheduler = ClusterScheduler(
        cluster=make_cluster(16),
        jobs=jobs,
        config=config,
        trace_path=str(out_dir / "TRACE_online.json"),
    )
    return scheduler.run()


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced, provenance'd scheduler run shared by every test here."""
    out_dir = tmp_path_factory.mktemp("obs_run")
    prev_tracer = set_tracer(Tracer())
    prev_ledger = set_ledger(ProvenanceLedger())
    prev_registry = set_registry(MetricsRegistry())
    try:
        report = _swap_forcing_run(out_dir)
    finally:
        set_tracer(prev_tracer)
        set_ledger(prev_ledger)
        set_registry(prev_registry)
    assert report.all_completed
    assert report.n_swaps >= 1, "recipe failed to force a swap"
    return out_dir, report


def _span_tree(events):
    """Map span_id -> (name, parent_id) straight from the async begin args."""
    tree = {}
    for event in events:
        if event.get("ph") == "b":
            args = event.get("args", {})
            tree[args["span_id"]] = (event["name"], args.get("parent_id"))
    return tree


def _ancestry(tree, span_id):
    names = []
    while span_id is not None:
        name, parent = tree[span_id]
        names.append(name)
        span_id = parent
    return names


class TestCausalTrace:
    def test_trace_validates_with_spans_and_flows(self, traced_run):
        out_dir, report = traced_run
        events = load_chrome_trace(report.trace_path)
        validate_chrome_events(events)
        phases = {e["ph"] for e in events}
        assert {"b", "e", "s", "f"} <= phases
        assert len([e for e in events if e["ph"] == "b"]) == len(
            [e for e in events if e["ph"] == "e"]
        )

    def test_placement_decision_links_to_search_chain(self, traced_run):
        """Flow: decision wave -> plan request -> search -> chain slice."""
        out_dir, report = traced_run
        tree = _span_tree(load_chrome_trace(report.trace_path))
        chains = [
            _ancestry(tree, span_id)
            for span_id, (name, _) in tree.items()
            if name.startswith("chain ")
        ]
        assert any(
            ancestry[1:4] == ["search", "plan request", "decision wave"]
            for ancestry in chains
        ), f"no admission chain rooted in a decision wave: {chains}"

    def test_swap_links_back_to_winning_poll(self, traced_run):
        """The accepted swap is grafted under the session poll that won."""
        out_dir, report = traced_run
        events = load_chrome_trace(report.trace_path)
        tree = _span_tree(events)
        swaps = [
            _ancestry(tree, span_id)
            for span_id, (name, _) in tree.items()
            if name == "plan swap"
        ]
        assert len(swaps) == report.n_swaps
        assert all(ancestry[1] == "session poll" for ancestry in swaps)
        # The online chains hang under polls too.
        assert any(
            ancestry[:2] == ["chain 0", "session poll"]
            for ancestry in (
                _ancestry(tree, s) for s, (n, _) in tree.items() if n.startswith("chain ")
            )
        )
        # Swap instants on the cluster timeline match the report.
        instants = [e for e in events if e.get("ph") == "i" and e.get("cat") == "swap"]
        assert len(instants) == report.n_swaps


class TestProvenanceLedgerFile:
    def test_provenance_lands_next_to_trace(self, traced_run):
        out_dir, report = traced_run
        assert report.provenance_path == str(out_dir / "PROVENANCE_TRACE_online.jsonl")
        assert "provenance_path" in report.to_dict()

    def test_every_decision_kind_is_recorded(self, traced_run):
        out_dir, report = traced_run
        events = load_provenance(report.provenance_path)
        kinds = {e["kind"] for e in events}
        assert {"decision_wave", "placement", "plan_request", "swap"} <= kinds

    def test_swaps_carry_full_margin_arithmetic(self, traced_run):
        out_dir, report = traced_run
        swaps = [
            e for e in load_provenance(report.provenance_path) if e["kind"] == "swap"
        ]
        taken = [e for e in swaps if e["outcome"] == "taken"]
        assert len(taken) == report.n_swaps
        for event in swaps:
            for field in ("job", "planned", "cost", "switch", "remaining",
                          "effective", "ratio", "threshold"):
                assert field in event, f"swap event misses {field}: {event}"
            assert event["effective"] == pytest.approx(
                event["cost"] + event["switch"] / event["remaining"]
            )
            assert event["ratio"] == pytest.approx(
                event["planned"] / event["effective"]
            )
            if event["outcome"] == "taken":
                assert event["ratio"] >= event["threshold"]
                assert "saved" in event
            else:
                assert event["ratio"] < event["threshold"]

    def test_every_job_has_a_lineage(self, traced_run):
        out_dir, report = traced_run
        placements = [
            e for e in load_provenance(report.provenance_path)
            if e["kind"] == "placement"
        ]
        assert {e["job"] for e in placements} == {"job-0", "job-1"}
        for event in placements:
            assert event["lineage"] in ("cold", "warm", "hit")
            assert event["fingerprint"]


class TestReportCLI:
    def test_render_names_every_swap_and_lineage(self, traced_run):
        out_dir, report = traced_run
        text = render_report(out_dir)
        assert "== run TRACE_online ==" in text
        assert "-- swap ledger --" in text
        swaps = load_provenance(report.provenance_path)
        swaps = [e for e in swaps if e["kind"] == "swap"]
        swap_lines = [l for l in text.splitlines() if "ACCEPTED" in l or "rejected" in l]
        assert len(swap_lines) == len(swaps)
        for line in swap_lines:
            for token in ("planned", "candidate", "switch", "effective",
                          "ratio", "margin"):
                assert token in line
        assert text.count("ACCEPTED") == report.n_swaps
        assert "-- plan lineage --" in text
        for job in ("job-0", "job-1"):
            assert any(job in l for l in text.splitlines() if "→" in l)
        assert "plan requests —" in text
        assert "-- timeline --" in text
        assert "-- metrics snapshot --" in text
        assert "schema version 2" in text

    def test_main_exit_codes(self, traced_run, tmp_path, capsys):
        out_dir, _report = traced_run
        assert main([str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "swap ledger" in out
        # --out writes the rendered report to a file (the CI artifact path).
        target = tmp_path / "report.txt"
        assert main([str(out_dir), "--out", str(target)]) == 0
        assert "swap ledger" in target.read_text()
        # Not a directory / empty directory both fail cleanly.
        assert main([str(tmp_path / "missing")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([str(empty)]) == 2

    def test_malformed_provenance_fails_the_run(self, tmp_path, capsys):
        (tmp_path / "TRACE_x.json").write_text(json.dumps({"traceEvents": []}))
        (tmp_path / "PROVENANCE_TRACE_x.jsonl").write_text('{"kind": "ok"}\ngarbage\n')
        assert main([str(tmp_path)]) == 2
        assert "malformed provenance" in capsys.readouterr().err


class TestDiscovery:
    def test_discover_groups_sibling_artifacts(self, tmp_path):
        (tmp_path / "TRACE_a.json").write_text("{}")
        (tmp_path / "METRICS_TRACE_a.json").write_text("{}")
        (tmp_path / "PROVENANCE_TRACE_a.jsonl").write_text("")
        (tmp_path / "PROVENANCE_TRACE_b.jsonl").write_text("")
        runs = discover_runs(tmp_path)
        by_stem = {run["stem"]: run for run in runs}
        assert set(by_stem) == {"TRACE_a", "TRACE_b"}
        a = by_stem["TRACE_a"]
        assert a["trace"].name == "TRACE_a.json"
        assert a["metrics"].name == "METRICS_TRACE_a.json"
        assert a["provenance"].name == "PROVENANCE_TRACE_a.jsonl"
        # Provenance without a trace still becomes a (trace-less) run.
        assert by_stem["TRACE_b"]["trace"] is None
