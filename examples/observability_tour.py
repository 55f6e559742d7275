#!/usr/bin/env python3
"""Tour the observability layer of one scheduling run, end to end.

Every subsystem — the plan service, the MCMC search, the cluster scheduler
and the shared sim kernel — reports into process-wide telemetry
(:mod:`repro.obs`).  This example runs a small two-job schedule with online
re-planning enabled and walks through everything it left behind:

1. **JSON metrics snapshot** (``METRICS_*.json``): every counter, gauge and
   histogram — including streaming p50/p90/p99 and exact min/max of the
   service request latency — written automatically next to the Chrome trace;
2. **Prometheus text exposition**: the same registry rendered in the scrape
   format (``# HELP``/``# TYPE``, ``_bucket``/``_sum``/``_count``/``_min``/
   ``_max``);
3. **Chrome-trace counter tracks**: the merged schedule trace carries live
   tracks (running/queued jobs, free/busy GPUs, utilization, cache hit
   ratio) rendered as stacked area charts in https://ui.perfetto.dev;
4. **Causal span tree**: the same trace carries async span events with flow
   arrows — scheduler decision wave → plan-service request → per-chain
   search slices — on a ``planning`` process;
5. **Decision provenance** (``PROVENANCE_*.jsonl``): the arithmetic behind
   every placement, swap evaluation and plan request;
6. **The run report CLI** (``python -m repro.obs.report <dir>``): the whole
   directory digested into a human-readable narrative.

Run with::

    python examples/observability_tour.py [--out-dir traces] [--gpus 16]

Set ``REPRO_LOG_LEVEL=debug REPRO_LOG_FORMAT=json`` for structured logs.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.core import SearchConfig, schedule_jobs
from repro.obs import get_registry, load_provenance, to_prometheus
from repro.obs.report import render_report
from repro.sched import JobSpec, SchedulerConfig
from repro.sim import load_chrome_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="traces", help="where to write the exports")
    parser.add_argument("--gpus", type=int, default=16, help="cluster size (multiple of 8)")
    parser.add_argument(
        "--search-iterations", type=int, default=120, help="plan search budget"
    )
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # --- One instrumented schedule: trace + metrics + provenance. -------- #
    jobs = [
        JobSpec(name="ppo-prod", algorithm="ppo", batch_size=128,
                target_iterations=6, min_gpus=8, max_gpus=args.gpus),
        JobSpec(name="grpo-ablation", algorithm="grpo", batch_size=64,
                target_iterations=4, min_gpus=8, max_gpus=8, arrival_time=10.0),
    ]
    trace_path = out_dir / "TRACE_schedule.json"
    report = schedule_jobs(
        jobs,
        n_gpus=args.gpus,
        policy="first_fit",
        config=SchedulerConfig(
            search=SearchConfig(
                max_iterations=args.search_iterations,
                time_budget_s=2.0,
                record_history=False,
            ),
            online_replanning=True,
            poll_interval_s=15.0,
            poll_iterations=max(10, args.search_iterations // 2),
        ),
        trace_path=str(trace_path),
    )
    print(f"schedule: {report.n_completed}/{report.n_jobs} jobs, "
          f"makespan {report.makespan:.1f}s")

    # --- 1. The JSON snapshot written next to the trace. ----------------- #
    snapshot = json.loads(Path(report.metrics_path).read_text())
    print(f"\nmetrics snapshot (schema v{snapshot['schema_version']}): "
          f"{len(snapshot['metrics'])} instruments -> {report.metrics_path}")
    for name in ("service_request_seconds", "sched_decision_seconds"):
        for series in snapshot["metrics"][name]["series"]:
            labels = series["labels"] or {"outcome": "-"}
            print(f"  {name}{labels}: count={series['count']} "
                  f"p50={series['p50'] * 1e3:.2f}ms p99={series['p99'] * 1e3:.2f}ms "
                  f"max={series['max'] * 1e3:.2f}ms")

    # --- 2. Prometheus text exposition of the same registry. ------------- #
    exposition = to_prometheus(get_registry())
    prom_path = out_dir / "metrics.prom"
    prom_path.write_text(exposition)
    lines = exposition.splitlines()
    print(f"\nPrometheus exposition: {len(lines)} lines -> {prom_path}")
    for line in lines[:6]:
        print(f"  {line}")

    # --- 3. Counter tracks inside the merged Chrome trace. --------------- #
    events = load_chrome_trace(report.trace_path)
    tracks = sorted({e["name"] for e in events if e["ph"] == "C"})
    print(f"\ncounter tracks in {report.trace_path}: {', '.join(tracks)}")

    # --- 4. The causal span tree merged into the same trace. ------------- #
    span_begins = [e for e in events if e.get("ph") == "b"]
    flows = [e for e in events if e.get("ph") == "s"]
    names = sorted({e["name"].split(" ")[0] for e in span_begins})
    print(f"\ncausal spans: {len(span_begins)} spans, {len(flows)} flow arrows "
          f"({', '.join(names)})")
    print("In Perfetto the arrows point from each scheduler decision to "
          "the plan request and search chains it caused.")

    # --- 5. The decision-provenance ledger. ------------------------------ #
    provenance = load_provenance(report.provenance_path)
    kinds: dict = {}
    for event in provenance:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    summary = ", ".join(f"{kind}: {count}" for kind, count in sorted(kinds.items()))
    print(f"\nprovenance ledger: {len(provenance)} events -> "
          f"{report.provenance_path} ({summary})")

    # --- 6. The run report CLI over the whole directory. ----------------- #
    rendered = render_report(out_dir, top_k=5)
    print(f"\nrun report (python -m repro.obs.report {out_dir}):\n")
    print(rendered)


if __name__ == "__main__":
    main()
