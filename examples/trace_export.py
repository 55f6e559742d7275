#!/usr/bin/env python3
"""Export unified Chrome traces from both simulators.

Both discrete-event simulators run on the shared ``repro.sim`` kernel, so
both export the same trace format.  This example produces two files,
loadable in ``chrome://tracing`` or https://ui.perfetto.dev:

1. **One engine iteration** (``iteration_trace.json``): the searched plan of
   a PPO job executed on the runtime engine — one thread row per GPU with
   compute/communication/reallocation spans, plus a call-level overview row.
2. **One merged multi-job schedule** (``schedule_trace.json``): a small
   cluster trace with an injected node failure — cluster-level events
   (arrivals, placements, the failure, the displacement, the replan) on one
   process, and per-job processes carrying running segments and
   parameter-switch windows.  Each segment span's args rebuild every
   completed iteration's engine-profiled call phases; the first and last
   iteration of each segment are also drawn as explicit spans.

Run with::

    python examples/trace_export.py [--out-dir traces] [--gpus 16]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.core import SearchConfig, run_iteration_trace, schedule_jobs
from repro.sched import JobSpec, NodeFailure, SchedulerConfig
from repro.sim import load_chrome_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="traces", help="where to write the JSON traces")
    parser.add_argument("--gpus", type=int, default=16, help="cluster size (multiple of 8)")
    parser.add_argument(
        "--search-iterations", type=int, default=120, help="plan search budget"
    )
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    search = SearchConfig(
        max_iterations=args.search_iterations, time_budget_s=2.0, record_history=False
    )

    # --- 1. One engine iteration, plan searched then simulated. ---------- #
    iteration_path = out_dir / "iteration_trace.json"
    trace, _experiment = run_iteration_trace(
        "ppo",
        n_gpus=args.gpus,
        batch_size=128,
        search=search,
        trace_path=str(iteration_path),
    )
    events = load_chrome_trace(iteration_path)
    print(f"engine iteration: {trace.total_seconds:.2f}s simulated, "
          f"{len(events)} trace events -> {iteration_path}")

    # --- 2. One merged schedule: cluster events + per-job phases. -------- #
    schedule_path = out_dir / "schedule_trace.json"
    jobs = [
        JobSpec(name="ppo-prod", algorithm="ppo", batch_size=128,
                target_iterations=8, min_gpus=8, max_gpus=args.gpus),
        JobSpec(name="grpo-ablation", algorithm="grpo", batch_size=64,
                target_iterations=5, min_gpus=8, max_gpus=8, arrival_time=10.0),
    ]
    report = schedule_jobs(
        jobs,
        n_gpus=args.gpus,
        policy="first_fit",
        config=SchedulerConfig(search=search),
        failures=[NodeFailure(time=30.0, node=0, recovery_time=70.0)],
        trace_path=str(schedule_path),
    )
    events = load_chrome_trace(schedule_path)
    print(f"schedule: {report.n_completed}/{report.n_jobs} jobs, "
          f"makespan {report.makespan:.1f}s, {report.n_events} simulated events, "
          f"{report.engine_profile_runs} engine profiles, "
          f"{report.total_switch_seconds:.2f}s parameter switches")
    print(f"merged trace: {len(events)} events -> {schedule_path}")
    print("\nTimeline:")
    for event in report.timeline:
        job = f" {event['job']:<14s}" if event["job"] else " " * 15
        print(f"  t={event['time']:>7.1f}s  {event['event']:<11s}{job} {event['detail']}")
    print("\nOpen the JSON files in chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
