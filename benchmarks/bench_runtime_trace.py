"""Runtime-trace simulation throughput over the shared ``repro.sim`` kernel.

Both discrete-event simulators now run on one kernel, so this benchmark
tracks the hot path they share: how fast the runtime engine simulates RLHF
iterations on the Figure 11/12 setup (PPO, 7B actor + 7B critic, 16 GPUs),
how fast a trace-driven multi-job schedule processes kernel events once the
plan cache is warm, and how fast the unified span records export to Chrome
trace JSON.  Also checked, every run: the engine is deterministic (two runs
of one plan produce identical traces) and every exported trace file
validates against the Trace Event Format required keys and round-trips
through ``json.load``.

Results are written to ``BENCH_runtime_trace.json`` at the repo root
(``BENCH_runtime_trace.smoke.json`` for ``--smoke`` runs, so CI never
clobbers the committed full baseline) and compared against the committed
baseline by ``benchmarks/check_bench_regression.py``.  The exported Chrome
traces land in ``TRACE_runtime_iteration.json`` / ``TRACE_schedule.json``
(uploaded as CI artifacts).

Run standalone (``python benchmarks/bench_runtime_trace.py``; add
``--smoke`` for a seconds-long CI-friendly run) or via pytest
(``pytest benchmarks/bench_runtime_trace.py``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, Optional

from repro.algorithms import build_ppo_graph
from repro.cluster import make_cluster
from repro.core import ParallelStrategy, SearchConfig, instructgpt_workload, symmetric_plan
from repro.experiments import format_table
from repro.obs import artifact_path, machine_fingerprint
from repro.runtime import RuntimeEngine
from repro.sched import JobSpec, SchedulerConfig, schedule_trace
from repro.service import PlanService
from repro.sim import load_chrome_trace

_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = "BENCH_runtime_trace.json"
SMOKE_OUTPUT = "BENCH_runtime_trace.smoke.json"
ITERATION_TRACE = "TRACE_runtime_iteration.json"
SCHEDULE_TRACE = "TRACE_schedule.json"


def _artifact(name: str) -> Path:
    """Artifact location: ``REPRO_ARTIFACT_DIR`` wins, else the repo root
    (the historical destination the committed baselines live at)."""
    return artifact_path(name, default_dir=_REPO_ROOT)


def figure11_setup(smoke: bool):
    """The Figure 11/12 engine setup: PPO 7B+7B on two 8-GPU nodes."""
    graph = build_ppo_graph()
    workload = instructgpt_workload(
        "7b", "7b", batch_size=128 if smoke else 512
    )
    cluster = make_cluster(16)
    plan = symmetric_plan(graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
    return graph, workload, cluster, plan


def _engine_throughput(smoke: bool) -> Dict[str, float]:
    graph, workload, cluster, plan = figure11_setup(smoke)
    engine = RuntimeEngine(cluster, workload)
    reference = engine.run_iteration(graph, plan)  # warm cost-model caches

    # Determinism: a second simulation of the same plan is span-identical.
    repeat = engine.run_iteration(graph, plan)
    assert repeat.total_seconds == reference.total_seconds
    assert repeat.call_spans == reference.call_spans
    assert repeat.gpu_spans == reference.gpu_spans

    n_iterations = 10 if smoke else 40
    started = time.perf_counter()
    for _ in range(n_iterations):
        trace = engine.run_iteration(graph, plan)
    elapsed = time.perf_counter() - started
    n_spans = sum(len(spans) for spans in trace.gpu_spans.values())

    export_started = time.perf_counter()
    path = trace.export_chrome_trace(str(_artifact(ITERATION_TRACE)))
    export_s = time.perf_counter() - export_started
    events = load_chrome_trace(path)

    return {
        "engine_iterations_per_sec": n_iterations / elapsed,
        "engine_spans_per_iteration": float(n_spans),
        "engine_spans_per_sec": n_iterations * n_spans / elapsed,
        "chrome_export_events": float(len(events)),
        "chrome_export_events_per_sec": len(events) / export_s,
        "iteration_seconds_simulated": trace.total_seconds,
    }


def _schedule_events_rate(
    smoke: bool,
    n_jobs: Optional[int] = None,
    n_gpus: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> Dict[str, float]:
    """Kernel events/sec of a cache-warm trace-driven schedule.

    The first run pays the plan searches and engine profiles; the second run
    reuses the shared service cache and measures the event loop itself.  Any
    of the ``--jobs/--gpus/--horizon`` scale flags switches the scenario from
    the legacy hand-rolled job list to a synthetic fleet trace
    (:mod:`repro.capacity.fleet`) under the fleet scheduler preset, so one
    harness drives both the small golden scenario and fleet-scale runs.
    """
    scaled = n_jobs is not None or n_gpus is not None or horizon_s is not None
    if scaled:
        from repro.capacity import (
            FleetTraceConfig,
            fleet_scheduler_config,
            generate_fleet_trace,
        )

        jobs = generate_fleet_trace(
            FleetTraceConfig(
                n_jobs=n_jobs if n_jobs is not None else 100,
                horizon_s=horizon_s if horizon_s is not None else 7200.0,
                seed=7,
            )
        )
        cluster = make_cluster(n_gpus if n_gpus is not None else 256)
        config = fleet_scheduler_config()
    else:
        jobs = [
            JobSpec(
                name=f"job-{i}",
                algorithm="grpo" if i % 2 else "ppo",
                batch_size=64,
                target_iterations=4 if smoke else 12,
                min_gpus=8,
                max_gpus=16,
            )
            for i in range(4 if smoke else 8)
        ]
        cluster = make_cluster(32 if smoke else 64)
        config = SchedulerConfig(
            search=SearchConfig(
                max_iterations=60 if smoke else 200,
                time_budget_s=1.0,
                record_history=False,
            )
        )
    with PlanService(estimator_cache_size=32) as service:
        schedule_trace(cluster, jobs, policy="first_fit", config=config, service=service)
        started = time.perf_counter()
        report = schedule_trace(
            cluster,
            jobs,
            policy="first_fit",
            config=config,
            service=service,
            trace_path=str(_artifact(SCHEDULE_TRACE)),
        )
        warm_s = time.perf_counter() - started
    events = load_chrome_trace(report.trace_path)
    assert report.all_completed, "benchmark schedule left jobs incomplete"
    assert report.n_events > 0
    return {
        "schedule_kernel_events": float(report.n_events),
        "schedule_events_per_sec": report.n_events / warm_s,
        "schedule_engine_profiles": float(report.engine_profile_runs),
        "schedule_chrome_events": float(len(events)),
        "schedule_warm_wall_s": warm_s,
    }


def _metric(value: float, higher_is_better: bool) -> Dict[str, object]:
    return {"value": value, "higher_is_better": higher_is_better}


def run_benchmark(
    smoke: bool = False,
    n_jobs: Optional[int] = None,
    n_gpus: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> Dict[str, object]:
    engine = _engine_throughput(smoke)
    schedule = _schedule_events_rate(smoke, n_jobs=n_jobs, n_gpus=n_gpus, horizon_s=horizon_s)
    return {
        "benchmark": "runtime_trace",
        "mode": "smoke" if smoke else "full",
        "setup": "Figure 11/12 engine setup (PPO 7B+7B, 16 GPUs) + warm 4-8 job schedule",
        "machine": machine_fingerprint(),
        "details": {**engine, **schedule},
        "metrics": {
            "engine_iterations_per_sec": _metric(engine["engine_iterations_per_sec"], True),
            "engine_spans_per_sec": _metric(engine["engine_spans_per_sec"], True),
            "chrome_export_events_per_sec": _metric(
                engine["chrome_export_events_per_sec"], True
            ),
            "schedule_events_per_sec": _metric(schedule["schedule_events_per_sec"], True),
        },
    }


def _check(report: Dict[str, object]) -> None:
    metrics = report["metrics"]
    assert metrics["engine_iterations_per_sec"]["value"] > 0
    assert metrics["schedule_events_per_sec"]["value"] > 0
    details = report["details"]
    assert details["chrome_export_events"] > 0
    assert details["schedule_chrome_events"] > 0


def _print(report: Dict[str, object]) -> None:
    details = report["details"]
    rows = [
        {"metric": "engine iterations simulated / s",
         "value": round(details["engine_iterations_per_sec"], 1)},
        {"metric": "engine spans recorded / s",
         "value": round(details["engine_spans_per_sec"])},
        {"metric": "chrome events exported / s",
         "value": round(details["chrome_export_events_per_sec"])},
        {"metric": "scheduler kernel events / s (warm)",
         "value": round(details["schedule_events_per_sec"], 1)},
        {"metric": "engine profiles behind the schedule",
         "value": round(details["schedule_engine_profiles"])},
    ]
    print()
    print(format_table(rows, title=f"Runtime trace throughput ({report['mode']})"))
    print(f"iteration trace: {ITERATION_TRACE}, schedule trace: {SCHEDULE_TRACE}")


def write_report(report: Dict[str, object], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def test_runtime_trace(benchmark):
    from conftest import run_once

    report = run_once(benchmark, run_benchmark, smoke=True)
    _check(report)
    _print(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long CI run: smaller batch, fewer iterations and jobs",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: "
            f"{DEFAULT_OUTPUT} for full runs, {SMOKE_OUTPUT} for --smoke runs "
            "— smoke numbers never overwrite the committed full baseline)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="scale mode: replay a synthetic fleet trace with this many jobs",
    )
    parser.add_argument(
        "--gpus",
        type=int,
        default=None,
        help="scale mode: cluster size in GPUs for the schedule scenario",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="scale mode: fleet trace arrival horizon in seconds",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None:
        output = _artifact(SMOKE_OUTPUT if args.smoke else DEFAULT_OUTPUT)
    report = run_benchmark(
        smoke=args.smoke, n_jobs=args.jobs, n_gpus=args.gpus, horizon_s=args.horizon
    )
    _print(report)
    _check(report)
    write_report(report, output)
    _write_metrics_snapshot(output, report)
    rate = report["metrics"]["engine_iterations_per_sec"]["value"]
    print(f"\nOK: {rate:.1f} engine iterations simulated per second, traces exported")
    return 0


def _write_metrics_snapshot(bench_output: Path, report: Dict[str, object]) -> None:
    """Dump the live telemetry registry next to the benchmark report
    (``METRICS_runtime_trace[.smoke].json``, uploaded as a CI artifact)."""
    from repro.obs import get_registry, write_metrics_snapshot

    registry = get_registry()
    if not registry.enabled:
        return
    path = bench_output.with_name(
        bench_output.name.replace("BENCH_", "METRICS_", 1)
    )
    write_metrics_snapshot(
        registry, path, extra={"benchmark": report["benchmark"], "mode": report["mode"]}
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    raise SystemExit(main())
