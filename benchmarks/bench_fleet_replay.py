"""Fleet-scale trace replay throughput and the capacity what-if grid.

The planning-product north star needs thousand-job, multi-thousand-GPU
traces to replay in seconds.  This benchmark drives that path end to end:

* generate a synthetic fleet trace (``repro.capacity.fleet``: Poisson
  arrivals with diurnal load over a recurring job-type mix),
* replay it twice on one shared :class:`PlanService` — the first run pays
  the cold plan searches, the second measures the scheduler event loop
  itself (``schedule_events_per_sec``) with the fleet preset (timeline off,
  throttled counters, candidate memo on),
* export the warm run's merged Chrome trace *sampled* (``REPRO_TRACE_SAMPLE``
  + ``REPRO_TRACE_MAX_EVENTS``), so even fleet traces stay loadable,
* replay the same trace against a grid of cluster shapes × policies through
  :func:`repro.capacity.whatif.capacity_whatif` and write the machine-
  readable cost/throughput frontier (``CAPACITY_fleet_frontier[.smoke].json``).

The headline metric is ``speedup_vs_runtime_trace``: warm fleet events/sec
over the committed small-scenario ``BENCH_runtime_trace.json`` baseline —
the 10x acceptance bar of the fleet-replay work.

Results land in ``BENCH_fleet_replay.json`` (``.smoke.json`` under
``--smoke``); compare with ``benchmarks/check_bench_regression.py``.  Scale
flags ``--jobs/--gpus/--horizon`` size the full mode explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.capacity import (
    CapacityCandidate,
    FleetTraceConfig,
    capacity_whatif,
    fleet_scheduler_config,
    generate_fleet_trace,
)
from repro.cluster import make_cluster
from repro.experiments import format_table
from repro.obs import artifact_path, machine_fingerprint
from repro.sched.scheduler import ClusterScheduler
from repro.service import PlanService
from repro.sim import load_chrome_trace

_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = "BENCH_fleet_replay.json"
SMOKE_OUTPUT = "BENCH_fleet_replay.smoke.json"
FLEET_TRACE = "TRACE_fleet_replay.json"
FRONTIER_REPORT = "CAPACITY_fleet_frontier.json"
SMOKE_FRONTIER_REPORT = "CAPACITY_fleet_frontier.smoke.json"
RUNTIME_TRACE_BASELINE = "BENCH_runtime_trace.json"

# Sampled trace-export knobs for the fleet trace (set only during export).
_TRACE_SAMPLE = "0.05"
_TRACE_MAX_EVENTS = "20000"


def fleet_setup(
    smoke: bool,
    n_jobs: Optional[int] = None,
    n_gpus: Optional[int] = None,
    horizon_s: Optional[float] = None,
):
    """The fleet scenario: trace config + cluster size, overridable by flags."""
    if n_jobs is None:
        n_jobs = 40 if smoke else 1200
    if n_gpus is None:
        n_gpus = 128 if smoke else 2048
    if horizon_s is None:
        horizon_s = 3600.0 if smoke else 21600.0
    trace_config = FleetTraceConfig(n_jobs=n_jobs, horizon_s=horizon_s, seed=7)
    return trace_config, n_gpus


def _artifact(name: str) -> Path:
    return artifact_path(name, default_dir=_REPO_ROOT)


def _baseline_events_per_sec() -> Optional[float]:
    """``schedule_events_per_sec`` of the committed small-scenario baseline."""
    path = _REPO_ROOT / RUNTIME_TRACE_BASELINE
    if not path.exists():
        return None
    try:
        report = json.loads(path.read_text())
        return float(report["metrics"]["schedule_events_per_sec"]["value"])
    except (ValueError, KeyError, TypeError):
        return None


def _export_sampled_trace(scheduler: ClusterScheduler) -> Dict[str, float]:
    """Export the merged Chrome trace with fleet sampling knobs engaged."""
    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_TRACE_SAMPLE", "REPRO_TRACE_MAX_EVENTS")
    }
    os.environ["REPRO_TRACE_SAMPLE"] = _TRACE_SAMPLE
    os.environ["REPRO_TRACE_MAX_EVENTS"] = _TRACE_MAX_EVENTS
    started = time.perf_counter()
    try:
        path = scheduler.export_chrome_trace(str(_artifact(FLEET_TRACE)))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    export_s = time.perf_counter() - started
    events = load_chrome_trace(path)
    return {
        "sampled_trace_events": float(len(events)),
        "trace_export_s": export_s,
    }


def _fleet_replay(
    smoke: bool,
    n_jobs: Optional[int] = None,
    n_gpus: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> Dict[str, float]:
    """Cold + warm replay of the fleet trace; the warm run is the metric."""
    trace_config, cluster_gpus = fleet_setup(smoke, n_jobs, n_gpus, horizon_s)
    jobs = generate_fleet_trace(trace_config)
    cluster = make_cluster(cluster_gpus)
    config = fleet_scheduler_config()
    with PlanService(max_workers=4, estimator_cache_size=64) as service:
        cold_started = time.perf_counter()
        ClusterScheduler(
            cluster, jobs, policy="first_fit", config=config, service=service
        ).run()
        cold_s = time.perf_counter() - cold_started
        warm_scheduler = ClusterScheduler(
            cluster, jobs, policy="first_fit", config=config, service=service
        )
        warm_started = time.perf_counter()
        report = warm_scheduler.run()
        warm_s = time.perf_counter() - warm_started
        trace_stats = _export_sampled_trace(warm_scheduler)
    assert report.n_events > 0
    assert report.all_completed, "fleet replay left jobs incomplete"
    out = {
        "fleet_jobs": float(len(jobs)),
        "fleet_cluster_gpus": float(cluster_gpus),
        "fleet_horizon_s": trace_config.horizon_s,
        "fleet_kernel_events": float(report.n_events),
        "fleet_makespan_s": report.makespan,
        "fleet_total_iterations": report.total_iterations,
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "schedule_events_per_sec": report.n_events / warm_s,
        **trace_stats,
    }
    baseline = _baseline_events_per_sec()
    if baseline is not None and baseline > 0:
        out["baseline_events_per_sec"] = baseline
        out["speedup_vs_runtime_trace"] = out["schedule_events_per_sec"] / baseline
    return out


def _grid_candidates(smoke: bool, n_gpus: int) -> List[CapacityCandidate]:
    """Six cluster-shape × policy candidates around the replay cluster."""
    sizes = (
        [max(32, n_gpus // 4), n_gpus // 2, n_gpus]
        if n_gpus >= 64
        else [n_gpus, n_gpus, n_gpus]
    )
    rate = 2.0
    return [
        CapacityCandidate(
            name=f"{sizes[0]}g-ff", n_gpus=sizes[0], policy="first_fit",
            cost_per_gpu_hour=rate,
        ),
        CapacityCandidate(
            name=f"{sizes[1]}g-ff", n_gpus=sizes[1], policy="first_fit",
            cost_per_gpu_hour=rate,
        ),
        CapacityCandidate(
            name=f"{sizes[1]}g-bt", n_gpus=sizes[1], policy="best_throughput",
            cost_per_gpu_hour=rate,
        ),
        CapacityCandidate(
            name=f"{sizes[2]}g-ff", n_gpus=sizes[2], policy="first_fit",
            cost_per_gpu_hour=rate,
        ),
        CapacityCandidate(
            name=f"{sizes[2]}g-bt", n_gpus=sizes[2], policy="best_throughput",
            cost_per_gpu_hour=rate,
        ),
        CapacityCandidate(
            name=f"{sizes[2]}g-spot", n_gpus=sizes[2], policy="first_fit",
            cost_per_gpu_hour=rate * 0.6,
        ),
    ]


def _capacity_grid(
    smoke: bool,
    n_jobs: Optional[int] = None,
    n_gpus: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> Dict[str, float]:
    """Replay one (smaller) trace against the what-if grid; write the report."""
    trace_config, cluster_gpus = fleet_setup(smoke, n_jobs, n_gpus, horizon_s)
    # The grid replays the trace once per candidate; a quarter-sized trace
    # keeps the full grid to tens of seconds while still exercising every
    # candidate with hundreds of jobs.
    grid_trace = FleetTraceConfig(
        n_jobs=max(10, trace_config.n_jobs // 4),
        horizon_s=trace_config.horizon_s,
        seed=trace_config.seed,
    )
    jobs = generate_fleet_trace(grid_trace)
    candidates = _grid_candidates(smoke, cluster_gpus)
    started = time.perf_counter()
    report = capacity_whatif(jobs, candidates, config=fleet_scheduler_config())
    grid_s = time.perf_counter() - started
    out_path = _artifact(SMOKE_FRONTIER_REPORT if smoke else FRONTIER_REPORT)
    report.save(out_path)
    print(f"wrote {out_path}")
    assert len(report.outcomes) >= 6
    assert report.frontier, "capacity grid produced an empty frontier"
    warm = report.outcomes[1:]
    return {
        "capacity_candidates": float(len(report.outcomes)),
        "capacity_frontier_size": float(len(report.frontier)),
        "capacity_grid_wall_s": grid_s,
        "capacity_grid_jobs": float(len(jobs)),
        "capacity_warm_events_per_sec": (
            sum(o.events_per_sec for o in warm) / len(warm) if warm else 0.0
        ),
    }


def _metric(value: float, higher_is_better: bool) -> Dict[str, object]:
    return {"value": value, "higher_is_better": higher_is_better}


def run_benchmark(
    smoke: bool = False,
    n_jobs: Optional[int] = None,
    n_gpus: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> Dict[str, object]:
    replay = _fleet_replay(smoke, n_jobs, n_gpus, horizon_s)
    grid = _capacity_grid(smoke, n_jobs, n_gpus, horizon_s)
    metrics = {
        "schedule_events_per_sec": _metric(replay["schedule_events_per_sec"], True),
        "capacity_warm_events_per_sec": _metric(
            grid["capacity_warm_events_per_sec"], True
        ),
        "warm_wall_s": _metric(replay["warm_wall_s"], False),
    }
    if "speedup_vs_runtime_trace" in replay:
        metrics["speedup_vs_runtime_trace"] = _metric(
            replay["speedup_vs_runtime_trace"], True
        )
    return {
        "benchmark": "fleet_replay",
        "mode": "smoke" if smoke else "full",
        "setup": (
            f"{int(replay['fleet_jobs'])} jobs / "
            f"{int(replay['fleet_cluster_gpus'])} GPUs fleet trace "
            f"(Poisson + diurnal, seed 7) + 6-candidate capacity grid"
        ),
        "machine": machine_fingerprint(),
        "details": {**replay, **grid},
        "metrics": metrics,
    }


def _check(report: Dict[str, object]) -> None:
    details = report["details"]
    metrics = report["metrics"]
    assert metrics["schedule_events_per_sec"]["value"] > 0
    assert details["sampled_trace_events"] > 0
    assert details["capacity_frontier_size"] >= 1
    if report["mode"] == "full":
        # The fleet acceptance bar: >= 10x the committed small-scenario
        # baseline on a >= 1,000-job / >= 2,048-GPU trace.
        assert details["fleet_jobs"] >= 1000 and details["fleet_cluster_gpus"] >= 2048
        speedup = metrics.get("speedup_vs_runtime_trace")
        assert speedup is not None, f"missing {RUNTIME_TRACE_BASELINE} baseline"
        assert speedup["value"] >= 10.0, (
            f"fleet replay speedup {speedup['value']:.1f}x < 10x baseline"
        )


def _print(report: Dict[str, object]) -> None:
    details = report["details"]
    rows = [
        {"metric": "fleet kernel events", "value": round(details["fleet_kernel_events"])},
        {"metric": "warm replay wall (s)", "value": round(details["warm_wall_s"], 2)},
        {"metric": "scheduler events / s (warm)",
         "value": round(details["schedule_events_per_sec"])},
        {"metric": "speedup vs runtime_trace baseline",
         "value": round(details.get("speedup_vs_runtime_trace", 0.0), 1)},
        {"metric": "sampled chrome events", "value": round(details["sampled_trace_events"])},
        {"metric": "capacity grid wall (s)", "value": round(details["capacity_grid_wall_s"], 1)},
        {"metric": "capacity frontier size",
         "value": round(details["capacity_frontier_size"])},
    ]
    print()
    print(format_table(rows, title=f"Fleet replay throughput ({report['mode']})"))
    print(f"fleet trace: {FLEET_TRACE}, frontier: "
          f"{SMOKE_FRONTIER_REPORT if report['mode'] == 'smoke' else FRONTIER_REPORT}")


def write_report(report: Dict[str, object], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def test_fleet_replay(benchmark):
    from conftest import run_once

    report = run_once(benchmark, run_benchmark, smoke=True)
    _check(report)
    _print(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long CI run: tens of jobs on a 128-GPU cluster",
    )
    parser.add_argument("--jobs", type=int, default=None, help="fleet trace job count")
    parser.add_argument("--gpus", type=int, default=None, help="replay cluster GPU count")
    parser.add_argument(
        "--horizon", type=float, default=None, help="arrival window in virtual seconds"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: "
            f"{DEFAULT_OUTPUT} for full runs, {SMOKE_OUTPUT} for --smoke runs)"
        ),
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
    rate = report["metrics"]["schedule_events_per_sec"]["value"]
    print(f"\nOK: {rate:.0f} scheduler events per second on the fleet trace")
    return 0


def _write_metrics_snapshot(bench_output: Path, report: Dict[str, object]) -> None:
    """Dump the live telemetry registry next to the benchmark report."""
    from repro.obs import get_registry, write_metrics_snapshot

    registry = get_registry()
    if not registry.enabled:
        return
    path = bench_output.with_name(bench_output.name.replace("BENCH_", "METRICS_", 1))
    write_metrics_snapshot(
        registry, path, extra={"benchmark": report["benchmark"], "mode": report["mode"]}
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    raise SystemExit(main())
