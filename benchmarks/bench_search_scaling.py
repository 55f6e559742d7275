"""Search throughput and scheduler decision latency.

The paper's headline claim is that execution-plan search is cheap enough to
run *online*; this benchmark tracks how fast our search actually is.  On the
Figure-13 base point (PPO, 7B actor + 7B critic, 16 GPUs, batch 512,
context 2048) it measures:

* **plans/sec** — proposal plans scored per second through the estimator's
  incremental ``cost_delta`` path (a raw random walk, no MCMC bookkeeping);
* **MCMC iters/sec** — full search-loop iterations per second (proposal +
  scoring + acceptance + bookkeeping) for a single time-budgeted chain;
* **best cost** — the best cost of an iteration-bounded ``n_chains=4``
  search, a pure function of the seed;
* **scheduler decision latency** — wall-clock seconds one scheduling
  decision spends costing its candidate wave through the plan service
  (cold, then fully cached).

Results are written to ``BENCH_search_scaling.json`` at the repo root; the
committed copy is the perf baseline every future PR is compared against
(see ``benchmarks/check_bench_regression.py`` and the CI workflow).

Run standalone (``python benchmarks/bench_search_scaling.py``; add
``--smoke`` for a seconds-long CI-friendly run) or via pytest
(``pytest benchmarks/bench_search_scaling.py``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, Optional

from bench_estimator_throughput import _eval_rate_delta, _random_moves, figure13_setup

from repro.core import MCMCSearcher, RuntimeEstimator, SearchConfig, allocation_options
from repro.experiments import format_table
from repro.obs import artifact_path, machine_fingerprint

_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = "BENCH_search_scaling.json"
SMOKE_OUTPUT = "BENCH_search_scaling.smoke.json"


def _artifact(name: str) -> Path:
    """Artifact location: ``REPRO_ARTIFACT_DIR`` wins, else the repo root
    (the historical destination the committed baselines live at)."""
    return artifact_path(name, default_dir=_REPO_ROOT)

N_CHAINS = 4


def _metric(value: float, higher_is_better: bool) -> Dict[str, object]:
    return {"value": value, "higher_is_better": higher_is_better}


def _throughput(graph, workload, cluster, options, smoke: bool) -> Dict[str, float]:
    """plans/sec through cost_delta and iters/sec through the search loop."""
    estimator = RuntimeEstimator(graph, workload, cluster)
    searcher = MCMCSearcher(graph, workload, cluster, estimator=estimator, options=options)
    plan = searcher.greedy_initial_plan()
    n_moves = 1000 if smoke else 5000
    _eval_rate_delta(estimator, plan, _random_moves(graph, options, n_moves, seed=2))
    plans_per_sec = sorted(
        _eval_rate_delta(
            estimator, plan, _random_moves(graph, options, n_moves, seed=20 + rep)
        )
        for rep in range(3)
    )[1]

    budget_s = 0.5 if smoke else 2.0
    config = SearchConfig(
        max_iterations=10**9, time_budget_s=budget_s, seed=0, record_history=False
    )
    result = MCMCSearcher(
        graph, workload, cluster, estimator=estimator, options=options, config=config
    ).search()
    iters_per_sec = result.n_iterations / max(result.elapsed_seconds, 1e-9)
    return {"plans_per_sec": plans_per_sec, "mcmc_iters_per_sec": iters_per_sec}


def _bounded_search(graph, workload, cluster, options, smoke: bool) -> Dict[str, object]:
    """Iteration-bounded n_chains=4 search: its best cost depends only on the seed."""
    config = SearchConfig(
        max_iterations=400 if smoke else 1600,
        time_budget_s=120.0,
        seed=0,
        n_chains=N_CHAINS,
        record_history=False,
    )
    result = MCMCSearcher(
        graph, workload, cluster, estimator=RuntimeEstimator(graph, workload, cluster),
        options=options, config=config,
    ).search()
    return {"best_cost": result.best_cost, "bounded_iterations": config.max_iterations}


def _scheduler_latency(smoke: bool) -> Dict[str, float]:
    """Decision latency: one candidate wave, cold then fully cached."""
    from repro.cluster import make_cluster
    from repro.sched import Job, JobSpec, PartitionManager, PlanCosting
    from repro.service import PlanService

    cluster = make_cluster(32 if smoke else 64)
    manager = PartitionManager(cluster)
    search = SearchConfig(
        max_iterations=60 if smoke else 250,
        time_budget_s=1.0 if smoke else 4.0,
        record_history=False,
    )
    jobs = [
        Job.from_spec(
            JobSpec(
                name=f"job-{i}",
                algorithm="grpo" if i % 2 else "ppo",
                batch_size=128 if i % 2 else 256,
                target_iterations=10,
                min_gpus=8,
                max_gpus=32,
            )
        )
        for i in range(4)
    ]
    with PlanService(estimator_cache_size=32) as service:
        costing = PlanCosting(service, search=search, replan_search=search)
        pairs = []
        for job in jobs:
            shapes = manager.distinct_shapes(job.spec.min_gpus, job.spec.gpu_ceiling)
            pairs.extend((job, shape) for shape in shapes)
        started = time.perf_counter()
        costing.score(pairs)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        costing.score(pairs)
        cached_s = time.perf_counter() - started
        waves = costing.wave_stats
    return {
        "decision_candidates": float(len(pairs)),
        "decision_latency_cold_s": cold_s,
        "decision_latency_cached_s": cached_s,
        "decision_waves": float(waves["waves"]),
    }


def run_benchmark(smoke: bool = False) -> Dict[str, object]:
    graph, workload, cluster = figure13_setup()
    options = allocation_options(graph, workload, cluster)

    throughput = _throughput(graph, workload, cluster, options, smoke)
    bounded = _bounded_search(graph, workload, cluster, options, smoke)
    latency = _scheduler_latency(smoke)

    report = {
        "benchmark": "search_scaling",
        "mode": "smoke" if smoke else "full",
        "setup": "Figure-13 base point: PPO 7B+7B, 16 GPUs, batch 512, ctx 2048",
        "machine": machine_fingerprint(),
        "config": {
            "n_chains": N_CHAINS,
            "bounded_iterations": bounded["bounded_iterations"],
        },
        "metrics": {
            "plans_per_sec": _metric(throughput["plans_per_sec"], True),
            "mcmc_iters_per_sec": _metric(throughput["mcmc_iters_per_sec"], True),
            "scheduler_decision_latency_s": _metric(
                latency["decision_latency_cold_s"], False
            ),
            "scheduler_cached_decision_latency_s": _metric(
                latency["decision_latency_cached_s"], False
            ),
        },
        "details": {**bounded, **latency},
    }
    return report


def _print(report: Dict[str, object]) -> None:
    metrics = report["metrics"]
    details = report["details"]
    rows = [
        {"metric": "plans/sec (cost_delta walk)",
         "value": round(metrics["plans_per_sec"]["value"])},
        {"metric": "MCMC iters/sec (1 chain)",
         "value": round(metrics["mcmc_iters_per_sec"]["value"])},
        {"metric": f"best cost, {N_CHAINS} chains, iteration-bounded",
         "value": round(details["best_cost"], 4)},
        {"metric": "scheduler decision latency, cold (s)",
         "value": round(details["decision_latency_cold_s"], 3)},
        {"metric": "scheduler decision latency, cached (s)",
         "value": round(details["decision_latency_cached_s"], 4)},
    ]
    print()
    print(format_table(rows, title=f"Search throughput ({report['setup']})"))


def write_report(report: Dict[str, object], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def test_search_scaling(benchmark):
    from conftest import run_once

    report = run_once(benchmark, run_benchmark, smoke=True)
    _print(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long CI run: shorter budgets",
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
    args = parser.parse_args(argv)
    output = args.output
    if output is None:
        output = _artifact(SMOKE_OUTPUT if args.smoke else DEFAULT_OUTPUT)
    report = run_benchmark(smoke=args.smoke)
    _print(report)
    write_report(report, output)
    _write_metrics_snapshot(output, report)
    return 0


def _write_metrics_snapshot(bench_output: Path, report: Dict[str, object]) -> None:
    """Dump the live telemetry registry next to the benchmark report.

    The run's instrumented subsystems (search, service, costing, kernel)
    have been reporting into the global registry; the snapshot lands in
    ``METRICS_search_scaling[.smoke].json`` and is uploaded as a CI artifact.
    """
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
