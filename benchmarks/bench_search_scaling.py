"""Search scaling: parallel-chain wall-clock speedup, throughput, latency.

The paper's headline claim is that execution-plan search is cheap enough to
run *online*; this benchmark tracks how fast our search actually is and how
well it scales when the wall-clock budget is spent by several concurrent
chains instead of one.  On the Figure-13 base point (PPO, 7B actor + 7B
critic, 16 GPUs, batch 512, context 2048) it measures:

* **plans/sec** — proposal plans scored per second through the estimator's
  incremental ``cost_delta`` path (a raw random walk, no MCMC bookkeeping);
* **MCMC iters/sec** — full search-loop iterations per second (proposal +
  scoring + acceptance + bookkeeping) for a single time-budgeted chain;
* **parallel speedup** — wall-clock time of an ``n_chains=4`` search with
  chains run sequentially in-process vs. on worker processes
  (``SearchConfig.parallel``).  Every chain receives the full per-chain
  ``time_budget_s``, so the sequential baseline pays ``4x`` the budget while
  the process pool overlaps the chains; the speedup is the scheduling win,
  independent of result quality;
* **determinism** — an iteration-bounded ``n_chains=4`` search must produce
  *bit-identical* best plans/costs in both execution modes (same seeds);
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
import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Dict, Optional

from bench_estimator_throughput import _eval_rate_delta, _random_moves, figure13_setup

from repro.core import (
    CoreBudget,
    MCMCSearcher,
    RuntimeEstimator,
    SearchConfig,
    allocation_options,
)
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
FULL_SPEEDUP_TARGET = 3.0
SMOKE_SPEEDUP_TARGET = 1.8


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


def _parallel_speedup(graph, workload, cluster, options, smoke: bool) -> Dict[str, float]:
    """Wall-clock of n_chains=4, sequential vs process-parallel execution.

    Time-budget-bound on purpose: each chain owns the full ``time_budget_s``,
    so the sequential baseline's wall time is the per-chain budget summed
    while worker processes overlap it.  ``parallel="process"`` forces the
    pool even on a busy/small machine — the point is to measure the scaling
    machinery itself (CI runners and laptops differ; that is what the
    fail-soft regression check is for).
    """
    budget_s = 0.75 if smoke else 2.5
    base = SearchConfig(
        max_iterations=10**9,
        time_budget_s=budget_s,
        seed=0,
        n_chains=N_CHAINS,
        record_history=False,
        parallel="off",
    )
    estimator = RuntimeEstimator(graph, workload, cluster)
    sequential = MCMCSearcher(
        graph, workload, cluster, estimator=estimator, options=options, config=base
    ).search()
    forced = dataclasses.replace(base, parallel="process")
    parallel = MCMCSearcher(
        graph, workload, cluster, estimator=estimator, options=options,
        config=forced, core_budget=CoreBudget(total=max(N_CHAINS, os.cpu_count() or 1)),
    ).search()
    available = parallel.execution_mode == "process"
    return {
        "parallel_available": available,
        "sequential_wall_s": sequential.elapsed_seconds,
        "parallel_wall_s": parallel.elapsed_seconds,
        "parallel_speedup": (
            sequential.elapsed_seconds / parallel.elapsed_seconds if available else 0.0
        ),
        "sequential_cpu_s": sequential.cpu_seconds,
        "parallel_cpu_s": parallel.cpu_seconds,
        "parallel_workers": parallel.n_workers,
        "chain_budget_s": budget_s,
        # Worker-side throughput: time-budget-bound chains make the wall
        # speedup insensitive to per-iteration regressions (chains stop at
        # the deadline no matter how much they got done), so the iteration
        # rates of both modes are tracked as their own metrics.
        "sequential_iters_per_sec": (
            sequential.n_iterations / max(sequential.elapsed_seconds, 1e-9)
        ),
        "parallel_iters_per_sec": (
            parallel.n_iterations / max(parallel.elapsed_seconds, 1e-9)
            if available
            else 0.0
        ),
    }


def _determinism(graph, workload, cluster, options, smoke: bool) -> Dict[str, object]:
    """Iteration-bounded n_chains=4: both modes must agree bit-for-bit."""
    config = SearchConfig(
        max_iterations=400 if smoke else 1600,
        time_budget_s=120.0,
        seed=0,
        n_chains=N_CHAINS,
        record_history=False,
        parallel="off",
    )
    estimator = RuntimeEstimator(graph, workload, cluster)
    sequential = MCMCSearcher(
        graph, workload, cluster, estimator=estimator, options=options, config=config
    ).search()
    parallel = MCMCSearcher(
        graph, workload, cluster, estimator=estimator, options=options,
        config=dataclasses.replace(config, parallel="process"),
    ).search()
    pool_ran = parallel.execution_mode == "process"
    identical = pool_ran and (
        parallel.best_cost == sequential.best_cost
        and parallel.best_plan.to_dict() == sequential.best_plan.to_dict()
        and parallel.n_iterations == sequential.n_iterations
    )
    return {
        # Kept separate so _check can tell "the pool never ran" (an
        # environment problem, fail-soft in smoke mode) apart from "the
        # costs actually diverged" (a correctness bug, always fatal).
        "determinism_pool_ran": pool_ran,
        "deterministic": identical,
        "best_cost": sequential.best_cost,
        "parallel_mode": parallel.execution_mode,
    }


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
    with PlanService(max_workers=4, estimator_cache_size=32) as service:
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
    scaling = _parallel_speedup(graph, workload, cluster, options, smoke)
    determinism = _determinism(graph, workload, cluster, options, smoke)
    latency = _scheduler_latency(smoke)

    report = {
        "benchmark": "search_scaling",
        "mode": "smoke" if smoke else "full",
        "setup": "Figure-13 base point: PPO 7B+7B, 16 GPUs, batch 512, ctx 2048",
        "machine": machine_fingerprint(),
        "config": {
            "n_chains": N_CHAINS,
            "chain_budget_s": scaling["chain_budget_s"],
        },
        "metrics": {
            "plans_per_sec": _metric(throughput["plans_per_sec"], True),
            "mcmc_iters_per_sec": _metric(throughput["mcmc_iters_per_sec"], True),
            "parallel_speedup_n4": _metric(scaling["parallel_speedup"], True),
            "sequential_iters_per_sec": _metric(
                scaling["sequential_iters_per_sec"], True
            ),
            "parallel_iters_per_sec": _metric(scaling["parallel_iters_per_sec"], True),
            "scheduler_decision_latency_s": _metric(
                latency["decision_latency_cold_s"], False
            ),
            "scheduler_cached_decision_latency_s": _metric(
                latency["decision_latency_cached_s"], False
            ),
        },
        "details": {**scaling, **determinism, **latency},
    }
    return report


def _check(report: Dict[str, object], smoke: bool) -> None:
    """Validate the run.  Smoke runs are fail-soft on machine-dependent
    numbers (CI runners vary); the determinism invariant is machine-
    independent and always enforced when a pool actually ran."""
    details = report["details"]
    if not details["parallel_available"]:
        message = (
            "process pool unavailable in this environment: parallel scaling "
            "not measured"
        )
        if smoke:
            print(f"WARNING: {message}")
            return
        raise RuntimeError(message)
    if not details["determinism_pool_ran"]:
        # The pool worked for the speedup run but failed transiently here:
        # an environment problem, not a correctness verdict.
        message = "process pool failed during the determinism experiment"
        if smoke:
            print(f"WARNING: {message}")
            return
        raise RuntimeError(message)
    assert details["deterministic"] is True, (
        "parallel and sequential chains diverged for the same seeds — "
        "the bit-identical invariant is broken"
    )
    speedup = report["metrics"]["parallel_speedup_n4"]["value"]
    target = SMOKE_SPEEDUP_TARGET if smoke else FULL_SPEEDUP_TARGET
    if speedup < target:
        message = (
            f"n_chains={N_CHAINS} parallel search is only {speedup:.2f}x the "
            f"sequential wall clock, expected >= {target}x"
        )
        if smoke:
            # Fail-soft on shared/loaded CI machines; the committed full-run
            # baseline plus check_bench_regression.py track the trajectory.
            print(f"WARNING: {message}")
        else:
            raise AssertionError(message)


def _print(report: Dict[str, object]) -> None:
    metrics = report["metrics"]
    details = report["details"]
    rows = [
        {"metric": "plans/sec (cost_delta walk)",
         "value": round(metrics["plans_per_sec"]["value"])},
        {"metric": "MCMC iters/sec (1 chain)",
         "value": round(metrics["mcmc_iters_per_sec"]["value"])},
        {"metric": f"sequential wall, {N_CHAINS} chains (s)",
         "value": round(details["sequential_wall_s"], 2)},
        {"metric": f"parallel wall, {N_CHAINS} chains (s)",
         "value": round(details["parallel_wall_s"], 2)},
        {"metric": f"parallel speedup @ n_chains={N_CHAINS}",
         "value": f"{metrics['parallel_speedup_n4']['value']:.2f}x"},
        {"metric": "parallel == sequential plans",
         "value": str(details["deterministic"])},
        {"metric": "scheduler decision latency, cold (s)",
         "value": round(details["decision_latency_cold_s"], 3)},
        {"metric": "scheduler decision latency, cached (s)",
         "value": round(details["decision_latency_cached_s"], 4)},
    ]
    print()
    print(format_table(rows, title=f"Search scaling ({report['setup']})"))


def write_report(report: Dict[str, object], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def test_search_scaling(benchmark):
    from conftest import run_once

    report = run_once(benchmark, run_benchmark, smoke=True)
    _check(report, smoke=True)
    _print(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long CI run: shorter budgets, relaxed speedup threshold",
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
    # Check before writing: a failed full run must not overwrite the
    # committed baseline with regressed numbers.
    _check(report, smoke=args.smoke)
    write_report(report, output)
    _write_metrics_snapshot(output, report)
    speedup = report["metrics"]["parallel_speedup_n4"]["value"]
    print(f"\nOK: {speedup:.2f}x wall-clock speedup at n_chains={N_CHAINS}, bit-identical plans")
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
