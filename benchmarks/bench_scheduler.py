"""Multi-job scheduler: policy comparison and failure-recovery on one cluster.

Unlike the figure benchmarks, this one measures the cluster-level scheduling
layer built on top of the paper's planner: a trace of concurrent RLHF jobs
(mixed algorithms, batch sizes and durations) flows through the
:class:`~repro.sched.scheduler.ClusterScheduler` under several policies, all
sharing one :class:`~repro.service.server.PlanService`.  Reported per policy:
makespan, aggregate iterations/sec, GPU utilization and queue waits.  Checked:

* the best packing policy beats naive static equal partitioning on aggregate
  iterations/sec (the static baseline strands GPUs whenever a slot's job
  finishes early);
* a failure-injection scenario completes every job, and the warm-started
  replans of displaced jobs spend less search time than cold placements.

Run standalone (``python benchmarks/bench_scheduler.py``; add ``--smoke``
for a seconds-long CI-friendly run) or via pytest
(``pytest benchmarks/bench_scheduler.py``).
"""

from __future__ import annotations

import argparse
import random
from typing import Dict, List, Optional

from repro.cluster import make_cluster
from repro.core import SearchConfig
from repro.experiments import format_table, run_scheduler_comparison
from repro.sched import (
    JobSpec,
    NodeFailure,
    SchedulerConfig,
    StaticEqualPolicy,
    schedule_trace,
)
from repro.service import PlanService


def _trace(n_jobs: int, seed: int = 0) -> List[JobSpec]:
    """A heterogeneous trace: short and long jobs, mixed algorithms/batches.

    Half the jobs are short (they free capacity early, which only elastic
    policies can exploit), half are long; arrivals are staggered with
    seed-deterministic jitter so queue waits differ across policies while
    any two runs with the same ``--seed`` see the *same* trace.
    """
    rng = random.Random(seed)
    jobs: List[JobSpec] = []
    for i in range(n_jobs // 2):
        jitter = round(rng.uniform(0.0, 1.5), 3)
        jobs.append(
            JobSpec(
                name=f"short-{i}",
                algorithm="grpo" if i % 2 else "ppo",
                batch_size=128,
                target_iterations=rng.choice((5, 6, 7)),
                min_gpus=8,
                max_gpus=32,
                arrival_time=2.0 * i + jitter,
            )
        )
        jobs.append(
            JobSpec(
                name=f"long-{i}",
                algorithm="ppo",
                batch_size=256,
                target_iterations=rng.choice((28, 30, 32)),
                min_gpus=8,
                max_gpus=32,
                priority=1,
                arrival_time=2.0 * i + jitter,
            )
        )
    return jobs


def _config(smoke: bool, seed: int = 0) -> SchedulerConfig:
    budget = SearchConfig(
        max_iterations=80 if smoke else 400,
        time_budget_s=1.0 if smoke else 5.0,
        record_history=False,
        seed=seed,
    )
    return SchedulerConfig(search=budget)


def run_benchmark(
    smoke: bool = True,
    seed: int = 0,
    n_jobs: Optional[int] = None,
    n_gpus: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> Dict[str, object]:
    """Policy comparison (+ failure injection on the hand-rolled trace).

    Passing any of ``n_jobs``/``n_gpus``/``horizon_s`` switches to *scale
    mode*: a synthetic fleet trace (:mod:`repro.capacity.fleet`) under the
    fleet scheduler preset, comparing only the elastic packing policies
    (static equal partitioning cannot host a fleet-sized job mix, and the
    failure-injection scenario stays on the small golden trace).
    """
    scaled = n_jobs is not None or n_gpus is not None or horizon_s is not None
    if scaled:
        from repro.capacity import FleetTraceConfig, fleet_scheduler_config, generate_fleet_trace

        n_gpus = n_gpus if n_gpus is not None else 256
        n_jobs = n_jobs if n_jobs is not None else 100
        cluster = make_cluster(n_gpus)
        jobs = generate_fleet_trace(
            FleetTraceConfig(
                n_jobs=n_jobs,
                horizon_s=horizon_s if horizon_s is not None else 7200.0,
                seed=seed,
            )
        )
        config = fleet_scheduler_config()
        policies: List[object] = ["first_fit", "best_throughput"]
    else:
        n_gpus = 64 if smoke else 128
        n_jobs = 8 if smoke else 12
        cluster = make_cluster(n_gpus)
        jobs = _trace(n_jobs, seed=seed)
        config = _config(smoke, seed=seed)
        policies = [
            StaticEqualPolicy(n_slots=cluster.n_nodes),
            "first_fit",
            "priority",
            "best_throughput",
        ]

    # --- Policy comparison, sharing one plan service (and thus one cache:
    # --- same-shaped partitions are exact hits across policies).
    with PlanService(max_workers=4, estimator_cache_size=32) as service:
        baseline = service.stats.snapshot()
        reports = run_scheduler_comparison(
            cluster,
            jobs,
            policies=policies,
            config=config,
            plan_service=service,
        )
        # Delta arithmetic, not a raw snapshot: attribute only this
        # comparison's traffic even if the service is later reused/pre-warmed.
        service_stats = service.stats.snapshot().delta(baseline).to_dict()
    by_policy = {report.policy: report for report in reports}

    # --- Failure injection on a fresh service, so cold vs. warm-started
    # --- replan search times are measured from scratch.  Skipped in scale
    # --- mode: the failure scenario is part of the small golden comparison.
    failure_report = None
    if not scaled:
        failure = NodeFailure(time=60.0, node=1, recovery_time=200.0)
        with PlanService(max_workers=4, estimator_cache_size=32) as fail_service:
            failure_report = schedule_trace(
                cluster=cluster,
                jobs=jobs,
                policy="best_throughput",
                config=config,
                service=fail_service,
                failures=[failure],
            )

    return {
        "reports": reports,
        "by_policy": by_policy,
        "service_stats": service_stats,
        "failure_report": failure_report,
        "n_gpus": n_gpus,
        "n_jobs": n_jobs,
        "scaled": scaled,
    }


def _check(results: Dict[str, object]) -> None:
    by_policy = results["by_policy"]
    for report in results["reports"]:
        assert report.all_completed, f"{report.policy} left jobs incomplete"
    if results["scaled"]:
        # Scale mode: both elastic policies must finish the fleet trace and
        # deliver work; there is no static baseline or failure scenario.
        for policy in ("first_fit", "best_throughput"):
            assert by_policy[policy].total_iterations > 0
        return
    static = by_policy["static_equal"]
    packing = by_policy["best_throughput"]
    # The packing policy must beat naive static equal partitioning on
    # aggregate iterations/sec.
    assert (
        packing.aggregate_iterations_per_second
        > static.aggregate_iterations_per_second
    ), (
        f"best_throughput ({packing.aggregate_iterations_per_second:.3f} iters/s) "
        f"does not beat static equal "
        f"({static.aggregate_iterations_per_second:.3f} iters/s)"
    )
    # The failure scenario completes everything via warm-started replans that
    # are cheaper than cold placements.
    failure_report = results["failure_report"]
    assert failure_report.all_completed, "failure scenario left jobs incomplete"
    assert failure_report.n_failures == 1
    assert failure_report.n_replans >= 1, "no displaced job was replanned"
    cold = failure_report.cold_searches
    replan = failure_report.replan_searches
    assert cold.count > 0 and replan.count > 0
    assert replan.mean_seconds < cold.mean_seconds, (
        f"replans averaged {replan.mean_seconds * 1e3:.1f} ms of search vs "
        f"{cold.mean_seconds * 1e3:.1f} ms cold — warm starts should be cheaper"
    )


def _print(results: Dict[str, object]) -> None:
    rows = [report.summary_row() for report in results["reports"]]
    print()
    print(
        format_table(
            rows,
            title=(
                f"Scheduling policies: {results['n_jobs']} jobs on "
                f"{results['n_gpus']} GPUs"
            ),
        )
    )
    failure_report = results["failure_report"]
    if failure_report is not None:
        cold = failure_report.cold_searches
        replan = failure_report.replan_searches
        print(
            format_table(
                [
                    {
                        **failure_report.summary_row(),
                        "cold search (ms)": round(cold.mean_seconds * 1e3, 1),
                        "replan search (ms)": round(replan.mean_seconds * 1e3, 1),
                    }
                ],
                title="Failure injection (node down + recovery), best_throughput",
            )
        )
    print(f"shared service stats: {results['service_stats']}")


def test_scheduler_policies(benchmark):
    from conftest import run_once

    results = run_once(benchmark, run_benchmark, smoke=True)
    _check(results)
    _print(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long CI run: 64 GPUs, 8 jobs, reduced search budgets",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for trace generation and plan search: same seed, same run",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="scale mode: compare policies on a synthetic fleet trace with this many jobs",
    )
    parser.add_argument(
        "--gpus",
        type=int,
        default=None,
        help="scale mode: cluster size in GPUs",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="scale mode: fleet trace arrival horizon in seconds",
    )
    args = parser.parse_args(argv)
    results = run_benchmark(
        smoke=args.smoke,
        seed=args.seed,
        n_jobs=args.jobs,
        n_gpus=args.gpus,
        horizon_s=args.horizon,
    )
    _check(results)
    _print(results)
    if results["scaled"]:
        packing = results["by_policy"]["best_throughput"]
        print(
            f"\nOK: fleet trace of {results['n_jobs']} jobs completed on "
            f"{results['n_gpus']} GPUs ({packing.total_iterations:.0f} iterations)"
        )
        return 0
    packing = results["by_policy"]["best_throughput"]
    static = results["by_policy"]["static_equal"]
    speedup = (
        packing.aggregate_iterations_per_second
        / static.aggregate_iterations_per_second
    )
    print(f"\nOK: best_throughput packs {speedup:.2f}x the aggregate iters/s of static equal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
