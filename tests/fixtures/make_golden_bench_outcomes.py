"""Regenerate the simulated-outcome pins used by ``tests/test_golden_bench_outcomes.py``.

``golden_bench_outcomes.json`` pins, exactly, what the small scenarios of
the former wall-rate benchmarks simulate.  None of these values depends on
how fast the machine is:

* ``scheduler`` — an 8-job trace on 64 GPUs under static equal
  partitioning, ``first_fit``, ``priority`` and ``best_throughput`` sharing
  one plan service, then ``best_throughput`` with one node failure and
  recovery;
* ``online_replanning`` — plan-once against online re-planning with hot
  swaps on a staggered 2-job trace on 16 GPUs;
* ``fleet_replay`` — the cache-warm replay of a 40-job fleet trace on 128
  GPUs with its Chrome export, and the 6-candidate capacity grid on the
  10-job trace (every field of the frontier report except wall times);
* ``engine_iteration`` — one runtime-engine iteration of the Figure 11/12
  setup (PPO 7B+7B on 16 GPUs) and its Chrome export;
* ``small_schedule`` — the cache-warm 4-job schedule on 32 GPUs and its
  Chrome export;
* ``search`` — the best cost of an iteration-bound 4-chain search on the
  Figure-13 base point, and one 16-candidate scheduling decision scored
  cold and then from the cache;
* ``service_stream`` — a mixed stream of 12 plan requests (3 distinct) on
  one plan service.

Every search runs with a time budget far above what its iteration bound
needs, so each pin is a pure function of the seeds.

Run from the repository root (only needed when intentionally re-baselining)::

    PYTHONPATH=src python tests/fixtures/make_golden_bench_outcomes.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.algorithms import build_ppo_graph
from repro.capacity import (
    CapacityCandidate,
    FleetTraceConfig,
    capacity_whatif,
    fleet_scheduler_config,
    generate_fleet_trace,
)
from repro.cluster import make_cluster
from repro.core import (
    Allocation,
    MCMCSearcher,
    ParallelStrategy,
    RuntimeEstimator,
    SearchConfig,
    allocation_options,
    instructgpt_workload,
    symmetric_plan,
)
from repro.experiments import gpus_for_actor, run_scheduler_comparison
from repro.runtime import RuntimeEngine
from repro.sched import (
    ClusterScheduler,
    Job,
    JobSpec,
    NodeFailure,
    PartitionManager,
    PlanCosting,
    SchedulerConfig,
    StaticEqualPolicy,
    schedule_trace,
)
from repro.service import PlanRequest, PlanService
from repro.sim import load_chrome_trace

FIXTURES = Path(__file__).resolve().parent
GOLDEN_PATH = FIXTURES / "golden_bench_outcomes.json"

BUDGET_S = 600.0
"""Wall-clock budget of every search: far above what any iteration bound
below needs, so only iterations bind."""


def _search(max_iterations: int, **overrides: Any) -> SearchConfig:
    return SearchConfig(
        max_iterations=max_iterations,
        time_budget_s=BUDGET_S,
        record_history=False,
        **overrides,
    )


def _schedule_outcome(report) -> Dict[str, Any]:
    return {
        "all_completed": report.all_completed,
        "makespan": report.makespan,
        "total_iterations": report.total_iterations,
        "n_events": report.n_events,
        "n_replans": report.n_replans,
        "n_preemptions": report.n_preemptions,
        "n_resizes": report.n_resizes,
    }


# ---------------------------------------------------------------------- #
# scheduler
# ---------------------------------------------------------------------- #
def scheduler_trace(n_jobs: int = 8, seed: int = 0) -> List[JobSpec]:
    """Short and long jobs in pairs, arrivals staggered with seeded jitter."""
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


def scheduler() -> Dict[str, Any]:
    cluster = make_cluster(64)
    jobs = scheduler_trace()
    config = SchedulerConfig(search=_search(80, seed=0))
    policies = [
        StaticEqualPolicy(),
        "first_fit",
        "priority",
        "best_throughput",
    ]
    with PlanService(estimator_cache_size=32) as service:
        reports = run_scheduler_comparison(
            cluster, jobs, policies=policies, config=config, plan_service=service
        )
        stats = service.stats.snapshot()
    with PlanService(estimator_cache_size=32) as service:
        failure = schedule_trace(
            cluster=cluster,
            jobs=jobs,
            policy="best_throughput",
            config=config,
            service=service,
            failures=[NodeFailure(time=60.0, node=1, recovery_time=200.0)],
        )
    return {
        "policies": {report.policy: _schedule_outcome(report) for report in reports},
        "service": {
            "requests": stats.requests,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "warm_starts": stats.warm_starts,
        },
        "failure": {
            **_schedule_outcome(failure),
            "n_failures": failure.n_failures,
            "n_recoveries": failure.n_recoveries,
            "cold_searches": failure.cold_searches.count,
            "replan_searches": failure.replan_searches.count,
        },
    }


# ---------------------------------------------------------------------- #
# online_replanning
# ---------------------------------------------------------------------- #
def online_config(online: bool) -> SchedulerConfig:
    """A rushed admission search for both arms; a generous background one."""
    return SchedulerConfig(
        search=_search(20, seed=0),
        elastic=False,
        online_replanning=online,
        online_search=_search(400, seed=0),
        poll_interval_s=15.0,
        poll_iterations=100,
        swap_margin=1.01,
    )


def online_replanning() -> Dict[str, Any]:
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
    arms = {}
    for arm, online in (("plan_once", False), ("online", True)):
        report = ClusterScheduler(
            cluster=make_cluster(16),
            jobs=jobs,
            policy="best_throughput",
            config=online_config(online),
        ).run()
        arms[arm] = {
            **_schedule_outcome(report),
            "n_swaps": report.n_swaps,
            "n_swaps_rejected": report.n_swaps_rejected,
            "n_search_polls": report.n_search_polls,
            "online_sessions": report.online_sessions,
            "swap_seconds_saved": report.swap_seconds_saved,
            "total_switch_seconds": report.total_switch_seconds,
        }
    return arms


# ---------------------------------------------------------------------- #
# fleet_replay
# ---------------------------------------------------------------------- #
def fleet_config() -> SchedulerConfig:
    """The fleet preset with its search budget bound by iterations only."""
    preset = fleet_scheduler_config()
    return dataclasses.replace(
        preset, search=_search(preset.search.max_iterations)
    )


def grid_candidates() -> List[CapacityCandidate]:
    """Six cluster-shape x policy candidates around a 128-GPU cluster."""
    return [
        CapacityCandidate(name=name, n_gpus=n_gpus, policy=policy, cost_per_gpu_hour=rate)
        for name, n_gpus, policy, rate in (
            ("32g-ff", 32, "first_fit", 2.0),
            ("64g-ff", 64, "first_fit", 2.0),
            ("64g-bt", 64, "best_throughput", 2.0),
            ("128g-ff", 128, "first_fit", 2.0),
            ("128g-bt", 128, "best_throughput", 2.0),
            ("128g-spot", 128, "first_fit", 2.0 * 0.6),
        )
    ]


def fleet_replay() -> Dict[str, Any]:
    jobs = generate_fleet_trace(FleetTraceConfig(n_jobs=40, horizon_s=3600.0, seed=7))
    cluster = make_cluster(128)
    config = fleet_config()
    with PlanService(estimator_cache_size=64) as service, tempfile.TemporaryDirectory() as tmp:
        ClusterScheduler(cluster, jobs, policy="first_fit", config=config, service=service).run()
        warm = ClusterScheduler(cluster, jobs, policy="first_fit", config=config, service=service)
        report = warm.run()
        trace_events = len(load_chrome_trace(warm.export_chrome_trace(f"{tmp}/TRACE_fleet.json")))
    grid_jobs = generate_fleet_trace(FleetTraceConfig(n_jobs=10, horizon_s=3600.0, seed=7))
    frontier = capacity_whatif(grid_jobs, grid_candidates(), config=fleet_config()).to_dict()
    for candidate in frontier["candidates"]:
        del candidate["wall_seconds"], candidate["events_per_sec"]
    return {
        "warm_replay": {**_schedule_outcome(report), "trace_events": trace_events},
        "capacity": frontier,
    }


# ---------------------------------------------------------------------- #
# engine_iteration and small_schedule
# ---------------------------------------------------------------------- #
def engine_iteration() -> Dict[str, Any]:
    graph = build_ppo_graph()
    cluster = make_cluster(16)
    plan = symmetric_plan(graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
    engine = RuntimeEngine(cluster, instructgpt_workload("7b", "7b", batch_size=128))
    trace = engine.run_iteration(graph, plan)
    repeat = engine.run_iteration(graph, plan)
    with tempfile.TemporaryDirectory() as tmp:
        export_events = len(load_chrome_trace(trace.export_chrome_trace(f"{tmp}/TRACE.json")))
    return {
        "total_seconds": trace.total_seconds,
        "gpu_spans": sum(len(spans) for spans in trace.gpu_spans.values()),
        "export_events": export_events,
        "repeat_identical": (
            repeat.total_seconds == trace.total_seconds
            and repeat.call_spans == trace.call_spans
            and repeat.gpu_spans == trace.gpu_spans
        ),
    }


def small_schedule() -> Dict[str, Any]:
    jobs = [
        JobSpec(
            name=f"job-{i}",
            algorithm="grpo" if i % 2 else "ppo",
            batch_size=64,
            target_iterations=4,
            min_gpus=8,
            max_gpus=16,
        )
        for i in range(4)
    ]
    cluster = make_cluster(32)
    config = SchedulerConfig(search=_search(60))
    with PlanService(estimator_cache_size=32) as service, tempfile.TemporaryDirectory() as tmp:
        schedule_trace(cluster, jobs, policy="first_fit", config=config, service=service)
        report = schedule_trace(
            cluster, jobs, policy="first_fit", config=config, service=service,
            trace_path=f"{tmp}/TRACE_schedule.json",
        )
        chrome_events = len(load_chrome_trace(report.trace_path))
    return {
        **_schedule_outcome(report),
        "engine_profile_runs": report.engine_profile_runs,
        "chrome_events": chrome_events,
    }


# ---------------------------------------------------------------------- #
# search
# ---------------------------------------------------------------------- #
def figure13_setup():
    """The Figure-13 base point: PPO with a 7B actor on its weak-scaling cluster."""
    graph = build_ppo_graph()
    n_gpus = gpus_for_actor("7b")
    workload = instructgpt_workload(
        "7b", "7b", batch_size=n_gpus * 32, prompt_len=1024, gen_len=1024
    )
    return graph, workload, make_cluster(n_gpus)


def random_moves(graph, options, n_moves: int, seed: int) -> List[Tuple[str, Allocation]]:
    """Seeded single-call moves: a call and one of its allocation options."""
    rng = np.random.default_rng(seed)
    names = graph.call_names
    moves = []
    for _ in range(n_moves):
        name = names[int(rng.integers(len(names)))]
        choices = options[name]
        moves.append((name, choices[int(rng.integers(len(choices)))]))
    return moves


def _decision() -> Dict[str, Any]:
    """One scheduling decision's candidate wave, scored cold then cached."""
    cluster = make_cluster(32)
    manager = PartitionManager(cluster)
    search = _search(60)
    specs = [
        JobSpec(
            name=f"job-{i}",
            algorithm="grpo" if i % 2 else "ppo",
            batch_size=128 if i % 2 else 256,
            target_iterations=10,
            min_gpus=8,
            max_gpus=32,
        )
        for i in range(4)
    ]
    jobs = [Job(spec, spec.build_graph(), spec.build_workload()) for spec in specs]
    pairs = [
        (job, shape)
        for job in jobs
        for shape in manager.distinct_shapes(job.spec.min_gpus, job.spec.gpu_ceiling)
    ]
    with PlanService(estimator_cache_size=32) as service:
        costing = PlanCosting(service, search=search, replan_search=search)
        waves = [costing.score(pairs) for _ in range(2)]
    return {
        "candidates": len(pairs),
        "waves": costing.wave_stats["waves"],
        "seconds_per_iteration": [c.seconds_per_iteration for c in waves[0]],
        "outcomes": [[c.stats.outcome for c in wave] for wave in waves],
        "cached_costs_equal": [c.seconds_per_iteration for c in waves[1]]
        == [c.seconds_per_iteration for c in waves[0]],
    }


def search() -> Dict[str, Any]:
    graph, workload, cluster = figure13_setup()
    result = MCMCSearcher(
        graph,
        workload,
        cluster,
        estimator=RuntimeEstimator(graph, workload, cluster),
        options=allocation_options(graph, workload, cluster),
        config=_search(400, seed=0, n_chains=4),
    ).search()
    return {
        "best_cost": result.best_cost,
        "n_iterations": result.n_iterations,
        "decision": _decision(),
    }


# ---------------------------------------------------------------------- #
# service_stream
# ---------------------------------------------------------------------- #
def service_stream() -> Dict[str, Any]:
    """Four rounds over three workloads: only the first of each searches."""
    graph = build_ppo_graph()
    batch_sizes = (64, 96, 128)
    stream = [
        PlanRequest(
            graph=graph,
            workload=instructgpt_workload("7b", "7b", batch_size=batch_size),
            cluster=make_cluster(8),
            search=_search(150, seed=0),
        )
        for _ in range(4)
        for batch_size in batch_sizes
    ]
    with PlanService() as service:
        responses = [service.plan(request) for request in stream]
        stats = service.stats.snapshot()
    costs: Dict[str, set] = {}
    for response in responses:
        costs.setdefault(response.stats.fingerprint, set()).add(response.cost)
    return {
        "requests": stats.requests,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "distinct_fingerprints": len(costs),
        "one_cost_per_fingerprint": all(len(c) == 1 for c in costs.values()),
        "outcomes": [response.stats.outcome for response in responses],
        "costs": [response.cost for response in responses[: len(batch_sizes)]],
    }


SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "scheduler": scheduler,
    "online_replanning": online_replanning,
    "fleet_replay": fleet_replay,
    "engine_iteration": engine_iteration,
    "small_schedule": small_schedule,
    "search": search,
    "service_stream": service_stream,
}


def run_scenario(name: str) -> Dict[str, Any]:
    """One scenario's pin, normalised the way the fixture stores it."""
    return json.loads(json.dumps(SCENARIOS[name]()))


def main() -> None:
    payload = {name: run_scenario(name) for name in SCENARIOS}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
