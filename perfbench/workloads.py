"""The benchmark's workloads: seeded inputs, one measured round, output checks.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
round of user-visible operations through the public API in
:meth:`run_round` (a fresh :class:`~repro.service.PlanService` per round),
and judges the round in :meth:`check`, outside the timed and traced region.
Rounds of one run repeat identical inputs, so every round must reproduce the
same outcome digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from perfbench.clock import Clock
from repro import capacity
from repro.algorithms import build_graph
from repro.capacity import CapacityCandidate, FleetTraceConfig
from repro.cluster import make_cluster
from repro.core import RuntimeEstimator, SearchConfig, instructgpt_workload
from repro.sched import ClusterScheduler, SchedulerConfig
from repro.service import PlanRequest, PlanService
from repro.sim import TraceRecorder


def _workers() -> int:
    """Plan-service pool size: never more threads than usable cores (max 2)."""
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return max(1, min(2, usable))


@dataclass
class RoundResult:
    """One checked round: op latencies, failures and deterministic outcomes."""

    op_seconds: List[float]
    round_seconds: float
    wall_seconds: float
    attempted: int
    failed: int
    digest: str
    gpu_s_per_iter: float
    stages: Dict[str, float]


def _digest(document: Any) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _report_outcome(report) -> Dict[str, Any]:
    """The seed-deterministic fields of a ScheduleReport (no wall times)."""
    return {
        "makespan": report.makespan,
        "busy_horizon": report.busy_horizon,
        "total_iterations": report.total_iterations,
        "n_events": report.n_events,
        "engine_profile_runs": report.engine_profile_runs,
        "total_switch_seconds": report.total_switch_seconds,
        "candidates_scored": report.candidates_scored,
        "n_swaps": report.n_swaps,
        "n_swaps_rejected": report.n_swaps_rejected,
        "n_search_polls": report.n_search_polls,
        "swap_seconds_saved": report.swap_seconds_saved,
        "online_sessions": report.online_sessions,
        "jobs": [job.to_dict() for job in report.jobs],
    }


def _gpu_s_per_iter(report) -> float:
    return sum(job.gpu_seconds for job in report.jobs) / report.total_iterations


def _log_failure(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------- #
# plan_search
# ---------------------------------------------------------------------- #
_ALGORITHMS = ("ppo", "grpo", "remax", "dpo")
_ACTORS = ("7b", "13b", "34b", "70b")
_CRITICS = ("7b", "13b")
# (GPU count choices, batch tier) slots per actor size: four experiments per
# (algorithm, actor, critic) cell, sized so every plan fits in memory.  Slots
# of one tier never share a GPU count, so a cell's experiments all differ.
_SLOTS = {
    "7b": (((8,), "small"), ((16, 32), "lo"), ((32,), "hi"), ((64, 128), "hi")),
    "13b": (((16, 32), "lo"), ((64, 128), "lo"), ((32, 64), "hi"), ((128,), "hi")),
    "34b": (((32,), "lo"), ((64, 128), "lo"), ((64,), "hi"), ((128,), "hi")),
    "70b": (((64,), "lo"), ((128,), "lo"), ((128,), "mid"), ((128,), "hi")),
}
# Batch sizes per tier: (other algorithms, GRPO).  GRPO samples a group of
# 8 responses per prompt, so its 64-128 prompts are 512-1024 sequences.
_BATCHES = {
    "small": ((128,), (64,)),
    "lo": ((128, 256), (64,)),
    "mid": ((384,), (96,)),
    "hi": ((512, 1024), (128,)),
}
PLAN_SEARCH_ITERATIONS = 400


def plan_search_experiments(seed: int) -> List[Dict[str, Any]]:
    """>= 100 distinct RLHF experiments, stratified and shuffled by ``seed``.

    Every (algorithm, actor, critic) cell gets the same four size slots, and
    within a slot the seed deals the GPU counts and batch sizes out evenly
    across cells, so any seed yields the same mix of experiment sizes (the
    run-to-run spread of the aggregate metrics stays small) while the
    concrete experiments, their order and their search seeds all change.
    DPO trains no critic, so it has one cell per actor.
    """
    rng = random.Random(seed)
    cells = [
        (algo, actor, critic)
        for algo in _ALGORITHMS
        for actor in _ACTORS
        for critic in (_CRITICS if algo != "dpo" else ("7b",))
    ]
    decks: Dict[tuple, List[int]] = {}

    def deal(key: tuple, choices: Sequence[int]) -> int:
        deck = decks.get(key)
        if not deck:
            deck = decks[key] = list(choices) * 2
            rng.shuffle(deck)
        return deck.pop()

    experiments = []
    for algo, actor, critic in cells:
        for slot, (gpu_choices, tier) in enumerate(_SLOTS[actor]):
            batches = _BATCHES[tier][algo == "grpo"]
            experiments.append(
                {
                    "algorithm": algo,
                    "actor": actor,
                    "critic": critic,
                    "gpus": deal(("gpus", actor, slot), gpu_choices),
                    "batch": deal(("batch", algo, tier), batches),
                }
            )
    rng.shuffle(experiments)
    for experiment in experiments:
        experiment["search_seed"] = rng.randrange(2**31)
    return experiments


class PlanSearch:
    """Closed loop, one client: each request waits for the previous reply."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.requests: List[PlanRequest] = []

    def setup(self) -> None:
        self.requests = [
            PlanRequest(
                graph=build_graph(e["algorithm"]),
                workload=instructgpt_workload(e["actor"], e["critic"], batch_size=e["batch"]),
                cluster=make_cluster(e["gpus"]),
                search=SearchConfig(
                    max_iterations=PLAN_SEARCH_ITERATIONS,
                    time_budget_s=600.0,
                    seed=e["search_seed"],
                    record_history=False,
                ),
            )
            for e in plan_search_experiments(self.seed)
        ]

    def run_round(self, clock: Clock) -> Dict[str, Any]:
        replies = []
        with PlanService(max_workers=_workers(), cache_capacity=2 * len(self.requests)) as service:
            for request in self.requests:
                try:
                    replies.append(clock.measure(service.plan, request)[::-1])
                except Exception:  # a failed op is counted, the loop goes on
                    _log_failure("plan request")
                    replies.append((0.0, None))
        return {"replies": replies, "wall_s": clock.wall_s}

    def check(self, raw: Dict[str, Any]) -> RoundResult:
        failed = 0
        outcomes = []
        log_gpu_s = 0.0
        for request, (_latency, response) in zip(self.requests, raw["replies"]):
            ok = (
                response is not None
                and response.feasible
                and response.result.n_iterations == request.search.max_iterations
                and RuntimeEstimator(request.graph, request.workload, request.cluster).cost(
                    response.plan
                ) == response.cost
            )
            if not ok:
                print(f"FAILED check of {request.fingerprint().key}: {response!r:.300}",
                      file=sys.stderr)
                failed += 1
                outcomes.append(None)
                continue
            outcomes.append((repr(response.cost), response.plan.to_dict()))
            log_gpu_s += math.log(response.cost * request.cluster.n_gpus)
        n_ok = len(self.requests) - failed
        op_seconds = [latency for latency, _ in raw["replies"]]
        return RoundResult(
            op_seconds=op_seconds,
            round_seconds=sum(op_seconds),
            wall_seconds=raw["wall_s"],
            attempted=len(self.requests),
            failed=failed,
            digest=_digest(outcomes),
            gpu_s_per_iter=math.exp(log_gpu_s / n_ok) if n_ok else float("nan"),
            stages={
                "requests": float(len(self.requests)),
                "p90_s": statistics.quantiles(op_seconds, n=10)[8],
                "round_s": sum(op_seconds),
            },
        )


# ---------------------------------------------------------------------- #
# fleet_replay
# ---------------------------------------------------------------------- #
def fleet_trace(n_jobs: int, horizon_s: float, seed: int) -> List[Any]:
    """The fleet generator's trace with the job-type mix fixed by its weights.

    A Poisson stream whose jobs draw their type by weight is the union of one
    Poisson stream per type, so generating each type's stream separately,
    with ``n_jobs * weight`` jobs, samples the same process with the type
    counts held at their expected values.  Arrivals and iteration counts
    still come from the seed; only the mix no longer drifts from seed to
    seed, which keeps the aggregate outcomes comparable across seeds.
    """
    types = FleetTraceConfig().job_types
    total = sum(jtype.weight for jtype in types)
    jobs = []
    for index, jtype in enumerate(types):
        jobs += capacity.generate_fleet_trace(
            FleetTraceConfig(
                n_jobs=max(1, round(n_jobs * jtype.weight / total)),
                horizon_s=horizon_s,
                seed=seed * len(types) + index,
                job_types=(jtype,),
            )
        )
    return sorted(jobs, key=lambda spec: spec.arrival_time)


FLEET_JOBS = 1200
FLEET_HORIZON_S = 21600.0
FLEET_GPUS = 4096
WARM_REPLAYS = 5


def _grid() -> List[CapacityCandidate]:
    """Six cluster-shape x policy candidates for the quarter-size trace."""
    shapes = ((1024, 8), (1024, 4), (2048, 8))
    return [
        CapacityCandidate(
            name=f"{gpus}g{per_node}n-{policy}",
            n_gpus=gpus,
            gpus_per_node=per_node,
            policy=policy,
        )
        for gpus, per_node in shapes
        for policy in ("first_fit", "best_throughput")
    ]


class FleetReplay:
    """Fleet trace: cold replay, warm replays, trace export, what-if grid."""

    def __init__(self, seed: int, tmp_root: str) -> None:
        self.seed = seed
        self.tmp_root = tmp_root

    def setup(self) -> None:
        self.jobs = fleet_trace(FLEET_JOBS, FLEET_HORIZON_S, self.seed)
        self.grid_jobs = fleet_trace(FLEET_JOBS // 4, FLEET_HORIZON_S, self.seed + 1)
        self.cluster = make_cluster(FLEET_GPUS)
        self.config = capacity.fleet_scheduler_config()
        self.candidates = _grid()

    def _replay(self, clock: Clock, service: PlanService):
        scheduler = ClusterScheduler(
            self.cluster, self.jobs, policy="first_fit", config=self.config, service=service
        )
        report, seconds = clock.measure(scheduler.run)
        return scheduler, report, seconds

    def run_round(self, clock: Clock) -> Dict[str, Any]:
        raw: Dict[str, Any] = {"warm": []}
        with PlanService(max_workers=_workers(), estimator_cache_size=64) as service:
            _scheduler, raw["cold"], raw["cold_s"] = self._replay(clock, service)
            for _ in range(WARM_REPLAYS):
                scheduler, report, seconds = self._replay(clock, service)
                raw["warm"].append((report, seconds))
        # The export is ClusterScheduler.export_chrome_trace in its two public
        # steps, so the clock recalibrates halfway through the long operation.
        raw["tmp"] = tempfile.mkdtemp(dir=self.tmp_root)
        recorder = TraceRecorder()
        _, record_s = clock.measure(scheduler.record_chrome, recorder)
        raw["trace"], save_s = clock.measure(
            recorder.save, os.path.join(raw["tmp"], "TRACE_fleet.json")
        )
        raw["export_s"] = record_s + save_s
        with PlanService(max_workers=_workers(), estimator_cache_size=64) as service:
            raw["whatif"], raw["whatif_s"] = clock.measure(
                capacity.capacity_whatif,
                self.grid_jobs, self.candidates, config=self.config, service=service,
            )
        raw["wall_s"] = clock.wall_s
        return raw

    def check(self, raw: Dict[str, Any]) -> RoundResult:
        try:
            with open(raw["trace"]) as handle:
                trace_events = len(json.load(handle)["traceEvents"])
        finally:
            shutil.rmtree(raw["tmp"], ignore_errors=True)
        cold = raw["cold"]
        target = float(sum(spec.target_iterations for spec in self.jobs))
        expected = _report_outcome(cold)
        failed = int(not (cold.all_completed and cold.total_iterations == target))
        failed += sum(_report_outcome(report) != expected for report, _ in raw["warm"])
        failed += int(trace_events <= 0)
        whatif = raw["whatif"]
        grid_target = float(sum(spec.target_iterations for spec in self.grid_jobs))
        failed += sum(
            not (o.n_completed == o.n_jobs == len(self.grid_jobs) and o.total_iterations == grid_target)
            for o in whatif.outcomes
        )
        failed += len(self.candidates) - len(whatif.outcomes)
        warm_s = [seconds for _, seconds in raw["warm"]]
        grid_outcome = [
            {k: v for k, v in o.to_dict().items() if k not in ("wall_seconds", "events_per_sec")}
            for o in whatif.outcomes
        ]
        return RoundResult(
            op_seconds=warm_s,
            round_seconds=raw["cold_s"] + sum(warm_s) + raw["export_s"] + raw["whatif_s"],
            wall_seconds=raw["wall_s"],
            attempted=2 + WARM_REPLAYS + len(self.candidates),
            failed=failed,
            digest=_digest({"replay": expected, "grid": grid_outcome, "frontier": whatif.frontier}),
            gpu_s_per_iter=_gpu_s_per_iter(cold),
            stages={
                "cold_s": raw["cold_s"],
                "warm_s": statistics.median(warm_s),
                "warm_events_per_s": cold.n_events / statistics.median(warm_s),
                "export_s": raw["export_s"],
                "trace_events": float(trace_events),
                "whatif_s": raw["whatif_s"],
                "sim_makespan_s": cold.makespan,
            },
        )


# ---------------------------------------------------------------------- #
# online_replan
# ---------------------------------------------------------------------- #
ONLINE_TRACES = 3
ONLINE_JOBS = 20
ONLINE_HORIZON_S = 7200.0
ONLINE_GPUS = 128


def online_config() -> SchedulerConfig:
    """bench_online_replanning's online arm; no time budget ever binds."""
    return SchedulerConfig(
        search=SearchConfig(max_iterations=20, time_budget_s=600.0, seed=0, record_history=False),
        elastic=False,
        online_replanning=True,
        online_search=SearchConfig(
            max_iterations=1200, time_budget_s=600.0, seed=0, record_history=False
        ),
        poll_interval_s=15.0,
        poll_iterations=100,
        swap_margin=1.01,
    )


class OnlineReplan:
    """Fleet-generator slices scheduled with background re-planning.

    A round replays several independent slices, each on a fresh cluster and
    plan service: more jobs per round for steadier aggregates, in operations
    short enough for the clock to track the host's speed.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.traces = [
            fleet_trace(ONLINE_JOBS, ONLINE_HORIZON_S, self.seed * ONLINE_TRACES + index)
            for index in range(ONLINE_TRACES)
        ]
        self.cluster = make_cluster(ONLINE_GPUS)
        self.config = online_config()

    def run_round(self, clock: Clock) -> Dict[str, Any]:
        replays = []
        for jobs in self.traces:
            with PlanService(max_workers=_workers()) as service:
                scheduler = ClusterScheduler(
                    self.cluster, jobs, policy="best_throughput", config=self.config,
                    service=service,
                )
                replays.append(clock.measure(scheduler.run))
        return {"replays": replays, "wall_s": clock.wall_s}

    def check(self, raw: Dict[str, Any]) -> RoundResult:
        failed = 0
        outcomes = []
        for jobs, (report, _seconds) in zip(self.traces, raw["replays"]):
            target = float(sum(spec.target_iterations for spec in jobs))
            failed += not (
                report.all_completed and report.total_iterations == target and report.n_swaps >= 1
            )
            outcomes.append(_report_outcome(report))
        reports = [report for report, _ in raw["replays"]]
        op_seconds = [seconds for _, seconds in raw["replays"]]
        return RoundResult(
            op_seconds=op_seconds,
            round_seconds=sum(op_seconds),
            wall_seconds=raw["wall_s"],
            attempted=len(reports),
            failed=failed,
            digest=_digest(outcomes),
            gpu_s_per_iter=sum(j.gpu_seconds for r in reports for j in r.jobs)
            / sum(r.total_iterations for r in reports),
            stages={
                "replan_s": sum(op_seconds),
                "swaps": float(sum(r.n_swaps for r in reports)),
                "polls": float(sum(r.n_search_polls for r in reports)),
            },
        )


def make_workload(name: str, seed: int, tmp_root: str):
    if name == "plan_search":
        return PlanSearch(seed)
    if name == "fleet_replay":
        return FleetReplay(seed, tmp_root)
    if name == "online_replan":
        return OnlineReplan(seed)
    raise ValueError(f"unknown workload {name!r}")


# Layers that must record calls in a traced run of each workload.
EXPECTED_LAYERS = {
    "plan_search": ("core.estimator", "core.search", "service"),
    "fleet_replay": (
        "core.estimator", "core.search", "service", "sched.partition", "sched.policies",
        "sched.costing", "sim.kernel", "sched.scheduler", "sched.profiles",
        "runtime.engine", "realloc", "sim.trace", "capacity",
    ),
    "online_replan": (
        "core.estimator", "core.search", "service", "sched.partition", "sched.policies",
        "sched.costing", "sim.kernel", "sched.scheduler", "sched.profiles",
        "runtime.engine", "realloc",
    ),
}
