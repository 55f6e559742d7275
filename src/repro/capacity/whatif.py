"""Capacity what-if: replay one job trace against a grid of cluster shapes.

The planning product's core question — *which cluster should we buy/rent for
this workload?* — is answered by replaying the same fleet trace against a
grid of candidate cluster shapes × scheduling policies and comparing the
outcomes on a cost/throughput frontier:

* every candidate replays through the same warm
  :class:`~repro.service.server.PlanService`, and carved partition specs are
  parent-size-erased, so a (job type, shape) searched once is a cache hit for
  *every* subsequent candidate — the grid costs little more than its first
  replay;
* each outcome prices the candidate as **provisioned cost** (GPUs × makespan
  × $/GPU-hour — idle capacity is paid for, which is exactly what capacity
  planning must weigh) against **delivered throughput** (completed RLHF
  iterations per hour);
* the report's ``frontier`` lists the Pareto-optimal candidates (no other
  candidate is both cheaper and faster), machine-readable via
  :meth:`CapacityReport.to_dict`/:meth:`CapacityReport.save`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..cluster.hardware import make_cluster
from ..sched.job import JobSpec
from ..sched.scheduler import ClusterScheduler, SchedulerConfig
from ..service.server import PlanService
from .fleet import fleet_scheduler_config

__all__ = ["CapacityCandidate", "CandidateOutcome", "CapacityReport", "capacity_whatif"]


@dataclass(frozen=True)
class CapacityCandidate:
    """One cluster shape × policy point of the what-if grid."""

    name: str
    n_gpus: int
    gpus_per_node: int = 8
    policy: str = "first_fit"
    cost_per_gpu_hour: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("candidate name must be non-empty")
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {self.n_gpus}")
        if self.cost_per_gpu_hour < 0:
            raise ValueError(
                f"cost_per_gpu_hour must be >= 0, got {self.cost_per_gpu_hour}"
            )


@dataclass(frozen=True)
class CandidateOutcome:
    """One candidate's replay result, priced for the frontier."""

    name: str
    n_gpus: int
    gpus_per_node: int
    policy: str
    cost_per_gpu_hour: float
    n_jobs: int
    n_skipped: int
    """Jobs whose ``min_gpus`` exceeds the candidate cluster (not replayed)."""
    n_completed: int
    total_iterations: float
    makespan_s: float
    gpu_utilization: float
    provisioned_gpu_hours: float
    provisioned_cost: float
    iterations_per_hour: float
    cost_per_1k_iterations: float
    n_events: int
    wall_seconds: float
    events_per_sec: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "n_gpus": self.n_gpus,
            "gpus_per_node": self.gpus_per_node,
            "policy": self.policy,
            "cost_per_gpu_hour": self.cost_per_gpu_hour,
            "n_jobs": self.n_jobs,
            "n_skipped": self.n_skipped,
            "n_completed": self.n_completed,
            "total_iterations": self.total_iterations,
            "makespan_s": self.makespan_s,
            "gpu_utilization": self.gpu_utilization,
            "provisioned_gpu_hours": self.provisioned_gpu_hours,
            "provisioned_cost": self.provisioned_cost,
            "iterations_per_hour": self.iterations_per_hour,
            "cost_per_1k_iterations": self.cost_per_1k_iterations,
            "n_events": self.n_events,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
        }


@dataclass
class CapacityReport:
    """The full what-if grid: per-candidate outcomes plus the Pareto frontier."""

    outcomes: List[CandidateOutcome]
    frontier: List[str] = field(default_factory=list)
    """Names of Pareto-optimal candidates (grid order): no other candidate
    has both lower provisioned cost and higher iterations/hour."""
    n_jobs: int = 0

    def outcome(self, name: str) -> CandidateOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no candidate named {name!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_jobs": self.n_jobs,
            "candidates": [outcome.to_dict() for outcome in self.outcomes],
            "frontier": list(self.frontier),
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Write the machine-readable report JSON to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def _pareto_frontier(outcomes: Sequence[CandidateOutcome]) -> List[str]:
    """Non-dominated candidates on (provisioned cost ↓, iterations/hour ↑)."""
    frontier: List[str] = []
    for outcome in outcomes:
        dominated = any(
            other is not outcome
            and other.provisioned_cost <= outcome.provisioned_cost
            and other.iterations_per_hour >= outcome.iterations_per_hour
            and (
                other.provisioned_cost < outcome.provisioned_cost
                or other.iterations_per_hour > outcome.iterations_per_hour
            )
            for other in outcomes
        )
        if not dominated:
            frontier.append(outcome.name)
    return frontier


def capacity_whatif(
    jobs: Sequence[JobSpec],
    candidates: Sequence[CapacityCandidate],
    config: Optional[SchedulerConfig] = None,
    service: Optional[PlanService] = None,
) -> CapacityReport:
    """Replay ``jobs`` against every candidate and build the frontier report.

    All candidates share one :class:`PlanService` (the passed one, or a
    private one owned for the duration of the grid), so plan searches warm
    up on the first candidate and amortise across the rest.  ``config``
    defaults to :func:`fleet_scheduler_config`.  Jobs too large for a
    candidate cluster are skipped for that candidate and counted in its
    outcome — a small cluster failing to host the big jobs *is* part of the
    what-if answer.
    """
    if not candidates:
        raise ValueError("capacity_whatif needs at least one candidate")
    names = [candidate.name for candidate in candidates]
    if len(set(names)) != len(names):
        raise ValueError(f"candidate names must be unique, got {sorted(names)}")
    config = config if config is not None else fleet_scheduler_config()
    owns_service = service is None
    if owns_service:
        service = PlanService(estimator_cache_size=64)
    outcomes: List[CandidateOutcome] = []
    try:
        for candidate in candidates:
            cluster = make_cluster(candidate.n_gpus, gpus_per_node=candidate.gpus_per_node)
            fitting = [spec for spec in jobs if spec.min_gpus <= candidate.n_gpus]
            scheduler = ClusterScheduler(
                cluster=cluster,
                jobs=fitting,
                policy=candidate.policy,
                config=config,
                service=service,
            )
            wall_started = time.perf_counter()
            report = scheduler.run()
            wall = time.perf_counter() - wall_started
            makespan = report.makespan
            hours = makespan / 3600.0
            gpu_hours = candidate.n_gpus * hours
            cost = gpu_hours * candidate.cost_per_gpu_hour
            iterations = report.total_iterations
            outcomes.append(
                CandidateOutcome(
                    name=candidate.name,
                    n_gpus=candidate.n_gpus,
                    gpus_per_node=candidate.gpus_per_node,
                    policy=candidate.policy,
                    cost_per_gpu_hour=candidate.cost_per_gpu_hour,
                    n_jobs=len(fitting),
                    n_skipped=len(jobs) - len(fitting),
                    n_completed=report.n_completed,
                    total_iterations=iterations,
                    makespan_s=makespan,
                    gpu_utilization=report.gpu_utilization,
                    provisioned_gpu_hours=gpu_hours,
                    provisioned_cost=cost,
                    iterations_per_hour=iterations / hours if hours > 0 else 0.0,
                    cost_per_1k_iterations=(
                        cost / (iterations / 1000.0) if iterations > 0 else float("inf")
                    ),
                    n_events=report.n_events,
                    wall_seconds=wall,
                    events_per_sec=report.n_events / wall if wall > 0 else 0.0,
                )
            )
    finally:
        if owns_service:
            service.close()
    return CapacityReport(
        outcomes=outcomes,
        frontier=_pareto_frontier(outcomes),
        n_jobs=len(jobs),
    )
