"""Per-job and cluster-level metrics of one scheduling run.

The scheduler reports the metrics multi-tenant cluster operators actually
compare policies on: per-job queue wait and turnaround, the run's makespan,
aggregate iterations/sec across all jobs, and GPU utilization (busy
GPU-seconds over the cluster's capacity for the makespan — node-failure
downtime is *not* subtracted from capacity, so failures show up as lost
utilization, like they do on a real cluster bill).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["JobMetrics", "SearchTimeStats", "ScheduleReport"]


@dataclass(frozen=True)
class JobMetrics:
    """How one job fared under the schedule."""

    name: str
    priority: int
    arrival_time: float
    first_started_at: Optional[float]
    completed_at: Optional[float]
    iterations: float
    n_replans: int
    n_preemptions: int
    n_resizes: int
    gpu_seconds: float
    phase: str
    n_swaps: int = 0
    """Hot plan swaps taken at iteration boundaries (online re-planning)."""

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def queue_wait(self) -> float:
        """Seconds between arrival and first start (inf when never started)."""
        if self.first_started_at is None:
            return float("inf")
        return self.first_started_at - self.arrival_time

    @property
    def turnaround(self) -> float:
        """Seconds between arrival and completion (inf when incomplete)."""
        if self.completed_at is None:
            return float("inf")
        return self.completed_at - self.arrival_time

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "priority": self.priority,
            "arrival_time": self.arrival_time,
            "first_started_at": self.first_started_at,
            "completed_at": self.completed_at,
            "queue_wait": self.queue_wait if self.completed else None,
            "turnaround": self.turnaround if self.completed else None,
            "iterations": self.iterations,
            "n_replans": self.n_replans,
            "n_preemptions": self.n_preemptions,
            "n_resizes": self.n_resizes,
            "n_swaps": self.n_swaps,
            "gpu_seconds": self.gpu_seconds,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class SearchTimeStats:
    """Aggregate search-time spent on one class of planning requests."""

    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
        }


@dataclass
class ScheduleReport:
    """Outcome of one :class:`~repro.sched.scheduler.ClusterScheduler` run."""

    policy: str
    cluster_gpus: int
    jobs: List[JobMetrics] = field(default_factory=list)
    makespan: float = 0.0
    busy_horizon: float = 0.0
    """Span from the first arrival to the last accrual of GPU time.  Equals
    ``makespan`` on clean runs; longer when a displaced job ran past the last
    completion without ever finishing (e.g. a permanent failure)."""
    total_iterations: float = 0.0
    n_failures: int = 0
    n_recoveries: int = 0
    candidates_scored: int = 0
    cold_searches: SearchTimeStats = field(default_factory=SearchTimeStats)
    replan_searches: SearchTimeStats = field(default_factory=SearchTimeStats)
    service_stats: Dict[str, Any] = field(default_factory=dict)
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    """Chronological ``{time, event, job, detail}`` records of the run."""
    n_events: int = 0
    """Simulated events: kernel events processed (arrivals, failures, armed
    iteration boundaries...) plus the iteration boundaries banked without a
    kernel event of their own, so not all of them are kernel events."""
    engine_profile_runs: int = 0
    """Distinct runtime-engine iteration simulations behind the progress
    model (cache misses of the :class:`~repro.sched.profiles.IterationProfiler`)."""
    total_switch_seconds: float = 0.0
    """Parameter-migration time charged across all placements and resizes."""
    n_search_polls: int = 0
    """Background search slices consumed by online re-planning sessions."""
    n_swaps_rejected: int = 0
    """Hot swaps declined because the gain did not clear the margin after
    charging the switch cost."""
    swap_seconds_saved: float = 0.0
    """Estimated net seconds saved by taken swaps (remaining iterations times
    the per-iteration gain, minus the charged switch cost)."""
    online_sessions: int = 0
    """Background re-planning sessions opened over the run."""
    trace_path: Optional[str] = None
    """Where the merged Chrome trace of this run was written (if exported)."""
    metrics_path: Optional[str] = None
    """Where the ``METRICS_*.json`` registry snapshot was written (if any)."""
    provenance_path: Optional[str] = None
    """Where the ``PROVENANCE_*.jsonl`` decision ledger was written (if any)."""

    # ------------------------------------------------------------------ #
    # Derived cluster-level metrics
    # ------------------------------------------------------------------ #
    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_completed(self) -> int:
        return sum(1 for job in self.jobs if job.completed)

    @property
    def all_completed(self) -> bool:
        return self.n_completed == self.n_jobs

    @property
    def aggregate_iterations_per_second(self) -> float:
        """Total RLHF iterations completed per second of makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.total_iterations / self.makespan

    @property
    def gpu_utilization(self) -> float:
        """Busy GPU-seconds over cluster capacity for the busy horizon.

        The denominator spans to the last accrual of GPU time (not just the
        last completion), so work done by jobs that never finished cannot
        push utilization past 100%.
        """
        capacity = self.cluster_gpus * max(self.busy_horizon, self.makespan)
        if capacity <= 0:
            return 0.0
        return sum(job.gpu_seconds for job in self.jobs) / capacity

    @property
    def mean_queue_wait(self) -> float:
        waits = [job.queue_wait for job in self.jobs if job.first_started_at is not None]
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def max_queue_wait(self) -> float:
        waits = [job.queue_wait for job in self.jobs if job.first_started_at is not None]
        return max(waits) if waits else 0.0

    @property
    def n_replans(self) -> int:
        return sum(job.n_replans for job in self.jobs)

    @property
    def n_preemptions(self) -> int:
        return sum(job.n_preemptions for job in self.jobs)

    @property
    def n_resizes(self) -> int:
        return sum(job.n_resizes for job in self.jobs)

    @property
    def n_swaps(self) -> int:
        """Hot plan swaps taken at iteration boundaries across all jobs."""
        return sum(job.n_swaps for job in self.jobs)

    # ------------------------------------------------------------------ #
    # Serialization / presentation
    # ------------------------------------------------------------------ #
    def summary_row(self) -> Dict[str, Any]:
        """One table row for policy-comparison reports."""
        return {
            "policy": self.policy,
            "jobs": f"{self.n_completed}/{self.n_jobs}",
            "makespan (s)": round(self.makespan, 1),
            "agg iters/s": round(self.aggregate_iterations_per_second, 3),
            "gpu util": f"{self.gpu_utilization:.0%}",
            "mean wait (s)": round(self.mean_queue_wait, 1),
            "replans": self.n_replans,
            "preempts": self.n_preemptions,
            "resizes": self.n_resizes,
            "swaps": self.n_swaps,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form of the full report."""
        return {
            "policy": self.policy,
            "cluster_gpus": self.cluster_gpus,
            "makespan": self.makespan,
            "busy_horizon": self.busy_horizon,
            "total_iterations": self.total_iterations,
            "aggregate_iterations_per_second": self.aggregate_iterations_per_second,
            "gpu_utilization": self.gpu_utilization,
            "mean_queue_wait": self.mean_queue_wait,
            "max_queue_wait": self.max_queue_wait,
            "all_completed": self.all_completed,
            "n_failures": self.n_failures,
            "n_recoveries": self.n_recoveries,
            "n_replans": self.n_replans,
            "n_preemptions": self.n_preemptions,
            "n_resizes": self.n_resizes,
            "n_swaps": self.n_swaps,
            "n_search_polls": self.n_search_polls,
            "n_swaps_rejected": self.n_swaps_rejected,
            "swap_seconds_saved": self.swap_seconds_saved,
            "online_sessions": self.online_sessions,
            "candidates_scored": self.candidates_scored,
            "cold_searches": self.cold_searches.to_dict(),
            "replan_searches": self.replan_searches.to_dict(),
            "service_stats": dict(self.service_stats),
            "n_events": self.n_events,
            "engine_profile_runs": self.engine_profile_runs,
            "total_switch_seconds": self.total_switch_seconds,
            "trace_path": self.trace_path,
            "metrics_path": self.metrics_path,
            "provenance_path": self.provenance_path,
            "jobs": [job.to_dict() for job in self.jobs],
        }
