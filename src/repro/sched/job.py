"""Job descriptions and runtime records of the multi-job cluster scheduler.

A :class:`JobSpec` is what a tenant submits: which RLHF algorithm and model
sizes to train, the data shape, a priority, when the job arrives and how many
RLHF iterations it must complete, plus an elastic GPU range
(``min_gpus``/``max_gpus``) the scheduler may place it within.  A
:class:`Job` is the scheduler's mutable runtime record of one submitted spec:
its phase, current partition, plan and engine-derived iteration profile,
accumulated progress and the displacement counters (replans, preemptions,
elastic resizes).

Progress is **iteration-granular**: a job advances whole RLHF iterations at
the pace of its engine-simulated
:class:`~repro.sched.profiles.IterationProfile`, each iteration banked at its
boundary (the scheduler arms kernel events only at boundaries something
observes and banks the ones in between); an iteration interrupted by a
preemption, failure or elastic migration is lost (its GPU time is still
billed), exactly as an aborted training step would be on a real cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Tuple

from ..core.dataflow import DataflowGraph
from ..core.plan import ExecutionPlan
from ..core.workload import RLHFWorkload, instructgpt_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..service.server import PlanSession
    from ..sim.kernel import Event
    from .partition import Partition
    from .profiles import IterationProfile

__all__ = ["JobSpec", "JobPhase", "Job"]


@dataclass(frozen=True)
class JobSpec:
    """One RLHF training job submitted to the shared cluster.

    ``min_gpus``/``max_gpus`` bound the mesh-shaped partitions the scheduler
    may place the job on; ``max_gpus`` of ``None`` means the job can elasticly
    grow to any partition the cluster offers.  ``target_iterations`` is the
    number of RLHF iterations after which the job completes.
    """

    name: str
    algorithm: str = "ppo"
    actor_size: str = "7b"
    critic_size: str = "7b"
    batch_size: int = 256
    prompt_len: int = 1024
    gen_len: int = 1024
    n_ppo_minibatches: int = 8
    priority: int = 0
    arrival_time: float = 0.0
    target_iterations: int = 50
    min_gpus: int = 8
    max_gpus: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.target_iterations < 1:
            raise ValueError("target_iterations must be >= 1")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        if self.min_gpus < 1:
            raise ValueError("min_gpus must be >= 1")
        if self.max_gpus is not None and self.max_gpus < self.min_gpus:
            raise ValueError(
                f"max_gpus ({self.max_gpus}) must be >= min_gpus ({self.min_gpus})"
            )
        # Validate the algorithm at submission time: a typo would otherwise
        # surface as a deep KeyError at graph-build time inside the
        # scheduler's event loop, long after the job was accepted.
        from ..algorithms.registry import available_algorithms  # avoids a cycle

        if self.algorithm.lower() not in available_algorithms():
            raise ValueError(
                f"job {self.name!r} requests unknown RLHF algorithm "
                f"{self.algorithm!r}; available: {available_algorithms()}"
            )

    @property
    def planning_key(self) -> Tuple:
        """The job's type: specs with equal keys build equal graphs and workloads.

        Everything a plan, a profile or a scored candidate depends on besides
        the partition; name, priority, arrival, length and GPU range are not
        part of it.
        """
        return (
            self.algorithm.lower(),
            self.actor_size,
            self.critic_size,
            self.batch_size,
            self.prompt_len,
            self.gen_len,
            self.n_ppo_minibatches,
        )

    @property
    def gpu_ceiling(self) -> float:
        """Upper bound of the elastic GPU range (``inf`` when unbounded)."""
        return float("inf") if self.max_gpus is None else float(self.max_gpus)

    def build_graph(self) -> DataflowGraph:
        """The job's RLHF dataflow graph (by registered algorithm name)."""
        from ..algorithms.registry import build_graph  # local import avoids a cycle

        return build_graph(self.algorithm)

    def build_workload(self) -> RLHFWorkload:
        """The job's workload (InstructGPT-style model roles)."""
        return instructgpt_workload(
            actor_size=self.actor_size,
            critic_size=self.critic_size,
            batch_size=self.batch_size,
            prompt_len=self.prompt_len,
            gen_len=self.gen_len,
            n_ppo_minibatches=self.n_ppo_minibatches,
        )


class JobPhase(Enum):
    """Lifecycle phase of a scheduled job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    UNPLACEABLE = "unplaceable"
    """No partition of the (idle) cluster can host the job without OOM."""


_JOB_IDS = itertools.count()


@dataclass
class Job:
    """Mutable runtime record of one submitted :class:`JobSpec`."""

    spec: JobSpec
    graph: DataflowGraph
    workload: RLHFWorkload
    phase: JobPhase = JobPhase.PENDING
    partition: Optional["Partition"] = None
    plan: Optional[ExecutionPlan] = None
    profile: Optional["IterationProfile"] = None
    """Engine-derived per-iteration phase profile of the current placement."""
    seconds_per_iteration: float = float("inf")
    """True iteration time of the current placement (engine-simulated)."""
    planned_seconds_per_iteration: float = float("inf")
    """The estimator's iteration time of the current plan — what the search
    optimised.  Elastic-resize decisions compare planned against planned so
    the comparison stays within one cost model."""
    iterations_done: float = 0.0
    """Whole iterations completed (integral; partial iterations are lost on
    displacement)."""
    iteration_started_at: Optional[float] = None
    """Start of the in-flight iteration (for intra-iteration phase queries)."""
    pending_event: Optional["Event"] = None
    """The job's armed iteration-boundary kernel event: the next boundary
    something observes, which may lie several boundaries ahead."""
    next_boundary_at: Optional[float] = None
    """Time of the first iteration boundary of the segment not yet banked."""
    armed_boundaries: int = 0
    """Boundaries from ``next_boundary_at`` up to and including the one
    ``pending_event`` fires at."""
    prev_partition: Optional["Partition"] = None
    prev_plan: Optional[ExecutionPlan] = None
    """Located layout of the last segment — what migration costs are charged
    against when the job is re-placed."""
    lost_params: bool = False
    """Set when a node failure destroyed the resident parameter copy: the
    next placement pays a full parameter reload instead of a relayout."""
    switch_seconds: float = 0.0
    """Total parameter-migration time charged across all segments."""
    segment_started_at: Optional[float] = None
    first_started_at: Optional[float] = None
    completed_at: Optional[float] = None
    generation: int = 0
    """Bumped on every displacement; invalidates scheduled iteration events."""
    n_replans: int = 0
    n_preemptions: int = 0
    n_resizes: int = 0
    n_swaps: int = 0
    """Hot plan swaps taken at iteration boundaries (online re-planning)."""
    session: Optional["PlanSession"] = None
    """Background online re-planning session improving the current plan
    (only when the scheduler runs with ``online_replanning`` enabled)."""
    gpu_seconds: float = 0.0
    uid: int = field(default_factory=lambda: next(_JOB_IDS))

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def remaining_iterations(self) -> float:
        """Iterations still to run (never negative)."""
        return max(0.0, self.spec.target_iterations - self.iterations_done)

    @property
    def is_running(self) -> bool:
        return self.phase is JobPhase.RUNNING

    @property
    def planned_throughput(self) -> float:
        """Current estimator iterations/sec (0 when not running)."""
        if not self.is_running or self.planned_seconds_per_iteration <= 0:
            return 0.0
        return 1.0 / self.planned_seconds_per_iteration

    def accrue_gpu_time(self, now: float) -> None:
        """Bank the GPU time of the current running segment up to ``now``.

        Progress is *not* banked here — iterations complete only at their
        boundaries, which the scheduler banks in order (from the armed kernel
        event or when a cut settles the boundaries it passed); a segment cut
        short mid-iteration paid for GPUs without finishing the step.
        """
        if self.segment_started_at is None:
            return
        elapsed = max(0.0, now - self.segment_started_at)
        if self.partition is not None:
            self.gpu_seconds += elapsed * self.partition.n_gpus
        self.segment_started_at = now

    def current_phase(self, now: float) -> str:
        """The intra-iteration phase in flight at ``now`` (for the timeline)."""
        if self.profile is None or self.iteration_started_at is None:
            return "startup"
        return self.profile.phase_at(now - self.iteration_started_at)
