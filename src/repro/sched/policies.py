"""Scheduling policies: who runs where on the shared cluster.

A policy makes one decision at a time — either a single placement (a scored
:class:`~repro.sched.costing.Candidate`) or a set of preemptions — and the
scheduler's dispatch loop re-invokes it until it has nothing more to do.
This keeps every policy simple (no shadow bookkeeping of tentative
placements) while the plan-service cache makes the repeated scoring cheap.

Shipped policies:

* :class:`FirstFitPolicy` — FIFO arrivals, smallest feasible partition.
* :class:`BestThroughputPolicy` — packs by iterations/sec per GPU across all
  queued jobs and free partition shapes.
* :class:`PriorityPolicy` — strict priority order with preemption of
  lower-priority running jobs when the head job cannot fit.
* :class:`StaticEqualPolicy` — the naive baseline: the cluster is carved into
  fixed equal whole-node slots once, jobs FIFO onto free slots, no elasticity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .costing import Candidate, PlanCosting
from .job import Job
from .partition import Partition, PartitionManager, equal_node_partitions

__all__ = [
    "PolicyDecision",
    "SchedulingPolicy",
    "FirstFitPolicy",
    "BestThroughputPolicy",
    "PriorityPolicy",
    "StaticEqualPolicy",
    "get_policy",
    "available_policies",
]


@dataclass
class PolicyDecision:
    """One scheduling step: place one job, or preempt some, or do nothing."""

    placement: Optional[Candidate] = None
    preemptions: List[Job] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        return self.placement is None and not self.preemptions


class SchedulingPolicy:
    """Base class of all scheduling policies."""

    name: str = "base"
    allows_resize: bool = True
    """Whether the scheduler may elastically resize this policy's placements."""

    def decide(
        self,
        queue: Sequence[Job],
        running: Sequence[Job],
        manager: PartitionManager,
        costing: PlanCosting,
    ) -> PolicyDecision:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _feasible(candidates: Sequence[Candidate]) -> List[Candidate]:
        return [c for c in candidates if c.feasible]

    @staticmethod
    def _first_fit(
        job: Job, manager: PartitionManager, costing: PlanCosting
    ) -> Optional[Candidate]:
        """Smallest feasible free partition for ``job`` (shape-deduplicated)."""
        shapes = manager.distinct_shapes(job.spec.min_gpus, job.spec.gpu_ceiling)
        if not shapes:
            return None
        # Shapes come back smallest first; score them all in one batch (the
        # cache collapses repeats) and take the smallest feasible one.
        for candidate in costing.score_one(job, shapes):
            if candidate.feasible:
                return candidate
        return None


class FirstFitPolicy(SchedulingPolicy):
    """FIFO over arrivals; each job takes the smallest feasible partition.

    All (queued job, free shape) candidates are batched into **one**
    costing wave — repeated shapes collapse onto cache hits — and the
    decision is then read off the scored list in FIFO order (smallest
    feasible shape first), exactly as the sequential per-job probing would
    have chosen.  Scores for jobs behind the placed one are not wasted:
    shapes repeat across decisions, so the speculative searches land in the
    plan-service cache and serve the following decisions — cold search work
    is pulled forward, not multiplied.
    """

    name = "first_fit"

    def decide(self, queue, running, manager, costing) -> PolicyDecision:
        pairs: List[Tuple[Job, Partition]] = []
        for job in queue:
            shapes = manager.distinct_shapes(job.spec.min_gpus, job.spec.gpu_ceiling)
            pairs.extend((job, shape) for shape in shapes)
        if not pairs:
            return PolicyDecision()
        by_job: dict = {}
        for candidate in costing.score(pairs):
            by_job.setdefault(candidate.job.uid, []).append(candidate)
        for job in queue:
            # Shapes were enumerated smallest first and score() preserves
            # order, so the first feasible candidate is the smallest fit.
            for candidate in by_job.get(job.uid, ()):
                if candidate.feasible:
                    return PolicyDecision(placement=candidate)
        return PolicyDecision()


class BestThroughputPolicy(SchedulingPolicy):
    """Greedy packing by aggregate-throughput density.

    All (queued job, free partition shape) pairs are scored through the plan
    service in one concurrent batch; the pair with the highest iterations/sec
    *per GPU* is placed.  Density (rather than raw iterations/sec) is the
    greedy criterion that maximizes aggregate cluster throughput: parallel
    efficiency is sub-linear, so spending GPUs where each contributes most
    packs more concurrent jobs onto the cluster.
    """

    name = "best_throughput"

    def decide(self, queue, running, manager, costing) -> PolicyDecision:
        pairs: List[Tuple[Job, Partition]] = []
        for job in queue:
            for shape in manager.distinct_shapes(job.spec.min_gpus, job.spec.gpu_ceiling):
                pairs.append((job, shape))
        if not pairs:
            return PolicyDecision()
        feasible = self._feasible(costing.score(pairs))
        if not feasible:
            return PolicyDecision()
        best = max(
            feasible,
            key=lambda c: (
                c.throughput_density,
                c.iterations_per_second,
                -c.job.spec.arrival_time,
                -c.job.uid,
            ),
        )
        return PolicyDecision(placement=best)


class PriorityPolicy(SchedulingPolicy):
    """Strict priority order with preemption, no backfilling.

    The queue is served highest priority first (FIFO within a priority
    level).  When the head job cannot be placed and strictly lower-priority
    jobs are running, the policy preempts the lowest-priority victims whose
    GPUs (plus the current free set) admit a partition for the head job; the
    displaced victims are re-queued and later re-planned with warm starts.
    Lower-priority jobs never jump over a blocked head job, so a preempted
    job cannot immediately steal its own GPUs back.
    """

    name = "priority"

    def decide(self, queue, running, manager, costing) -> PolicyDecision:
        ordered = sorted(
            queue, key=lambda j: (-j.spec.priority, j.spec.arrival_time, j.uid)
        )
        if not ordered:
            return PolicyDecision()
        head = ordered[0]
        candidate = self._first_fit(head, manager, costing)
        if candidate is not None:
            return PolicyDecision(placement=candidate)
        victims = self._victims_for(head, running, manager, costing)
        if victims:
            return PolicyDecision(preemptions=victims)
        return PolicyDecision()

    @staticmethod
    def _victims_for(
        job: Job,
        running: Sequence[Job],
        manager: PartitionManager,
        costing: PlanCosting,
    ) -> List[Job]:
        """Lowest-priority victims whose GPUs give ``job`` a *feasible* home.

        Geometry alone is not enough: a head job whose plan OOMs everywhere
        would otherwise cascade-preempt every lower-priority job and then
        still block.  Victims are only returned once some partition of the
        hypothetically freed cluster admits a memory-feasible plan (the
        scoring is cached, so the dry run is cheap).
        """
        lower = sorted(
            (r for r in running if r.spec.priority < job.spec.priority),
            key=lambda r: (r.spec.priority, -(r.first_started_at or 0.0), r.uid),
        )
        victims: List[Job] = []
        freed: set = set()
        for victim in lower:
            victims.append(victim)
            freed |= manager.owner_ids(victim.uid)
            shapes = manager.distinct_shapes(
                job.spec.min_gpus, job.spec.gpu_ceiling, extra_free=frozenset(freed)
            )
            if shapes and any(c.feasible for c in costing.score_one(job, shapes)):
                return victims
        return []


class StaticEqualPolicy(SchedulingPolicy):
    """Naive static baseline: fixed equal whole-node slots, FIFO, no elasticity.

    The cluster is carved once into one whole-node slot per node.  Arriving
    jobs take any free slot in FIFO order; slots never merge, split or move,
    so GPUs idle whenever a slot's job finishes early — exactly the rigidity
    the elastic policies remove.
    """

    name = "static_equal"
    allows_resize = False

    def __init__(self) -> None:
        self._slots: Optional[List[Partition]] = None
        self._slots_cluster = None

    def _slots_for(self, manager: PartitionManager) -> List[Partition]:
        if self._slots is None or self._slots_cluster != manager.cluster:
            self._slots = equal_node_partitions(manager.cluster)
            self._slots_cluster = manager.cluster
        return self._slots

    def decide(self, queue, running, manager, costing) -> PolicyDecision:
        open_slots = [slot for slot in self._slots_for(manager) if manager.is_free(slot)]
        # One wave over every (job, fitting slot) pair; the FIFO
        # selection below is unchanged (slots are identical shapes anyway, so
        # repeats collapse onto the same cached search).
        pairs: List[Tuple[Job, Partition]] = []
        for job in queue:
            pairs.extend(
                (job, slot) for slot in open_slots if slot.n_gpus >= job.spec.min_gpus
            )
        if not pairs:
            return PolicyDecision()
        by_job: dict = {}
        for candidate in costing.score(pairs):
            by_job.setdefault(candidate.job.uid, []).append(candidate)
        for job in queue:
            for candidate in by_job.get(job.uid, ()):
                if candidate.feasible:
                    return PolicyDecision(placement=candidate)
        return PolicyDecision()


_POLICIES = {
    FirstFitPolicy.name: FirstFitPolicy,
    BestThroughputPolicy.name: BestThroughputPolicy,
    PriorityPolicy.name: PriorityPolicy,
    StaticEqualPolicy.name: StaticEqualPolicy,
}


def available_policies() -> List[str]:
    """Names accepted by :func:`get_policy`."""
    return sorted(_POLICIES)


def get_policy(policy: "str | SchedulingPolicy") -> SchedulingPolicy:
    """Resolve a policy instance from a name (or pass an instance through)."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    key = str(policy).lower()
    if key not in _POLICIES:
        raise KeyError(
            f"unknown scheduling policy {policy!r}; available: {available_policies()}"
        )
    return _POLICIES[key]()
