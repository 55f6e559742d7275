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
* :class:`StaticEqualPolicy` — the naive baseline: one whole node per job,
  FIFO onto the lowest free node, no elasticity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .costing import Candidate, PlanCosting
from .job import Job
from .partition import Partition, PartitionManager

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
    def _shape_pairs(
        jobs: Sequence[Job], manager: PartitionManager
    ) -> List[Tuple[Job, Partition]]:
        """Every (job, free shape) pair, jobs in the given order and each
        job's shapes smallest first."""
        return [
            (job, shape)
            for job in jobs
            for shape in manager.distinct_shapes(job.spec.min_gpus, job.spec.gpu_ceiling)
        ]

    @staticmethod
    def _first_feasible(
        pairs: Sequence[Tuple[Job, Partition]], costing: PlanCosting
    ) -> PolicyDecision:
        """Place the first feasible candidate of ``pairs``, scored in one wave.

        With pairs in queue order and each job's shapes smallest first, that
        is the first queued job that fits, on its smallest fitting shape.
        """
        if pairs:
            for candidate in costing.score(pairs):
                if candidate.feasible:
                    return PolicyDecision(placement=candidate)
        return PolicyDecision()


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
        return self._first_feasible(self._shape_pairs(queue, manager), costing)


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
        pairs = self._shape_pairs(queue, manager)
        if not pairs:
            return PolicyDecision()
        feasible = [c for c in costing.score(pairs) if c.feasible]
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
        decision = self._first_feasible(self._shape_pairs([head], manager), costing)
        if decision.is_noop:
            return PolicyDecision(preemptions=self._victims_for(head, running, manager, costing))
        return decision

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
    """Naive static baseline: one whole node per job, FIFO, no elasticity.

    Every job takes the lowest free whole node in FIFO order; placements
    never merge, split or move, so GPUs idle whenever a node's job finishes
    early — exactly the rigidity the elastic policies remove.  A job that
    needs more than one node is never placed.
    """

    name = "static_equal"
    allows_resize = False

    def decide(self, queue, running, manager, costing) -> PolicyDecision:
        gpn = manager.cluster.gpus_per_node
        # Whole nodes are one shape, so this is the lowest free one, if any.
        lowest = manager.distinct_shapes(gpn, gpn)
        return self._first_feasible(
            [(job, node) for job in queue if job.spec.min_gpus <= gpn for node in lowest],
            costing,
        )


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
