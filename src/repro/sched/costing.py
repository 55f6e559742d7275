"""Scoring (job, partition) candidates through the plan service.

Every scheduling decision — admission, packing, preemption recovery, elastic
resize — reduces to the same question: *how fast would this job run on that
partition?*  The answer comes from the existing
:class:`~repro.service.server.PlanService`: a candidate is a full planning
request over the partition's carved :class:`ClusterSpec`, so

* same-shaped partitions share the service's exact-key cache (scoring a
  hundred located candidates costs a handful of searches),
* displaced jobs are re-planned with warm starts from their own previously
  cached plans (same fingerprint family), and
* every candidate of one decision wave is warm-started from the cache as it
  stood when the wave began, so the order of a wave's candidates never
  changes which plan seeds which search.

The costing layer also keeps the request-statistics ledger the scheduler
report is built from: cold searches vs. warm-started/cached replans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.plan import ExecutionPlan
from ..core.pruning import PruneConfig
from ..core.search import SearchConfig, SearchProblem
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.provenance import get_ledger
from ..obs.tracing import get_tracer
from ..service.server import PlanRequest, PlanService, RequestStats, ServiceStats
from .job import Job
from .metrics import SearchTimeStats
from .partition import Partition

__all__ = ["Candidate", "PlanCosting"]


@dataclass(frozen=True)
class Candidate:
    """One scored (job, partition) placement option."""

    job: Job
    partition: Partition
    plan: Optional[ExecutionPlan]
    seconds_per_iteration: float
    feasible: bool
    stats: Optional[RequestStats] = None
    problem: Optional[SearchProblem] = field(default=None, repr=False, compare=False)
    """The search problem that produced :attr:`plan` (``None`` after a cache
    hit).  Holding it keeps the problem alive until the placed job's
    background session, which poses the same problem, has started."""

    @property
    def iterations_per_second(self) -> float:
        if not self.feasible or self.seconds_per_iteration <= 0:
            return 0.0
        return 1.0 / self.seconds_per_iteration

    @property
    def throughput_density(self) -> float:
        """Iterations/sec per GPU — the packing score of a candidate."""
        return self.iterations_per_second / max(1, self.partition.n_gpus)


class PlanCosting:
    """Plan-service front end of the scheduler, with a stats ledger."""

    def __init__(
        self,
        service: PlanService,
        search: SearchConfig,
        replan_search: SearchConfig,
        prune: PruneConfig = PruneConfig(),
        registry: Optional[MetricsRegistry] = None,
        memoize: bool = False,
    ) -> None:
        self.service = service
        self.search = search
        self.replan_search = replan_search
        self.prune = prune
        self.memoize = memoize
        # (job planning identity, partition shape, replan?) → scored result.
        # The memo mirrors the service's exact-key cache — identical keys pose
        # byte-identical planning problems — but answers without a service
        # round trip (fingerprinting, locks, response assembly).  Gated off
        # by default because hits bypass the service's request statistics.
        self._memo: Dict[tuple, Tuple[Optional[ExecutionPlan], float, bool]] = {}
        self.candidates_scored = 0
        self._cold: List[RequestStats] = []
        self._replan: List[RequestStats] = []
        self._wave_seconds: List[float] = []
        self._wave_sizes: List[int] = []
        # The service may be shared across several schedulers/benchmark runs;
        # this baseline turns its cumulative counters into per-run deltas.
        self._stats_baseline = service.stats.snapshot()
        self.registry = registry if registry is not None else get_registry()
        self._m_decision = self.registry.histogram(
            "sched_decision_seconds",
            "Plan-costing latency of one scheduling decision (one wave)",
        )
        self._m_candidates = self.registry.counter(
            "sched_candidates_total", "(job, partition) candidates scored"
        )

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def _request(self, job: Job, partition: Partition) -> PlanRequest:
        # Jobs that ran before are replans: they get the (smaller) warm-start
        # budget, since the service seeds their search from the job's own
        # previously cached plans of the same fingerprint family.
        search = self.replan_search if self._is_replan(job) else self.search
        return PlanRequest(
            graph=job.graph,
            workload=job.workload,
            cluster=partition.spec,
            search=search,
            prune=self.prune,
        )

    @staticmethod
    def _is_replan(job: Job) -> bool:
        return job.first_started_at is not None

    def _memo_key(self, job: Job, partition: Partition) -> tuple:
        spec = job.spec
        return (
            spec.algorithm.lower(),
            spec.actor_size,
            spec.critic_size,
            spec.batch_size,
            spec.prompt_len,
            spec.gen_len,
            spec.n_ppo_minibatches,
            partition.shape,
            self._is_replan(job),
        )

    def score(self, pairs: Sequence[Tuple[Job, Partition]]) -> List[Candidate]:
        """Score one *wave* of candidates; infeasible/failed ones stay in place.

        Requests are served one after another on this thread.  Repeated
        shapes become cache hits, and every miss is warm-started only from
        entries cached before the wave began.  One call is one wave —
        policies batch every candidate of a scheduling decision into a single
        call, and the wave's wall-clock time is the decision's plan-costing
        latency (see :attr:`wave_stats`).

        With :attr:`memoize` on, previously scored (job type, shape, replan?)
        keys answer from the in-process memo (a :class:`Candidate` without
        request stats) and only novel keys go through the service wave; the
        returned list stays positional either way.
        """
        if not pairs:
            return []
        if not self.memoize:
            return self._score_wave(list(pairs))
        out: List[Optional[Candidate]] = [None] * len(pairs)
        misses: List[Tuple[int, tuple]] = []
        for index, (job, partition) in enumerate(pairs):
            key = self._memo_key(job, partition)
            hit = self._memo.get(key)
            if hit is None:
                misses.append((index, key))
                continue
            plan, cost, feasible = hit
            self.candidates_scored += 1
            self._m_candidates.inc()
            out[index] = Candidate(
                job=job,
                partition=partition,
                plan=plan,
                seconds_per_iteration=cost,
                feasible=feasible,
            )
        if misses:
            scored = self._score_wave([pairs[index] for index, _key in misses])
            for (index, key), candidate in zip(misses, scored):
                self._memo[key] = (
                    candidate.plan,
                    candidate.seconds_per_iteration,
                    candidate.feasible,
                )
                out[index] = candidate
        return out  # type: ignore[return-value]

    def _score_wave(self, pairs: Sequence[Tuple[Job, Partition]]) -> List[Candidate]:
        """One service wave (the un-memoized scoring path)."""
        wave_started = time.perf_counter()
        # Warm starts see only what was cached before the wave began.
        wave_start_puts = self.service.cache.puts
        # The wave span is the root of each decision's causal tree: every
        # plan-request span (and its search-chain spans) hangs beneath it.
        with get_tracer().start_span(
            "decision wave",
            category="sched",
            args={"candidates": len(pairs)},
        ) as wave_span:
            out: List[Candidate] = []
            for job, partition in pairs:
                self.candidates_scored += 1
                future = self.service.submit(
                    self._request(job, partition),
                    warm_start_before=wave_start_puts,
                    keep_problem=True,
                )
                try:
                    response = future.result()
                except ValueError:
                    # No admissible allocation for some call on this partition
                    # (e.g. the model cannot fit at any parallelization) — the
                    # candidate is simply infeasible, not an error.
                    out.append(
                        Candidate(
                            job=job,
                            partition=partition,
                            plan=None,
                            seconds_per_iteration=float("inf"),
                            feasible=False,
                        )
                    )
                    continue
                self._record(job, response.stats)
                out.append(
                    Candidate(
                        job=job,
                        partition=partition,
                        plan=response.plan,
                        seconds_per_iteration=response.cost,
                        feasible=response.feasible and response.cost > 0,
                        stats=response.stats,
                        problem=response.problem,
                    )
                )
            wave_seconds = time.perf_counter() - wave_started
            wave_span.set(wave_seconds=wave_seconds)
        get_ledger().record(
            "decision_wave",
            wave_seconds=wave_seconds,
            candidates=[
                {
                    "job": candidate.job.spec.name,
                    "partition": candidate.partition.describe(),
                    "cost": candidate.seconds_per_iteration,
                    "feasible": candidate.feasible,
                    "outcome": candidate.stats.outcome if candidate.stats else "infeasible",
                    "fingerprint": candidate.stats.fingerprint if candidate.stats else None,
                }
                for candidate in out
            ],
        )
        self._wave_seconds.append(wave_seconds)
        self._wave_sizes.append(len(pairs))
        self._m_decision.observe(wave_seconds)
        self._m_candidates.inc(len(pairs))
        return out

    def score_one(self, job: Job, partitions: Sequence[Partition]) -> List[Candidate]:
        """Score one job against several partitions."""
        return self.score([(job, partition) for partition in partitions])

    # ------------------------------------------------------------------ #
    # Ledger
    # ------------------------------------------------------------------ #
    def _record(self, job: Job, stats: RequestStats) -> None:
        if self._is_replan(job):
            self._replan.append(stats)
        elif not (stats.cache_hit or stats.warm_started):
            self._cold.append(stats)

    @property
    def cold_stats(self) -> SearchTimeStats:
        """Search time spent on cold (uncached, unseeded) placements."""
        return SearchTimeStats(
            count=len(self._cold),
            total_seconds=sum(s.search_seconds for s in self._cold),
        )

    @property
    def replan_stats(self) -> SearchTimeStats:
        """Search time spent re-planning displaced/resized jobs."""
        return SearchTimeStats(
            count=len(self._replan),
            total_seconds=sum(s.search_seconds for s in self._replan),
        )

    def service_stats_delta(self) -> ServiceStats:
        """This costing's share of the (possibly shared) service counters.

        The difference between the service's live counters and their snapshot
        at construction time — so schedulers and benchmarks sharing one
        :class:`PlanService` still report per-run request statistics.
        """
        return self.service.stats.snapshot().delta(self._stats_baseline)

    @property
    def wave_stats(self) -> Dict[str, float]:
        """Scheduler decision latency: per-wave wall-clock summary.

        One wave is one :meth:`score` call — all candidate costings of one
        scheduling decision.  ``mean``/``max`` therefore measure how long the
        scheduler blocks on plan costing per decision; perfbench reports
        the wave count as ``sched.costing.waves``.
        """
        waves = self._wave_seconds
        if not waves:
            return {"waves": 0, "candidates": 0, "total_s": 0.0, "mean_s": 0.0, "max_s": 0.0}
        return {
            "waves": len(waves),
            "candidates": sum(self._wave_sizes),
            "total_s": sum(waves),
            "mean_s": sum(waves) / len(waves),
            "max_s": max(waves),
        }
