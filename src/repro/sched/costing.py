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

On top of that cache, each scheduler run keeps a memo keyed on (job type,
partition shape, replan?): a key is sent to the service once, and every
later ask is answered from the memo.  So a scheduler never re-searches a key
it has scored, even after the service evicts that key's cache entry.

The costing layer also keeps the request-statistics ledger the scheduler
report is built from: cold searches vs. warm-started/cached replans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.plan import ExecutionPlan
from ..core.search import SearchConfig
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
    """One scored (job, partition) placement option: the plan the service
    served for the job on the partition, and its cost.  The search problem
    behind the plan stays with the service, which holds its recently used
    problems, so the placed job's background session reuses it."""

    job: Job
    partition: Partition
    plan: Optional[ExecutionPlan]
    seconds_per_iteration: float
    feasible: bool
    stats: Optional[RequestStats] = None
    """How the plan service served :attr:`plan` (``None`` when no allocation
    fits).  A candidate the costing memo answered carries a hit-labelled copy
    of the stats of the request that filled the memo entry: the service cache
    hit it replaces."""

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
    """Plan-service front end of the scheduler, with a memo and a stats ledger."""

    def __init__(
        self,
        service: PlanService,
        search: SearchConfig,
        replan_search: SearchConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.search = search
        self.replan_search = replan_search
        # (job planning identity, partition shape, replan?) → the scored
        # result and a hit-labelled copy of the stats of the request that
        # filled it.  Identical keys pose byte-identical planning problems, so
        # the memo answers as the service's exact-key cache would, without
        # the round trip (fingerprinting, locks, response assembly) and even
        # after the service has evicted the entry.
        self._memo: Dict[
            tuple, Tuple[Optional[ExecutionPlan], float, bool, Optional[RequestStats]]
        ] = {}
        self.candidates_scored = 0
        self._n_waves = 0
        self._cold: List[RequestStats] = []
        self._replan: List[RequestStats] = []
        self._wave_seconds: List[float] = []
        # The service may be shared across several schedulers/benchmark runs;
        # this baseline turns its cumulative counters into per-run deltas.
        self._stats_baseline = service.stats.snapshot()
        self.registry = registry if registry is not None else get_registry()
        self._m_decision = self.registry.histogram(
            "sched_decision_seconds",
            "Plan-service latency of one decision wave that missed the costing memo",
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
        )

    @staticmethod
    def _is_replan(job: Job) -> bool:
        return job.first_started_at is not None

    def _memo_key(self, job: Job, partition: Partition) -> tuple:
        return (job.spec.planning_key, partition.shape, self._is_replan(job))

    def score(self, pairs: Sequence[Tuple[Job, Partition]]) -> List[Candidate]:
        """Score one *wave* of candidates; infeasible/failed ones stay in place.

        One call is one wave — policies batch every candidate of a scheduling
        decision into a single call.  Each (job type, partition shape,
        replan?) key goes to the plan service once per scheduler run: the
        first wave that holds it sends it once, however often it repeats
        there, and every later ask is answered from the memo with a
        hit-labelled copy of the filling request's stats.  Requests are
        served one after another on this thread, and every miss is
        warm-started only from entries cached before the wave began.  The
        returned list is positional.
        """
        if not pairs:
            return []
        self._n_waves += 1
        self.candidates_scored += len(pairs)
        self._m_candidates.inc(len(pairs))
        memo = self._memo
        keys = [self._memo_key(job, partition) for job, partition in pairs]
        fresh: Dict[tuple, Tuple[Job, Partition]] = {}
        for key, pair in zip(keys, pairs):
            if key not in memo and key not in fresh:
                fresh[key] = pair
        served = self._serve(fresh) if fresh else {}
        out: List[Candidate] = []
        for key, (job, partition) in zip(keys, pairs):
            plan, cost, feasible, stats = memo[key]
            if key in served:
                # The key's first candidate carries the request's own stats.
                stats = served.pop(key)
            elif stats is not None and key[2]:
                # A memo answer stands for a service cache hit, which the
                # ledger counts among replans only (key[2] is replan?).
                self._replan.append(stats)
            out.append(Candidate(job, partition, plan, cost, feasible, stats))
        return out

    def _serve(self, fresh: Dict[tuple, Tuple[Job, Partition]]) -> Dict[tuple, RequestStats]:
        """Send a wave's memo misses to the service and enter the answers in
        the memo; returns the request stats of each key the service answered."""
        wave_started = time.perf_counter()
        # Warm starts see only what was cached before the wave began.
        wave_start_puts = self.service.cache.puts
        served: Dict[tuple, RequestStats] = {}
        answers = []
        # The wave span is the root of each decision's causal tree: every
        # plan-request span (and its search-chain spans) hangs beneath it.
        with get_tracer().start_span(
            "decision wave",
            category="sched",
            args={"candidates": len(fresh)},
        ) as wave_span:
            for key, (job, partition) in fresh.items():
                try:
                    response = self.service.plan(
                        self._request(job, partition),
                        warm_start_before=wave_start_puts,
                    )
                except ValueError:
                    # No admissible allocation for some call on this partition
                    # (e.g. the model cannot fit at any parallelization) — the
                    # candidate is simply infeasible, not an error.
                    stats = None
                    entry = (None, float("inf"), False, None)
                else:
                    stats = served[key] = response.stats
                    self._record(job, stats)
                    entry = (
                        response.plan,
                        response.cost,
                        response.feasible and response.cost > 0,
                        RequestStats(fingerprint=stats.fingerprint, cache_hit=True),
                    )
                self._memo[key] = entry
                answers.append((job, partition, entry, stats))
            wave_seconds = time.perf_counter() - wave_started
            wave_span.set(wave_seconds=wave_seconds)
        get_ledger().record(
            "decision_wave",
            wave_seconds=wave_seconds,
            candidates=[
                {
                    "job": job.spec.name,
                    "partition": partition.describe(),
                    "cost": cost,
                    "feasible": feasible,
                    "outcome": stats.outcome if stats else "infeasible",
                    "fingerprint": stats.fingerprint if stats else None,
                }
                for job, partition, (_plan, cost, feasible, _hit), stats in answers
            ],
        )
        self._wave_seconds.append(wave_seconds)
        self._m_decision.observe(wave_seconds)
        return served

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
        """Decision waves and the plan-service time they blocked on.

        One wave is one :meth:`score` call — all candidate costings of one
        scheduling decision; perfbench reports the count as
        ``sched.costing.waves``.  ``service_waves`` counts the waves that
        sent the service at least one request; ``total_s``/``mean_s``/
        ``max_s`` summarise their wall-clock time.  A wave the memo answers
        whole sends nothing and is not timed.
        """
        seconds = self._wave_seconds
        return {
            "waves": self._n_waves,
            "candidates": self.candidates_scored,
            "service_waves": len(seconds),
            "total_s": sum(seconds),
            "mean_s": sum(seconds) / len(seconds) if seconds else 0.0,
            "max_s": max(seconds, default=0.0),
        }
