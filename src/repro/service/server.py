"""Plan server: cached, warm-started plan search on the caller's thread.

The :class:`PlanService` turns the one-shot
:func:`~repro.core.search.search_execution_plan` into a long-lived service:

* requests are fingerprinted (:mod:`repro.service.fingerprint`) and served
  from the :class:`~repro.service.cache.PlanCache` when an identical request
  was solved before — including a duplicate earlier in the same wave;
* cache misses are searched on the calling thread before
  :meth:`PlanService.submit` returns its (already finished) future;
* misses are warm-started from the most similar cached plan of the same
  fingerprint family (:mod:`repro.service.warm_start`).  A decision wave
  passes the cache's put count from before its first request as
  ``warm_start_before``, so each candidate is seeded from the cache as it
  stood when the wave began and candidates never seed each other;
* every response carries per-request statistics (hit/miss, warm vs cold,
  search time) and the service aggregates them.

The search is pure Python and holds the GIL, so a worker pool would overlap
nothing; serving inline keeps every outcome independent of thread timing.
The service stays safe to share between several client threads.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster.hardware import ClusterSpec
from ..core.call_cost import CallCostTable
from ..core.dataflow import DataflowGraph
from ..core.estimator import RuntimeEstimator
from ..core.plan import ExecutionPlan
from ..core.pruning import PruneConfig, _OptionTable
from ..core.search import (
    MCMCSearcher,
    SearchConfig,
    SearchProblem,
    SearchResult,
    SearchSession,
)
from ..core.workload import RLHFWorkload
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.provenance import get_ledger
from ..obs.tracing import SpanContext, get_tracer
from .cache import PlanCache, PlanCacheEntry
from .fingerprint import WorkloadFingerprint, fingerprint_request
from .warm_start import adapt_plan, select_warm_start

__all__ = [
    "PlanRequest",
    "RequestStats",
    "PlanResponse",
    "ServiceStats",
    "SessionStatus",
    "PlanSession",
    "PlanService",
]


@dataclass(frozen=True)
class PlanRequest:
    """One planning request: the full search problem."""

    graph: DataflowGraph
    workload: RLHFWorkload
    cluster: ClusterSpec
    search: SearchConfig = field(default_factory=SearchConfig)
    prune: PruneConfig = field(default_factory=PruneConfig)

    def fingerprint(self) -> WorkloadFingerprint:
        """Stable identity of this request (exact key + family key)."""
        return fingerprint_request(
            self.graph, self.workload, self.cluster, self.search, self.prune
        )


@dataclass(frozen=True)
class RequestStats:
    """How one request was served."""

    fingerprint: str
    cache_hit: bool
    warm_started: bool = False
    dedup_joined: bool = False  # always False; kept for callers that read it
    queue_seconds: float = 0.0  # always 0.0; kept for callers that read it
    search_seconds: float = 0.0
    init_seconds: float = 0.0
    """Wall-clock seconds the search spent choosing its chain start
    (:attr:`~repro.core.search.SearchResult.init_seconds`)."""
    total_seconds: float = 0.0
    seeded_from: Optional[str] = None
    """Cache key of the entry that warm-started this search (``None`` when
    the search started cold or was a hit)."""

    @property
    def outcome(self) -> str:
        """The canonical outcome label: ``hit``/``warm``/``cold``."""
        if self.cache_hit:
            return "hit"
        return "warm" if self.warm_started else "cold"


@dataclass(frozen=True)
class PlanResponse:
    """A served plan plus provenance.

    ``peak_memory_bytes`` is the estimator's MaxMem of the served plan;
    ``feasible`` is that peak compared against the request cluster's
    per-device capacity.
    Schedulers use it to reject (job, partition) candidates whose best plan
    still OOMs.
    """

    plan: ExecutionPlan
    cost: float
    result: SearchResult
    stats: RequestStats
    peak_memory_bytes: float
    feasible: bool = True
    problem: Optional[SearchProblem] = field(default=None, repr=False, compare=False)
    """The search problem a miss was searched on, when the request was
    submitted with ``keep_problem=True`` (else ``None``, and always for a
    hit).  The service holds problems only while a search or session does,
    so a caller that will pose the same problem again — a scheduler opening
    the placed job's background session — keeps it alive through this
    reference.  Off by default: a client keeping many responses would keep
    their problems and estimators too."""


@dataclass
class ServiceStats:
    """Aggregate counters of a :class:`PlanService`."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    warm_starts: int = 0
    dedup_joins: int = 0  # always 0; kept for callers that read it
    problem_builds: int = 0
    """Searches and sessions that built a new :class:`SearchProblem`."""
    problem_reuses: int = 0
    """Searches and sessions that reused the live problem of an earlier one."""
    estimator_reuses: int = 0
    """Estimator lookups that found a cached estimator.  Only problem builds
    look one up: a reused problem brings its own estimator."""
    sessions_started: int = 0
    """Online (pollable) search sessions opened via :meth:`start_session`."""
    session_polls: int = 0
    """Slices consumed across all online sessions."""
    cache_refreshes: int = 0
    """Cached entries replaced because an online session beat their cost."""
    search_seconds: float = 0.0
    """Summed :attr:`RequestStats.search_seconds`: initialisation plus chain
    compute, for blocking searches and stopped sessions alike."""
    init_seconds: float = 0.0
    """Summed :attr:`RequestStats.init_seconds` of the searches served."""
    call_shapes_priced: int = 0
    """Call times computed by the service's estimators: misses of its shared
    :class:`~repro.core.call_cost.CallCostTable`, not lookups."""

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from the cache."""
        return self.cache_hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "ServiceStats":
        """Copy of the counters (the live object keeps mutating)."""
        return dataclasses.replace(self)

    def delta(self, baseline: "ServiceStats") -> "ServiceStats":
        """Field-wise difference: this run's share of shared-service counters.

        ``live.snapshot().delta(baseline)`` returns a new :class:`ServiceStats` whose derived ``hit_rate`` is
        recomputed from the delta counters — the per-run view schedulers and
        benchmarks report when several runs share one service.
        """
        return ServiceStats(
            **{
                spec.name: getattr(self, spec.name) - getattr(baseline, spec.name)
                for spec in dataclasses.fields(self)
            }
        )

    def to_dict(self) -> Dict[str, float]:
        """Machine-readable form of the counters (benchmarks, schedulers)."""
        data: Dict[str, float] = dataclasses.asdict(self)
        data["hit_rate"] = self.hit_rate
        return data


@dataclass(frozen=True)
class SessionStatus:
    """Progress report of one :meth:`PlanSession.poll`."""

    session_id: str
    fingerprint: str
    best_cost: float
    initial_cost: float
    n_iterations: int
    n_polls: int
    done: bool
    improved: bool
    """Whether this poll lowered the session's best cost."""
    cache_refreshed: bool
    """Whether this poll's improvement replaced the cached entry."""
    search_seconds: float
    """Compute seconds consumed so far: initialisation plus the chains'
    summed slice time (not session age)."""


class PlanSession:
    """A registered online search session of a :class:`PlanService`.

    Wraps a :class:`~repro.core.search.SearchSession` with the service's
    bookkeeping: every improving poll writes the session's current best back
    to the plan cache (see :meth:`PlanCache.refresh`), polls and refreshes
    are counted in :class:`ServiceStats`, and :meth:`stop` settles the
    session into an ordinary :class:`PlanResponse`.  Obtain instances via
    :meth:`PlanService.start_session`; thread-safe.
    """

    def __init__(
        self,
        service: "PlanService",
        session_id: str,
        request: PlanRequest,
        fingerprint: WorkloadFingerprint,
        session: SearchSession,
        estimator: RuntimeEstimator,
        warm_started: bool = False,
        seeded_from: Optional[str] = None,
    ) -> None:
        self.service = service
        self.session_id = session_id
        self.request = request
        self.fingerprint = fingerprint
        self.session = session
        self.estimator = estimator
        self.warm_started = warm_started
        self.seeded_from = seeded_from
        self.winning_poll_context: Optional[SpanContext] = None
        """Span context of the most recent *improving* poll — what a
        scheduler-side plan swap grafts its span under, closing the causal
        loop from the swap back to the slice that found the winning plan."""
        self._lock = threading.Lock()
        self._closed = False
        self._final: Optional[PlanResponse] = None

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """Whether every chain exhausted its budgets (polls become no-ops)."""
        return self.session.done

    @property
    def problem(self) -> SearchProblem:
        """The service-shared search problem this session searches."""
        return self.session.searcher.problem

    @property
    def closed(self) -> bool:
        return self._closed

    def best_so_far(self) -> "Tuple[Optional[ExecutionPlan], float]":
        """Current merged best (plan, cost) — readable at any time."""
        return self.session.best_so_far()

    def status(self) -> SessionStatus:
        """Current progress without consuming any budget."""
        with self._lock:
            return self._status(improved=False, cache_refreshed=False)

    def _status(self, improved: bool, cache_refreshed: bool) -> SessionStatus:
        session = self.session
        return SessionStatus(
            session_id=self.session_id,
            fingerprint=self.fingerprint.key,
            best_cost=session.best_cost,
            initial_cost=session.initial_cost,
            n_iterations=session.n_iterations,
            n_polls=session.n_polls,
            done=session.done,
            improved=improved,
            cache_refreshed=cache_refreshed,
            search_seconds=session.init_seconds
            + sum(s.wall_seconds for s in session.states),
        )

    def poll(
        self,
        max_iterations: Optional[int] = None,
        time_budget_s: Optional[float] = None,
    ) -> SessionStatus:
        """Advance the session by one slice; write improvements to the cache."""
        with self._lock:
            if self._closed:
                raise RuntimeError(f"session {self.session_id} has been stopped")
            with get_tracer().start_span(
                "session poll",
                category="service",
                args={
                    "session_id": self.session_id,
                    "fingerprint": self.fingerprint.key,
                },
            ) as poll_span:
                progress = self.session.poll(max_iterations, time_budget_s)
                poll_span.set(
                    improved=progress.improved,
                    best_cost=progress.best_cost,
                    new_iterations=progress.new_iterations,
                )
                if progress.improved and poll_span.context is not None:
                    self.winning_poll_context = poll_span.context
            refreshed = False
            if progress.improved:
                refreshed = self.service._session_write_back(self)
            service = self.service
            with service._lock:
                service.stats.session_polls += 1
                service._count_priced()
            service._m_session_polls.inc()
            return self._status(improved=progress.improved, cache_refreshed=refreshed)

    def stop(self) -> PlanResponse:
        """Finish the session: final cache write-back and a settled response.

        Idempotent — repeated stops return the same response.  The response's
        ``search_seconds`` bill the compute actually consumed — initialisation
        plus the slices — not the session's wall-clock age (sessions idle
        between polls), so they add up with blocking searches' times.
        """
        with self._lock:
            if self._final is not None:
                return self._final
            result = self.session.stop()
            self.service._session_write_back(self)
            peak = self.estimator.max_memory(result.best_plan).max_bytes
            search_seconds = result.init_seconds + sum(result.chain_wall_seconds)
            service = self.service
            with service._lock:
                service.stats.search_seconds += search_seconds
                service.stats.init_seconds += result.init_seconds
                service._count_priced()
            stats = RequestStats(
                fingerprint=self.fingerprint.key,
                cache_hit=False,
                warm_started=self.warm_started,
                search_seconds=search_seconds,
                init_seconds=result.init_seconds,
                total_seconds=result.elapsed_seconds,
                seeded_from=self.seeded_from,
            )
            self._final = PlanResponse(
                plan=result.best_plan,
                cost=result.best_cost,
                result=result,
                stats=stats,
                peak_memory_bytes=peak,
                feasible=service._fits_memory(peak, self.request.cluster),
            )
            self._closed = True
            return self._final


class PlanService:
    """Planner-as-a-service on top of :mod:`repro.core.search`.

    Parameters
    ----------
    max_workers:
        Ignored: every request is served on the caller's thread.  Still
        validated (``>= 1``) for callers that pass it.
    cache_capacity:
        Size of the service's in-memory LRU :class:`PlanCache`.
    warm_start:
        Whether cache misses are seeded from the most similar cached plan of
        the same fingerprint family.
    estimator_cache_size:
        How many :class:`~repro.core.estimator.RuntimeEstimator` instances to
        keep (LRU, keyed by the graph/workload/cluster identity).  Requests
        that pose the same estimation problem — including
        differently-budgeted searches over one workload — share a single
        estimator, so its memoised per-call and per-edge costs amortise
        across requests.  Searches and sessions that pose the same search
        problem (equal graph, workload, cluster and prune config) share one
        :class:`~repro.core.search.SearchProblem` while any of them is alive;
        a problem is held weakly, so it needs no size limit.  Problems are
        built from one compiled option table per (cluster, prune) content,
        kept for the service's lifetime: calls of equal content (call type,
        model, batch size) in any graph or workload on that cluster share
        one option list, its proposal index and its greedy candidates.  All the
        service's estimators share one
        :class:`~repro.core.call_cost.CallCostTable`, so a call shape is
        priced once per service, not once per request: calls of any
        request, graph or cluster size that pose the same pricing problem
        (call type, model, call workload, per-node hardware) reuse its
        times.  The table clears itself at ``_MAX_CALL_COSTS`` entries
        (65,536); its values are pure, so that only forces recomputation.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` this service reports
        into: request latency histogram labeled by outcome
        (``hit``/``cold``/``warm``), cache hit/miss counters and lazily
        collected eval-cache gauges.  Defaults to the process-global
        registry.

    The service is a context manager; :meth:`close` stops open sessions.
    """

    def __init__(
        self,
        max_workers: int = 1,
        cache_capacity: int = 128,
        warm_start: bool = True,
        estimator_cache_size: int = 8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if estimator_cache_size < 1:
            raise ValueError(
                f"estimator_cache_size must be >= 1, got {estimator_cache_size}"
            )
        self.cache = PlanCache(capacity=cache_capacity)
        self.warm_start = warm_start
        self.stats = ServiceStats()
        self._sessions: Dict[str, PlanSession] = {}
        self._session_counter = 0
        self._estimators: "OrderedDict[str, RuntimeEstimator]" = OrderedDict()
        self._call_costs = CallCostTable()
        self._estimator_cache_size = estimator_cache_size
        self._problems: "weakref.WeakValueDictionary[str, SearchProblem]" = (
            weakref.WeakValueDictionary()
        )
        self._option_tables: Dict[str, _OptionTable] = {}
        self._lock = threading.RLock()
        self._closed = False
        self._log = get_logger("service")
        self.registry = registry if registry is not None else get_registry()
        self._m_requests = self.registry.counter(
            "service_requests_total",
            "Plan requests by outcome (hit/cold/warm)",
            labels=("outcome",),
        )
        self._m_latency = self.registry.histogram(
            "service_request_seconds",
            "Request latency (submit to response) by outcome",
            labels=("outcome",),
        )
        self._m_search_seconds = self.registry.counter(
            "service_search_seconds_total", "Wall-clock seconds spent in plan search"
        )
        self._m_sessions = self.registry.counter(
            "service_sessions_total", "Online search sessions started"
        )
        self._m_session_polls = self.registry.counter(
            "service_session_polls_total", "Online search session slices consumed"
        )
        self._m_cache_refreshes = self.registry.counter(
            "service_cache_refreshes_total",
            "Cache entries replaced by improved online-session plans",
        )
        self._collector = self.registry.register_collector(self._collect_gauges)

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: PlanRequest,
        warm_start_before: Optional[int] = None,
        keep_problem: bool = False,
    ) -> "Future[PlanResponse]":
        """Serve ``request`` on the calling thread; returns a finished future.

        Hits are answered from the cache and misses are searched before this
        returns; a search error (e.g. ``ValueError`` when no allocation fits)
        is set on the future.  ``warm_start_before`` limits the warm start to
        cache entries put before that value of :attr:`PlanCache.puts`.
        ``keep_problem`` attaches a miss's search problem to the response
        (:attr:`PlanResponse.problem`) for a caller that will pose it again.
        """
        if self._closed:
            raise RuntimeError("PlanService has been shut down")
        fingerprint = request.fingerprint()
        submitted_at = time.perf_counter()
        with self._lock:
            self.stats.requests += 1
            entry = self.cache.get(fingerprint.key)
            if entry is None:
                self.stats.cache_misses += 1
            else:
                self.stats.cache_hits += 1
        future: "Future[PlanResponse]" = Future()
        with get_tracer().start_span(
            "plan request",
            category="service",
            args={"fingerprint": fingerprint.key},
        ) as request_span:
            try:
                if entry is None:
                    response = self._search(
                        request, fingerprint, submitted_at, warm_start_before, keep_problem
                    )
                else:
                    response = self._serve_hit(entry, request, fingerprint, submitted_at)
            except Exception as exc:  # noqa: BLE001 — delivered through the future
                future.set_exception(exc)
                return future
            request_span.set(
                outcome=response.stats.outcome,
                cost=response.cost,
                seeded_from=response.stats.seeded_from,
            )
        future.set_result(response)
        return future

    def plan(self, request: PlanRequest) -> PlanResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result()

    # ------------------------------------------------------------------ #
    # Online sessions
    # ------------------------------------------------------------------ #
    def start_session(
        self,
        request: PlanRequest,
        slice_iterations: Optional[int] = None,
        slice_time_s: Optional[float] = None,
    ) -> PlanSession:
        """Open a resumable background search for ``request``.

        Unlike :meth:`submit`, nothing blocks: the returned
        :class:`PlanSession` consumes its budgets one :meth:`PlanSession.poll`
        at a time, its :meth:`~PlanSession.best_so_far` is readable between
        polls, and every improving poll refreshes the plan cache for the
        session's fingerprint.  The session is seeded exactly like a blocking
        request — from the exact cached entry (if any) plus the family
        warm-start — so polling starts from the best plan the service already
        knows.
        """
        if self._closed:
            raise RuntimeError("PlanService has been shut down")
        fingerprint = request.fingerprint()
        exact = self.cache.peek(fingerprint.key)
        searcher, seeded_from = self._searcher_for(
            request, fingerprint, [exact.plan] if exact is not None else []
        )
        session = SearchSession(
            searcher,
            slice_iterations=slice_iterations,
            slice_time_s=slice_time_s,
        ).start()
        with self._lock:
            self._session_counter += 1
            session_id = f"session-{self._session_counter}"
            handle = PlanSession(
                service=self,
                session_id=session_id,
                request=request,
                fingerprint=fingerprint,
                session=session,
                estimator=searcher.estimator,
                warm_started=seeded_from is not None,
                seeded_from=seeded_from,
            )
            self._sessions[session_id] = handle
            self.stats.sessions_started += 1
            self._count_priced()
        get_ledger().record(
            "plan_request",
            fingerprint=fingerprint.key,
            outcome="session",
            session_id=session_id,
            exact_seed=exact is not None,
            seeded_from=seeded_from,
        )
        self._m_sessions.inc()
        self._log.debug(
            "opened online session %s", session_id,
            extra={"fingerprint": fingerprint.key, "session_id": session_id},
        )
        return handle

    def get_session(self, session_id: str) -> PlanSession:
        """Look up a live session by id (:class:`KeyError` when unknown)."""
        with self._lock:
            return self._sessions[session_id]

    def poll_session(self, session_id: str) -> SessionStatus:
        """Advance a registered session by one slice."""
        return self.get_session(session_id).poll()

    def stop_session(self, session_id: str) -> PlanResponse:
        """Stop and unregister a session; returns its settled response."""
        with self._lock:
            handle = self._sessions.pop(session_id)
        return handle.stop()

    @property
    def active_sessions(self) -> List[str]:
        """Ids of the currently registered online sessions."""
        with self._lock:
            return list(self._sessions)

    def _session_write_back(self, handle: PlanSession) -> bool:
        """Refresh the cache when a session's current best beats the entry."""
        result = handle.session.result()
        peak = handle.estimator.max_memory(result.best_plan).max_bytes
        entry = PlanCacheEntry.from_search_result(handle.fingerprint, result, peak)
        if not self.cache.refresh(entry):
            return False
        with self._lock:
            self.stats.cache_refreshes += 1
        self._m_cache_refreshes.inc()
        return True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _searcher_for(
        self,
        request: PlanRequest,
        fingerprint: WorkloadFingerprint,
        seed_plans: List[ExecutionPlan],
        warm_start_before: Optional[int] = None,
    ) -> Tuple[MCMCSearcher, Optional[str]]:
        """A searcher on the request's shared problem and the key of the cache
        entry that warm-started it (``None`` when none did).

        The searcher starts from the best of the greedy plan, ``seed_plans``
        and, with warm starts on, the most similar cached plan of the family
        (limited to entries put before ``warm_start_before``).
        """
        problem = self._problem_for(request, fingerprint)
        seeded_from: Optional[str] = None
        if self.warm_start:
            entry = select_warm_start(self.cache, fingerprint, warm_start_before)
            if entry is not None:
                warm_plan = adapt_plan(
                    entry, request.graph, request.cluster, problem.options
                )
                if warm_plan is not None:
                    seed_plans = seed_plans + [warm_plan]
                    seeded_from = entry.key
        searcher = MCMCSearcher(
            problem=problem, config=request.search, seed_plans=seed_plans
        )
        return searcher, seeded_from

    def _problem_for(
        self, request: PlanRequest, fingerprint: WorkloadFingerprint
    ) -> SearchProblem:
        """The live problem of an earlier search or session, or a new one.

        A problem is a pure function of its key, so sharing it changes no
        outcome; it lives exactly as long as a searcher holds it.
        """
        key = fingerprint.problem_key
        # Built under the lock, so racing threads never build one twice (the
        # build is pure Python and holds the GIL, so they would not overlap).
        with self._lock:
            problem = self._problems.get(key)
            if problem is not None:
                self.stats.problem_reuses += 1
                return problem
            table = self._option_tables.get(fingerprint.option_table_key)
            if table is None:
                table = _OptionTable(request.cluster, request.prune)
                self._option_tables[fingerprint.option_table_key] = table
            problem = SearchProblem(
                request.graph,
                request.workload,
                request.cluster,
                estimator=self._estimator_for(request, fingerprint),
                prune=request.prune,
                table=table,
            )
            self._problems[key] = problem
            self.stats.problem_builds += 1
        return problem

    def _estimator_for(
        self, request: PlanRequest, fingerprint: WorkloadFingerprint
    ) -> RuntimeEstimator:
        """One shared fast-path estimator per (graph, workload, cluster).

        Searches that pose the same estimation problem (identical or
        differently-budgeted requests over one workload) reuse the memoised
        per-call and per-edge costs instead of re-deriving them from scratch.
        Called with the service lock held (by :meth:`_problem_for`).
        """
        key = fingerprint.estimator_key
        estimator = self._estimators.get(key)
        if estimator is not None:
            self._estimators.move_to_end(key)
            self.stats.estimator_reuses += 1
            return estimator
        estimator = RuntimeEstimator(
            request.graph, request.workload, request.cluster,
            call_costs=self._call_costs,
        )
        self._estimators[key] = estimator
        while len(self._estimators) > self._estimator_cache_size:
            self._estimators.popitem(last=False)
        return estimator

    def _serve_hit(
        self,
        entry: PlanCacheEntry,
        request: PlanRequest,
        fingerprint: WorkloadFingerprint,
        submitted_at: float,
    ) -> PlanResponse:
        result = entry.to_search_result()
        stats = RequestStats(
            fingerprint=fingerprint.key,
            cache_hit=True,
            total_seconds=time.perf_counter() - submitted_at,
        )
        response = PlanResponse(
            plan=result.best_plan,
            cost=result.best_cost,
            result=result,
            stats=stats,
            peak_memory_bytes=entry.peak_memory_bytes,
            feasible=self._fits_memory(entry.peak_memory_bytes, request.cluster),
        )
        get_ledger().record(
            "plan_request",
            fingerprint=fingerprint.key,
            outcome="hit",
            cost=response.cost,
        )
        self._m_requests.labels(outcome="hit").inc()
        self._m_latency.labels(outcome="hit").observe(stats.total_seconds)
        return response

    def _count_priced(self) -> None:
        """Bring :attr:`ServiceStats.call_shapes_priced` up to date.  Called
        with the service lock held after work that may price call shapes, so
        the pricing path itself carries no service counter."""
        self.stats.call_shapes_priced = self._call_costs.priced

    @staticmethod
    def _fits_memory(peak_memory_bytes: float, cluster: ClusterSpec) -> bool:
        """Whether a plan's estimated MaxMem fits the per-device capacity."""
        return peak_memory_bytes < cluster.device_memory_bytes

    def _collect_gauges(self) -> None:
        """Publish lazily collected gauges (run by registry snapshots/exports).

        The estimator's eval cache counts hits/misses on the search hot path
        with plain attribute increments; this collector sums those private
        counters across the service's cached estimators and publishes them as
        gauges — observability without touching the hot loop.
        """
        with self._lock:
            estimators = list(self._estimators.values())
            hit_rate = self.stats.hit_rate
        hits = sum(e.eval_cache_stats.hits for e in estimators)
        misses = sum(e.eval_cache_stats.misses for e in estimators)
        evictions = sum(e.eval_cache_stats.evictions for e in estimators)
        lookups = hits + misses
        self.registry.gauge(
            "service_cache_hit_ratio", "Plan-cache hit fraction of all requests"
        ).set(hit_rate)
        self.registry.gauge(
            "service_eval_cache_lookups", "Estimator eval-cache lookups (cached estimators)"
        ).set(lookups)
        self.registry.gauge(
            "service_eval_cache_hit_ratio", "Estimator eval-cache hit fraction"
        ).set(hits / lookups if lookups else 0.0)
        self.registry.gauge(
            "service_eval_cache_evictions", "Estimator eval-cache LRU evictions"
        ).set(evictions)

    def _search(
        self,
        request: PlanRequest,
        fingerprint: WorkloadFingerprint,
        submitted_at: float,
        warm_start_before: Optional[int],
        keep_problem: bool,
    ) -> PlanResponse:
        searcher, seeded_from = self._searcher_for(
            request, fingerprint, [], warm_start_before
        )
        warm_started = seeded_from is not None
        result = searcher.search()
        peak_memory_bytes = searcher.estimator.max_memory(result.best_plan).max_bytes
        self.cache.put(
            PlanCacheEntry.from_search_result(fingerprint, result, peak_memory_bytes)
        )
        finished_at = time.perf_counter()
        with self._lock:
            if warm_started:
                self.stats.warm_starts += 1
            self.stats.search_seconds += result.elapsed_seconds
            self.stats.init_seconds += result.init_seconds
            self._count_priced()
        total_seconds = finished_at - submitted_at
        outcome = "warm" if warm_started else "cold"
        get_ledger().record(
            "plan_request",
            fingerprint=fingerprint.key,
            outcome=outcome,
            seeded_from=seeded_from,
            cost=result.best_cost,
            initial_cost=result.initial_cost,
            search_seconds=result.elapsed_seconds,
        )
        self._m_requests.labels(outcome=outcome).inc()
        self._m_latency.labels(outcome=outcome).observe(total_seconds)
        self._m_search_seconds.inc(result.elapsed_seconds)
        self._log.debug(
            "served %s search in %.3fs (cost %.4f)",
            outcome,
            total_seconds,
            result.best_cost,
            extra={
                "fingerprint": fingerprint.key,
                "outcome": outcome,
                "search_seconds": result.elapsed_seconds,
            },
        )
        stats = RequestStats(
            fingerprint=fingerprint.key,
            cache_hit=False,
            warm_started=warm_started,
            search_seconds=result.elapsed_seconds,
            init_seconds=result.init_seconds,
            total_seconds=total_seconds,
            seeded_from=seeded_from,
        )
        return PlanResponse(
            plan=result.best_plan,
            cost=result.best_cost,
            result=result,
            stats=stats,
            peak_memory_bytes=peak_memory_bytes,
            feasible=self._fits_memory(peak_memory_bytes, request.cluster),
            problem=searcher.problem if keep_problem else None,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop accepting requests.

        Open online sessions are stopped and settled with a final cache
        write-back.
        """
        self._closed = True
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for handle in sessions:
            handle.stop()

    def close(self) -> None:
        """Shut the service down and unhook the metrics collector.

        Safe to call more than once.
        """
        self.shutdown()
        # Publish the final gauge values before unhooking the collector, so
        # snapshots taken after close still carry this service's last state.
        if self.registry.enabled:
            self._collect_gauges()
        self.registry.unregister_collector(self._collector)

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
