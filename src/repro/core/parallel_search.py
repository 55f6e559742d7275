"""Process-parallel execution of MCMC search chains.

The multi-chain search of :mod:`repro.core.search` runs ``n_chains``
*independent* Metropolis-Hastings chains — independent RNG streams, a full
wall-clock budget each, no shared mutable state.  That makes them perfect
process-parallel work: this module ships each chain to a worker process of a
:class:`concurrent.futures.ProcessPoolExecutor` and collects the per-chain
results, which the searcher then merges exactly as it would after running the
chains in-process.  Because a chain's outcome is a pure function of
``(problem, seed, chain index, iteration budget)`` as long as its time
budget does not cut it short, parallel and sequential execution produce
**bit-identical** best plans and costs for the same seeds whenever the
iteration budget binds (wall-clock timings differ, results do not; a
binding time budget is timing-dependent in *any* execution mode, sequential
reruns included).

Oversubscription is prevented by a :class:`CoreBudget` governor shared by
everything that burns CPU concurrently — the plan service's request pool and
every parallel search.  A search *asks* for one core per chain; the governor
grants what is actually free, and a grant below two cores makes the search
fall back to plain in-process execution (there is nothing to win).  Tiny
searches (sub-second budgets or a handful of iterations per chain) never
leave the calling thread either: forking, re-building the estimator and
pickling the option table costs more than it saves.

Knobs (environment variables, read once per process):

``REPRO_CORE_BUDGET``
    Total cores the global governor hands out (default: ``os.cpu_count()``).
``REPRO_PARALLEL_MIN_BUDGET_S``
    Minimum ``time_budget_s`` for ``parallel="auto"`` to leave the calling
    thread (default 1.0).
``REPRO_PARALLEL_MIN_ITERS``
    Minimum per-chain iteration budget for ``parallel="auto"`` to leave the
    calling thread (default 2000).
``REPRO_PARALLEL_START_METHOD``
    Multiprocessing start method for chain workers (``fork`` / ``forkserver``
    / ``spawn``; default: the platform default, i.e. ``fork`` on Linux).
    ``fork`` starts workers in ~tens of milliseconds; the workers never touch
    the parent's locks or service state (they unpickle a self-contained
    :class:`ChainProblem` and resolve already-imported modules through
    ``sys.modules``, avoiding the import lock), but processes forked from a
    heavily multithreaded parent can in principle inherit an unrelated lock
    mid-acquisition — set ``forkserver`` or ``spawn`` to trade start-up time
    for full isolation.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..cluster.hardware import ClusterSpec
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.tracing import SpanContext, SpanRecord, current_span
from .dataflow import DataflowGraph
from .plan import Allocation, ExecutionPlan
from .workload import RLHFWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .search import MCMCSearcher, SearchConfig

__all__ = [
    "CoreBudget",
    "GLOBAL_CORE_BUDGET",
    "ChainSpec",
    "ChainResult",
    "ChainState",
    "ChainProblem",
    "ParallelSearchRunner",
    "min_parallel_budget_s",
    "min_parallel_chain_iters",
]


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value >= 0 else default


def min_parallel_budget_s() -> float:
    """Smallest ``time_budget_s`` worth a process pool in ``auto`` mode."""
    return _env_float("REPRO_PARALLEL_MIN_BUDGET_S", 1.0)


def min_parallel_chain_iters() -> int:
    """Smallest per-chain iteration budget worth a process pool in ``auto`` mode."""
    return int(_env_float("REPRO_PARALLEL_MIN_ITERS", 2000))


_WORKER_TIMEOUT_MARGIN_S = 60.0
"""Grace period past a chain's wall-clock budget before its worker is
declared hung.  Every chain self-terminates at its deadline, so a result
that is this late means the worker never got to run (e.g. a process forked
from a multithreaded parent that inherited a held lock) — the runner then
abandons the pool and the searcher re-runs the chains in-process, bounding
the damage to one timeout instead of a forever-blocked request thread."""


# ---------------------------------------------------------------------- #
# Core-budget governor
# ---------------------------------------------------------------------- #
class CoreBudget:
    """Cooperative accounting of CPU cores across concurrent components.

    The governor does not pin or enforce anything — it is bookkeeping that
    lets independent thread pools and process pools agree not to spawn more
    CPU-bound workers than the machine has cores.  ``acquire`` grants
    *up to* the requested number of cores (whatever is free), or nothing at
    all when fewer than ``minimum`` are available, so callers can degrade to
    in-process execution instead of oversubscribing.
    """

    def __init__(self, total: Optional[int] = None) -> None:
        if total is None:
            total = int(_env_float("REPRO_CORE_BUDGET", 0.0)) or (os.cpu_count() or 1)
        if total < 1:
            raise ValueError(f"core budget must be >= 1, got {total}")
        self.total = int(total)
        self._in_use = 0
        self._lock = threading.Lock()

    @property
    def in_use(self) -> int:
        """Cores currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Cores not currently granted."""
        with self._lock:
            return self.total - self._in_use

    def acquire(self, want: int, minimum: int = 1) -> int:
        """Grant up to ``want`` free cores; 0 when fewer than ``minimum`` are free.

        Never blocks: concurrency is degraded, not queued — a denied caller
        runs the work on the thread it already has.
        """
        want = int(want)
        if want <= 0:
            return 0
        with self._lock:
            free = self.total - self._in_use
            granted = min(want, free)
            if granted <= 0 or granted < minimum:
                return 0
            self._in_use += granted
            return granted

    def release(self, n: int) -> None:
        """Return ``n`` previously granted cores."""
        if n <= 0:
            return
        with self._lock:
            self._in_use = max(0, self._in_use - int(n))

    @contextmanager
    def lease(self, want: int, minimum: int = 1) -> Iterator[int]:
        """``with budget.lease(n) as granted:`` — auto-releasing :meth:`acquire`."""
        granted = self.acquire(want, minimum=minimum)
        try:
            yield granted
        finally:
            self.release(granted)


GLOBAL_CORE_BUDGET = CoreBudget()
"""Default governor shared by plan services and parallel searches."""


# ---------------------------------------------------------------------- #
# Picklable chain work units
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChainSpec:
    """One chain's share of a search: which stream, how many proposals."""

    chain: int
    max_iterations: int


@dataclass
class ChainResult:
    """Outcome of one Metropolis-Hastings chain (picklable).

    ``best_plan``/``best_cost`` are the chain-local optimum; ``history``
    holds chain-local ``(iteration, elapsed_seconds, best_cost_so_far)``
    samples with iteration counting from 1 and elapsed measured from the
    chain's own start.  ``wall_seconds`` is the chain's wall-clock time and
    ``cpu_seconds`` its CPU time (``time.process_time`` delta), which differ
    once chains share cores.
    """

    chain: int
    best_plan: ExecutionPlan
    best_cost: float
    n_iterations: int
    n_accepted: int
    history: List[Tuple[int, float, float]] = field(default_factory=list)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    spans: List[SpanRecord] = field(default_factory=list)
    """Per-slice trace spans recorded while the chain ran (empty when
    tracing is off).  Workers record locally and ship them back here; the
    parent folds them into its tracer."""


@dataclass
class ChainState:
    """Resumable mid-flight snapshot of one Metropolis-Hastings chain (picklable).

    The searcher's :meth:`~repro.core.search.MCMCSearcher.advance_chain`
    consumes a slice of the chain's budgets and writes the outcome back here,
    so a chain can run in slices — on the calling thread or round-tripping
    through worker processes — and still produce exactly the chain one
    uninterrupted ``run_chain`` would have produced: the RNG travels *in* the
    state, iteration numbering picks up where the previous slice stopped, and
    wall/CPU seconds accumulate across slices.
    """

    chain: int
    max_iterations: int
    """The chain's **total** proposal budget (not a per-slice bound)."""
    rng: np.random.Generator
    current_plan: ExecutionPlan
    current_cost: float
    best_plan: ExecutionPlan
    best_cost: float
    n_iterations: int = 0
    n_accepted: int = 0
    history: List[Tuple[int, float, float]] = field(default_factory=list)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    done: bool = False
    """Set once the iteration or wall-clock budget is exhausted."""
    span_context: Optional[SpanContext] = None
    """Trace parent of this chain's slice spans.  Set at initialisation from
    the enclosing search span and refreshed per poll by the session, it is
    the explicit cross-process propagation channel: the context pickles with
    the state, so a slice advanced in a worker process still records spans
    under the right parent."""
    slice_spans: List[SpanRecord] = field(default_factory=list)
    """Spans recorded by advances since the consumer last drained them.
    Self-contained like the RNG: the list travels with the state through
    worker pickles, and the parent empties it after folding the spans into
    its tracer (so repeated round-trips never re-ship old spans)."""

    @property
    def remaining_iterations(self) -> int:
        """Proposals left in the chain's total budget."""
        return max(0, self.max_iterations - self.n_iterations)

    def drain_spans(self) -> List[SpanRecord]:
        """Hand over (and forget) the spans recorded since the last drain."""
        spans, self.slice_spans = self.slice_spans, []
        return spans

    def to_result(self) -> ChainResult:
        """The chain's outcome so far, in the merged-result format."""
        return ChainResult(
            chain=self.chain,
            best_plan=self.best_plan,
            best_cost=self.best_cost,
            n_iterations=self.n_iterations,
            n_accepted=self.n_accepted,
            history=list(self.history),
            wall_seconds=self.wall_seconds,
            cpu_seconds=self.cpu_seconds,
            spans=self.drain_spans(),
        )


@dataclass
class ChainProblem:
    """Everything a worker process needs to re-create the searcher.

    The estimator *object* is deliberately not shipped — its memo caches can
    be large and re-derive themselves during the chain — but its full
    configuration (``profiles``, ``use_cuda_graph``, ``use_cache``,
    ``cross_check``) is, so each worker rebuilds an *equivalent* estimator
    and scores proposals under exactly the caller's cost model.  (Custom
    estimator subclasses cannot be rebuilt this way; the searcher refuses to
    parallelize those and runs the chains in-process instead.)  The
    allocation options *are* shipped so workers skip the enumeration/pruning
    pass and, more importantly, propose from an identical,
    identically-ordered option table — a prerequisite for bit-identical
    RNG-driven proposals.
    """

    graph: DataflowGraph
    workload: RLHFWorkload
    cluster: ClusterSpec
    options: Dict[str, List[Allocation]]
    config: "SearchConfig"
    start_assignments: Dict[str, Allocation]
    start_plan_name: str
    start_cost: float
    profiles: Optional[Dict[str, object]] = None
    use_cuda_graph: bool = True
    use_cache: bool = True
    cross_check: bool = False
    span_context: Optional[SpanContext] = None
    """Trace context of the parent's search span.  Contextvars do not cross
    process boundaries, so the context rides in the problem; the rebuilt
    worker searcher adopts it as the parent of every chain span it starts."""

    @classmethod
    def for_searcher(
        cls, searcher: "MCMCSearcher", start_plan: ExecutionPlan, start_cost: float
    ) -> "ChainProblem":
        """The worker-side recipe for ``searcher``'s chains from ``start_plan``."""
        estimator = searcher.estimator
        return cls(
            graph=searcher.graph,
            workload=searcher.workload,
            cluster=searcher.cluster,
            options=searcher.options,
            config=searcher.config,
            start_assignments=dict(start_plan.assignments),
            start_plan_name=start_plan.name,
            start_cost=start_cost,
            profiles=getattr(estimator, "profiles", None),
            use_cuda_graph=getattr(estimator, "use_cuda_graph", True),
            use_cache=getattr(estimator, "use_cache", True),
            cross_check=getattr(estimator, "cross_check", False),
            span_context=current_span(),
        )

    def build_searcher(self) -> "MCMCSearcher":
        """Re-create the searcher inside a worker process.

        Under the ``fork`` start method the parent's modules are inherited,
        so the searcher class is resolved through ``sys.modules`` without
        touching the import machinery (a fork from a multithreaded parent
        must not wait on the import lock another thread might have held).
        Spawned workers import the module normally while unpickling this
        problem, before this method runs.
        """
        module = sys.modules.get("repro.core.search")
        if module is None:  # pragma: no cover - spawn/forkserver cold path
            from . import search as module  # deferred: search.py imports us
        from .estimator import RuntimeEstimator

        estimator = RuntimeEstimator(
            self.graph,
            self.workload,
            self.cluster,
            profiles=self.profiles,
            use_cuda_graph=self.use_cuda_graph,
            use_cache=self.use_cache,
            cross_check=self.cross_check,
        )
        searcher = module.MCMCSearcher(
            graph=self.graph,
            workload=self.workload,
            cluster=self.cluster,
            estimator=estimator,
            options=self.options,
            config=self.config,
        )
        searcher.span_parent = self.span_context
        return searcher

    def start_plan(self) -> ExecutionPlan:
        return ExecutionPlan(dict(self.start_assignments), name=self.start_plan_name)


_WORKER_SEARCHER: Optional["MCMCSearcher"] = None
_WORKER_START: Optional[Tuple[ExecutionPlan, float]] = None


def _init_chain_worker(problem: ChainProblem) -> None:
    """Process-pool initializer: build the searcher once per worker process."""
    global _WORKER_SEARCHER, _WORKER_START
    _WORKER_SEARCHER = problem.build_searcher()
    _WORKER_START = (problem.start_plan(), problem.start_cost)


def _run_chain_in_worker(spec: ChainSpec) -> ChainResult:
    """Run one chain on the worker's process-local searcher."""
    if _WORKER_SEARCHER is None or _WORKER_START is None:
        raise RuntimeError("chain worker used before initialization")
    start_plan, start_cost = _WORKER_START
    return _WORKER_SEARCHER.run_chain(
        spec.chain, start_plan, start_cost, spec.max_iterations
    )


def _advance_state_in_worker(
    state: ChainState,
    max_iterations: Optional[int],
    time_budget_s: Optional[float],
) -> ChainState:
    """Advance one checkpointed chain on the worker's process-local searcher.

    The state is self-contained (RNG included), so which worker advances
    which slice — or whether a slice runs in the parent process instead —
    never changes the chain's outcome.
    """
    if _WORKER_SEARCHER is None:
        raise RuntimeError("chain worker used before initialization")
    return _WORKER_SEARCHER.advance_chain(
        state,
        max_iterations=max_iterations,
        time_budget_s=time_budget_s,
    )


def _start_context() -> Optional[multiprocessing.context.BaseContext]:
    """Start method for chain workers: platform default unless overridden.

    ``REPRO_PARALLEL_START_METHOD`` selects ``fork``/``forkserver``/``spawn``;
    an unknown value falls back to the default (``None`` lets
    :class:`ProcessPoolExecutor` pick).
    """
    method = os.environ.get("REPRO_PARALLEL_START_METHOD", "").strip().lower()
    if not method:
        return None
    try:
        return multiprocessing.get_context(method)
    except ValueError:
        return None


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
class ParallelSearchRunner:
    """Dispatch the chains of one search onto a process pool.

    ``run`` returns the per-chain results in chain order, or ``None`` when
    the runner decided (or was forced by the governor / the OS) to stay
    in-process — the caller then executes the chains sequentially, which by
    construction yields the same merged result.
    """

    def __init__(
        self,
        core_budget: Optional[CoreBudget] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.core_budget = core_budget if core_budget is not None else GLOBAL_CORE_BUDGET
        self.max_workers = max_workers
        self.last_granted = 0
        self.last_error: Optional[BaseException] = None
        self._session_pool: Optional[ProcessPoolExecutor] = None
        self._session_workers = 0
        self._session_force = False
        self._session_time_budget_s = 0.0

    def run(
        self,
        searcher: "MCMCSearcher",
        specs: List[ChainSpec],
        start_plan: ExecutionPlan,
        start_cost: float,
        force: bool = False,
    ) -> Optional[List[ChainResult]]:
        """Execute ``specs`` on worker processes; ``None`` means "run it yourself".

        In the default (governed) mode the pool is sized by what the
        :class:`CoreBudget` actually grants, and fewer than two granted cores
        aborts the attempt.  ``force=True`` (``SearchConfig.parallel ==
        "process"``) always spawns one worker per chain — the governor is
        still charged for accounting, but cannot veto; benchmarks use this to
        measure scaling behaviour regardless of the machine's spare capacity.
        """
        n_chains = len(specs)
        if n_chains < 2:
            return None
        want = n_chains if self.max_workers is None else min(n_chains, self.max_workers)
        if force:
            workers = want
            granted = self.core_budget.acquire(want, minimum=0)
        else:
            granted = self.core_budget.acquire(want, minimum=2)
            if granted < 2:
                self.core_budget.release(granted)
                return None
            workers = granted
        self.last_granted = workers
        problem = ChainProblem.for_searcher(searcher, start_plan, start_cost)
        # A chain self-terminates at its wall-clock deadline, so any result
        # later than budget + margin means the worker is wedged, not slow.
        timeout = searcher.config.time_budget_s + _WORKER_TIMEOUT_MARGIN_S
        pool: Optional[ProcessPoolExecutor] = None
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_start_context(),
                initializer=_init_chain_worker,
                initargs=(problem,),
            )
            futures = [pool.submit(_run_chain_in_worker, spec) for spec in specs]
            results = [future.result(timeout=timeout) for future in futures]
        except (
            OSError,
            BrokenProcessPool,
            pickle.PicklingError,
            ImportError,
            FutureTimeoutError,
        ) as exc:
            # Sandboxes without fork/spawn, dead workers, an unpicklable
            # problem, or a hung worker: degrade to in-process execution
            # instead of failing (or blocking) the search.  Results are
            # identical either way.  The abandoned pool is shut down without
            # waiting so a wedged child cannot hold this thread hostage.
            self.last_error = exc
            get_logger("search").warning(
                "parallel search fell back to in-process execution: %s: %s",
                type(exc).__name__,
                exc,
            )
            get_registry().counter(
                "search_parallel_fallbacks_total",
                "Process-parallel searches degraded to in-process execution",
            ).inc()
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            return None
        finally:
            self.core_budget.release(granted)
        pool.shutdown(wait=True)
        return sorted(results, key=lambda r: r.chain)

    # ------------------------------------------------------------------ #
    # Persistent sessions (sliced chain advances for online re-planning)
    # ------------------------------------------------------------------ #
    @property
    def session_open(self) -> bool:
        """Whether a persistent worker pool is ready for sliced advances."""
        return self._session_pool is not None

    def open_session(
        self,
        searcher: "MCMCSearcher",
        start_plan: ExecutionPlan,
        start_cost: float,
        n_workers: Optional[int] = None,
        force: bool = False,
    ) -> bool:
        """Start a persistent worker pool for sliced chain advances.

        Unlike :meth:`run`, the pool outlives the call: the chains stay alive
        across polls as :class:`ChainState` checkpoints round-trip between
        the caller and the workers.  Cores are **not** held while the session
        idles between polls — every :meth:`advance_states` leases cores from
        the governor for just that slice, so a background session can never
        oversubscribe foreground searches.  Returns whether a pool is ready
        (``False`` means the caller should advance in-process).
        """
        if self._session_pool is not None:
            return True
        n_chains = max(1, int(searcher.config.n_chains))
        want = n_chains if self.max_workers is None else min(n_chains, self.max_workers)
        if n_workers is not None:
            want = min(want, max(1, int(n_workers)))
        problem = ChainProblem.for_searcher(searcher, start_plan, start_cost)
        try:
            self._session_pool = ProcessPoolExecutor(
                max_workers=want,
                mp_context=_start_context(),
                initializer=_init_chain_worker,
                initargs=(problem,),
            )
        except OSError as exc:  # pragma: no cover - sandboxes without fork
            self.last_error = exc
            return False
        self._session_workers = want
        self._session_force = force
        self._session_time_budget_s = searcher.config.time_budget_s
        return True

    def advance_states(
        self,
        states: List[ChainState],
        max_iterations: Optional[int] = None,
        time_budget_s: Optional[float] = None,
    ) -> Optional[List[ChainState]]:
        """Advance checkpointed chains one slice each on the session pool.

        Returns the advanced states (in input order), or ``None`` when this
        slice should run in-process instead: no session pool is open, the
        governor granted no cores for this poll (a temporary condition — try
        again next poll), or the pool died (permanent: the session is closed,
        :attr:`session_open` turns ``False``, and a fallback counter is
        bumped, mirroring :meth:`run`).
        """
        if self._session_pool is None or not states:
            return None
        want = min(len(states), self._session_workers)
        if self._session_force:
            granted = self.core_budget.acquire(want, minimum=0)
        else:
            granted = self.core_budget.acquire(want, minimum=1)
            if granted < 1:
                return None
        self.last_granted = max(granted, 1)
        slice_budget = (
            time_budget_s if time_budget_s is not None else self._session_time_budget_s
        )
        timeout = slice_budget + _WORKER_TIMEOUT_MARGIN_S
        try:
            futures = [
                self._session_pool.submit(
                    _advance_state_in_worker, state, max_iterations, time_budget_s
                )
                for state in states
            ]
            results = [future.result(timeout=timeout) for future in futures]
        except (
            OSError,
            BrokenProcessPool,
            pickle.PicklingError,
            ImportError,
            FutureTimeoutError,
        ) as exc:
            self.last_error = exc
            get_logger("search").warning(
                "search session fell back to in-process execution: %s: %s",
                type(exc).__name__,
                exc,
            )
            get_registry().counter(
                "search_parallel_fallbacks_total",
                "Process-parallel searches degraded to in-process execution",
            ).inc()
            self.close_session(wait=False)
            return None
        finally:
            self.core_budget.release(granted)
        return results

    def close_session(self, wait: bool = True) -> None:
        """Shut the persistent session pool down (idempotent)."""
        pool, self._session_pool = self._session_pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)
