"""MCMC-based execution plan search (Section 5.2 of the paper).

The searcher draws execution plans from the energy-based distribution
:math:`P(p) \\propto \\exp(-\\beta \\cdot cost(G_p))` with the
Metropolis-Hastings algorithm.  It starts from a greedy plan that minimises
the sum of per-call times (ignoring overlap and memory), proposes transitions
that reassign the device mesh, parallel strategy and micro-batch count of a
random function call, and keeps the lowest-cost plan ever visited.

Everything a search needs that does not depend on its seed or budget lives in
a :class:`SearchProblem`: each call's compiled options (option list, by-mesh
proposal index and greedy representatives), the search-space size and the
greedy start (computed once, on first use).  A problem is a pure function of
(graph, workload, cluster, prune) and its estimator, so searches and sessions
posing the same one share a single instance (the plan service keeps them in a
weak-valued map, and builds them from one option table per cluster and prune
config).

Proposals are scored through the estimator's incremental
:meth:`~repro.core.estimator.RuntimeEstimator.cost_delta` path (a proposal
changes exactly one call's allocation), which is cheap enough that a search
runs entirely on the calling thread.  ``SearchConfig.n_chains`` runs several
*independent* Metropolis-Hastings chains one after another: every chain
starts from the same best initial candidate, explores with its own RNG
stream, keeps its own running best (for the normalised acceptance
temperature) and receives the **full** wall-clock budget; the iteration
budget is split evenly across chains.  Whenever the *iteration* budget
binds, the best plan and cost are a pure function of the inputs and the
seed.  (A binding *time* budget makes any run timing-dependent — two runs
under machine load already differ — so time-bounded searches are
best-effort.)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.hardware import ClusterSpec
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.tracing import SpanContext, SpanRecord, current_span, get_tracer
from .dataflow import DataflowGraph
from .estimator import DEFAULT_OOM_PENALTY, RuntimeEstimator
from .plan import Allocation, ExecutionPlan
from .pruning import PruneConfig, _CallOptions, _mesh_key, _OptionTable, search_space_size
from .workload import RLHFWorkload

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SessionProgress",
    "SearchSession",
    "SearchProblem",
    "MCMCSearcher",
    "ChainSpec",
    "ChainResult",
    "ChainState",
    "search_execution_plan",
]


@dataclass(frozen=True)
class ChainSpec:
    """One chain's share of a search: which stream, how many proposals."""

    chain: int
    max_iterations: int


@dataclass
class ChainResult:
    """Outcome of one Metropolis-Hastings chain.

    ``best_plan``/``best_cost`` are the chain-local optimum; ``history``
    holds chain-local ``(iteration, elapsed_seconds, best_cost_so_far)``
    samples with iteration counting from 1 and elapsed measured from the
    chain's own start.  ``wall_seconds`` is the chain's wall-clock time and
    ``cpu_seconds`` its CPU time (``time.process_time`` delta).
    """

    chain: int
    best_plan: ExecutionPlan
    best_cost: float
    n_iterations: int
    n_accepted: int
    history: List[Tuple[int, float, float]] = field(default_factory=list)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0


@dataclass
class ChainState:
    """Resumable mid-flight snapshot of one Metropolis-Hastings chain.

    :meth:`MCMCSearcher.advance_chain` consumes a slice of the chain's
    budgets and writes the outcome back here, so a chain can run in slices
    and still produce exactly the chain one uninterrupted run would have
    produced: the RNG travels *in* the state, iteration numbering picks up
    where the previous slice stopped, and wall/CPU seconds accumulate across
    slices.
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
    the enclosing search span and refreshed per poll by the session, so a
    slice's span lands beneath the poll that ran it."""

    @property
    def remaining_iterations(self) -> int:
        """Proposals left in the chain's total budget."""
        return max(0, self.max_iterations - self.n_iterations)

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
        )


@dataclass(frozen=True)
class SearchConfig:
    """Hyper-parameters of the Metropolis-Hastings search.

    ``beta`` is the sampling temperature applied to the *normalised* cost
    (cost divided by the chain's best cost so far), which keeps acceptance
    rates comparable across experiment scales.  Each of the ``n_chains``
    chains stops after its share of ``max_iterations`` proposals (split
    evenly) or after ``time_budget_s`` wall-clock seconds of its own,
    whichever comes first.
    """

    beta: float = 8.0
    oom_penalty: float = DEFAULT_OOM_PENALTY
    max_iterations: int = 2000
    time_budget_s: float = 30.0
    seed: int = 0
    record_history: bool = True
    n_chains: int = 1
    """Number of independent Metropolis-Hastings chains.  Each chain uses its
    own RNG stream, an even share of the iteration budget and the **full**
    wall-clock budget; the search returns the best plan over all chains with
    merged history."""
    initial_plan: Optional[ExecutionPlan] = None
    """Optional warm-start hint: evaluated alongside the greedy plan and any
    seed plans, so the chain starts from the best available candidate.  The
    hint never hurts — the search result is at least as good as the hint's
    cost.  Excluded from workload fingerprints (see :mod:`repro.service`)."""

    def __post_init__(self) -> None:
        # Budget validation at construction: a bad budget would otherwise
        # fail deep in chain setup (or silently search nothing forever).
        # ``max_iterations=0`` stays legal on purpose — it is the documented
        # "evaluate the initial candidates only" budget.
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if not self.time_budget_s > 0:
            raise ValueError(
                f"time_budget_s must be > 0, got {self.time_budget_s}"
            )
        if self.n_chains < 1:
            raise ValueError(f"n_chains must be >= 1, got {self.n_chains}")


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best_plan: ExecutionPlan
    best_cost: float
    initial_plan: ExecutionPlan
    initial_cost: float
    n_iterations: int
    n_accepted: int
    elapsed_seconds: float
    """True wall-clock time of the whole search, including initial-candidate
    evaluation."""
    history: List[Tuple[int, float, float]] = field(default_factory=list)
    """``(iteration, chain_elapsed_seconds, best_cost_so_far)`` samples.
    Iterations number chains back to back (chain-major); elapsed times are
    chain-local (measured from each chain's own start)."""
    search_space: float = 0.0
    n_chains: int = 1
    cpu_seconds: float = 0.0
    """Summed per-chain CPU time (``time.process_time``)."""
    chain_wall_seconds: List[float] = field(default_factory=list)
    """Per-chain wall-clock seconds, in chain order."""
    chain_cpu_seconds: List[float] = field(default_factory=list)
    """Per-chain CPU seconds, in chain order."""
    init_seconds: float = 0.0
    """Wall-clock seconds spent choosing the chain start: the greedy
    initial plan plus costing the seed plans (the ``search.init`` span)."""

    @property
    def improvement_ratio(self) -> float:
        """Best cost relative to the initial plan (lower is better)."""
        if self.initial_cost <= 0:
            return 1.0
        return self.best_cost / self.initial_cost

    @property
    def acceptance_rate(self) -> float:
        """Fraction of accepted MCMC proposals."""
        return self.n_accepted / max(1, self.n_iterations)


class SearchProblem:
    """One search problem, built once and shared by every searcher posing it.

    A pure function of (graph, workload, cluster, prune) and the estimator
    scoring it: each call's compiled options (a
    :class:`~repro.core.pruning._CallOptions`: the option list, its by-mesh
    proposal index and its greedy representatives), the search-space size
    and the greedy start, which is computed on first use and then kept.
    The options come from ``table`` (an option table of this cluster and
    prune config, which problems may share; a fresh one by default) or, when
    ``options`` lists are given, are compiled from those by the same
    builder.  Treat it as immutable: any number of :class:`MCMCSearcher`
    instances and sessions may read it at once.
    """

    def __init__(
        self,
        graph: DataflowGraph,
        workload: RLHFWorkload,
        cluster: ClusterSpec,
        estimator: Optional[RuntimeEstimator] = None,
        options: Optional[Dict[str, List[Allocation]]] = None,
        prune: PruneConfig = PruneConfig(),
        table: Optional[_OptionTable] = None,
    ) -> None:
        self.graph = graph
        self.workload = workload
        self.cluster = cluster
        self.estimator = estimator or RuntimeEstimator(graph, workload, cluster)
        if options:
            missing = set(graph.call_names) - set(options)
            if missing:
                raise ValueError(f"no allocation options for calls: {sorted(missing)}")
            self.compiled = {name: _CallOptions(choices) for name, choices in options.items()}
        else:
            if table is None:
                table = _OptionTable(cluster, prune)
            self.compiled = {
                call.name: table.compile(call, workload.model_config(call.model_name), workload)
                for call in graph.calls
            }
        self.options: Dict[str, List[Allocation]] = {
            name: compiled.options for name, compiled in self.compiled.items()
        }
        self.search_space = search_space_size(self.options)
        self._greedy: Optional[Dict[str, Allocation]] = None

    def greedy_assignments(self) -> Dict[str, Allocation]:
        """Each call's fastest option in isolation (computed once).

        Prices each call's representatives only, keeping the first with the
        least time: the option ``min(options, key=call_time)`` picks.  As the
        paper notes, the plan they form is usually sub-optimal: every call
        grabs as many GPUs as help it individually, which prevents concurrent
        execution and may overload device memory — but it is a good starting
        point for the Markov chain.
        """
        if self._greedy is None:
            call_time = self.estimator.call_time
            greedy: Dict[str, Allocation] = {}
            for call_name, compiled in self.compiled.items():
                best, *rest = compiled.representatives
                best_time = call_time(call_name, best)
                for alloc in rest:
                    alloc_time = call_time(call_name, alloc)
                    if alloc_time < best_time:
                        best, best_time = alloc, alloc_time
                greedy[call_name] = best
            self._greedy = greedy
        return self._greedy


class MCMCSearcher:
    """Metropolis-Hastings search over per-call allocations.

    Pass either a prepared ``problem`` or the arguments that build one
    (graph, workload, cluster and optionally estimator, options and prune).
    """

    def __init__(
        self,
        graph: Optional[DataflowGraph] = None,
        workload: Optional[RLHFWorkload] = None,
        cluster: Optional[ClusterSpec] = None,
        estimator: Optional[RuntimeEstimator] = None,
        options: Optional[Dict[str, List[Allocation]]] = None,
        prune: PruneConfig = PruneConfig(),
        config: SearchConfig = SearchConfig(),
        seed_plans: Optional[Sequence[ExecutionPlan]] = None,
        problem: Optional[SearchProblem] = None,
    ) -> None:
        if problem is None:
            problem = SearchProblem(graph, workload, cluster, estimator, options, prune)
        elif any(arg is not None for arg in (graph, workload, cluster, estimator, options)):
            raise TypeError("pass either problem= or the arguments that build one")
        self.problem = problem
        self.graph = problem.graph
        self.workload = problem.workload
        self.cluster = problem.cluster
        self.estimator = problem.estimator
        self.options = problem.options
        self._compiled = problem.compiled
        self.config = config
        self.seed_plans = list(seed_plans or [])

    # ------------------------------------------------------------------ #
    # Initialisation
    # ------------------------------------------------------------------ #
    def greedy_initial_plan(self) -> ExecutionPlan:
        """Plan minimising the sum of per-call times in isolation
        (:meth:`SearchProblem.greedy_assignments`)."""
        return ExecutionPlan(self.problem.greedy_assignments(), name="greedy-initial")

    def initial_candidate(self) -> Tuple[ExecutionPlan, float]:
        """Best of the greedy plan, the seed plans and ``config.initial_plan``.

        This is the plan every chain starts from — and the floor any search
        or session result can only improve on.  Runs under a ``search.init``
        span, a sibling of the chain slices beneath the enclosing span.
        """
        cfg = self.config
        with get_tracer().start_span("search.init", category="search"):
            start_plan = self.greedy_initial_plan()
            start_cost = self.estimator.cost(start_plan, cfg.oom_penalty)
            candidates = list(self.seed_plans)
            if cfg.initial_plan is not None:
                candidates.append(cfg.initial_plan)
            for seed_plan in candidates:
                seed_cost = self.estimator.cost(seed_plan, cfg.oom_penalty)
                if seed_cost < start_cost:
                    start_plan, start_cost = seed_plan, seed_cost
        return start_plan, start_cost

    # ------------------------------------------------------------------ #
    # MCMC
    # ------------------------------------------------------------------ #
    def _propose(
        self, plan: ExecutionPlan, rng: np.random.Generator
    ) -> Tuple[str, Allocation]:
        """Propose a single-call move ``(call_name, new_allocation)``.

        Three move types are mixed: (a) reassign a random call to a random
        allocation option, (b) align a call with the allocation of another
        call (which removes a reallocation edge when they share a model), and
        (c) keep a call's mesh but change its strategy or micro-batch count.
        """
        call_names = self.graph.call_names
        call_name = call_names[int(rng.integers(len(call_names)))]
        compiled = self._compiled[call_name]
        choices = compiled.options
        roll = rng.random()
        if roll < 0.2 and len(call_names) > 1:
            # Align with another call's allocation if it is a valid option here.
            other = call_names[int(rng.integers(len(call_names)))]
            if other != call_name:
                other_alloc = plan[other]
                entry = compiled.by_mesh.get(_mesh_key(other_alloc.mesh))
                parallel = other_alloc.parallel
                if entry is not None and (parallel.dp, parallel.tp, parallel.pp) in entry[1]:
                    return call_name, other_alloc
        elif roll < 0.45:
            # Same mesh, different strategy / micro-batch count.
            entry = compiled.by_mesh.get(_mesh_key(plan[call_name].mesh))
            if entry is not None:
                span = entry[0]
                return call_name, choices[span[int(rng.integers(len(span)))]]
        return call_name, choices[int(rng.integers(len(choices)))]

    def _chain_rng(self, chain: int) -> np.random.Generator:
        """Chain 0 keeps the classic single-chain stream (bit-compatible with
        the pre-multi-chain searcher); further chains get independent streams."""
        if chain == 0:
            return np.random.default_rng(self.config.seed)
        return np.random.default_rng([self.config.seed, chain])

    def init_chain_state(
        self,
        chain: int,
        start_plan: ExecutionPlan,
        start_cost: float,
        max_iterations: int,
    ) -> ChainState:
        """A fresh checkpointable chain, positioned before its first proposal."""
        return ChainState(
            chain=chain,
            max_iterations=max(0, int(max_iterations)),
            rng=self._chain_rng(chain),
            current_plan=start_plan,
            current_cost=start_cost,
            best_plan=start_plan,
            best_cost=start_cost,
            span_context=current_span(),
        )

    def advance_chain(
        self,
        state: ChainState,
        max_iterations: Optional[int] = None,
        time_budget_s: Optional[float] = None,
    ) -> ChainState:
        """Advance one checkpointed chain by a slice of its budgets.

        Mutates and returns ``state``.  ``max_iterations``/``time_budget_s``
        bound this *slice*; the chain's total budgets
        (``state.max_iterations`` and ``config.time_budget_s`` worth of
        accumulated wall time) always apply on top, and exhausting either
        marks the state ``done``.  Advancing a fresh state without slice
        bounds runs the whole chain; because the RNG travels in the
        state and nothing is drawn between slices, the proposal stream —
        and therefore the best plan/cost and history — is bit-identical no
        matter how the iteration budget is sliced (a binding *time* budget
        is timing-dependent in any mode, sliced or not).
        """
        cfg = self.config
        if state.done:
            return state
        slice_iters = state.remaining_iterations
        if max_iterations is not None:
            slice_iters = min(slice_iters, max(0, int(max_iterations)))
        remaining_time = cfg.time_budget_s - state.wall_seconds
        slice_time = (
            remaining_time
            if time_budget_s is None
            else min(float(time_budget_s), remaining_time)
        )
        # Chain slices are the unit of tracing: one span per advance (never
        # per proposal).  The gate is the state's span context — with
        # REPRO_TRACING=off no span is ever opened, so no context exists and
        # the hot loop pays exactly one ``is not None`` check.
        span_parent = state.span_context
        span_start_s = time.time() if span_parent is not None else 0.0
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        deadline = wall_start + slice_time
        rng = state.rng
        current, current_cost = state.current_plan, state.current_cost
        best_plan, best_cost = state.best_plan, state.best_cost
        n_accepted = 0
        iteration = 0
        # One uniform is drawn per proposal (even for downhill moves that
        # accept regardless), so any slicing of the loop consumes the RNG
        # stream identically — chain trajectories are bit-identical however
        # the iteration budget is sliced.
        while iteration < slice_iters:
            if time.perf_counter() > deadline:
                break
            iteration += 1
            call_name, new_alloc = self._propose(current, rng)
            proposal_cost = self.estimator.cost_delta(
                current, call_name, new_alloc, cfg.oom_penalty
            )
            # Normalise the energy by the chain's best cost so far so the
            # temperature stays meaningful across experiment scales and even
            # when the initial plan is heavily OOM-penalised.  Chain-local on
            # purpose: sharing the cross-chain best would entangle the chains,
            # making each chain's trajectory depend on the chains before it.
            scale = max(best_cost, 1e-9)
            delta = (proposal_cost - current_cost) / scale
            u = rng.random()
            accept = delta <= 0 or u < math.exp(-cfg.beta * delta)
            if accept:
                current = current.with_assignment(call_name, new_alloc)
                current_cost = proposal_cost
                n_accepted += 1
                if current_cost < best_cost:
                    best_plan, best_cost = current, current_cost
            if cfg.record_history:
                state.history.append(
                    (
                        state.n_iterations + iteration,
                        state.wall_seconds + (time.perf_counter() - wall_start),
                        best_cost,
                    )
                )
        state.current_plan, state.current_cost = current, current_cost
        state.best_plan, state.best_cost = best_plan, best_cost
        state.n_iterations += iteration
        state.n_accepted += n_accepted
        state.wall_seconds += time.perf_counter() - wall_start
        state.cpu_seconds += time.process_time() - cpu_start
        if (
            state.n_iterations >= state.max_iterations
            or state.wall_seconds >= cfg.time_budget_s
        ):
            state.done = True
        if span_parent is not None:
            get_tracer().append(
                SpanRecord(
                    name=f"chain {state.chain}",
                    category="search",
                    start_s=span_start_s,
                    end_s=time.time(),
                    context=span_parent.child(),
                    args={
                        "chain": state.chain,
                        "iterations": iteration,
                        "accepted": n_accepted,
                        "best_cost": best_cost,
                        "done": state.done,
                    },
                )
            )
        return state

    def _chain_specs(self, n_chains: int) -> List[ChainSpec]:
        """Even split of the iteration budget (earlier chains take remainders)."""
        base_iters, extra_iters = divmod(self.config.max_iterations, n_chains)
        return [
            ChainSpec(chain=chain, max_iterations=base_iters + (1 if chain < extra_iters else 0))
            for chain in range(n_chains)
        ]

    def search(self) -> SearchResult:
        """Run the Metropolis-Hastings chains and return the best plan found.

        Every chain starts from the best of the greedy per-call-optimal plan,
        any seed plans supplied at construction time (e.g. the Megatron
        heuristic) and ``config.initial_plan``; the reported ``initial_plan``/
        ``initial_cost`` are that actual chain start, so the improvement ratio
        reflects what the search itself achieved.  Chains run one after
        another on the calling thread.
        """
        cfg = self.config
        with get_tracer().start_span(
            "search",
            category="search",
            args={"n_chains": cfg.n_chains, "max_iterations": cfg.max_iterations},
        ) as search_span:
            start_time = time.perf_counter()
            start_plan, start_cost = self.initial_candidate()
            init_seconds = time.perf_counter() - start_time
            # Report the actual chain start (greedy, seed or warm-start hint —
            # whichever won), not unconditionally the greedy plan.
            initial_plan, initial_cost = start_plan, start_cost

            n_chains = max(1, int(cfg.n_chains))
            results = [
                self.advance_chain(
                    self.init_chain_state(
                        spec.chain, start_plan, start_cost, spec.max_iterations
                    )
                ).to_result()
                for spec in self._chain_specs(n_chains)
            ]
            merged = self._merge_results(
                results,
                initial_plan=initial_plan,
                initial_cost=initial_cost,
                start_cost=start_cost,
                start_time=start_time,
                n_chains=n_chains,
                init_seconds=init_seconds,
            )
            search_span.set(
                best_cost=merged.best_cost,
                initial_cost=merged.initial_cost,
                iterations=merged.n_iterations,
            )
        self._publish_metrics(merged)
        return merged

    @staticmethod
    def _publish_metrics(result: SearchResult) -> None:
        """One batched registry update per search run (no per-proposal cost)."""
        registry = get_registry()
        if registry.enabled:
            registry.counter("search_runs_total", "Plan searches run").inc()
            registry.counter(
                "search_iterations_total", "MCMC proposals evaluated across runs"
            ).inc(result.n_iterations)
            registry.gauge(
                "search_acceptance_rate", "Accepted-proposal fraction of the last run"
            ).set(result.acceptance_rate)
            registry.gauge(
                "search_proposals_per_sec", "Proposal throughput of the last run"
            ).set(result.n_iterations / max(result.elapsed_seconds, 1e-9))
            wall_hist = registry.histogram(
                "search_chain_wall_seconds", "Per-chain wall-clock seconds"
            )
            for seconds in result.chain_wall_seconds:
                wall_hist.observe(seconds)
            cpu_hist = registry.histogram(
                "search_chain_cpu_seconds", "Per-chain CPU seconds"
            )
            for seconds in result.chain_cpu_seconds:
                cpu_hist.observe(seconds)
        log = get_logger("search")
        if log.isEnabledFor(10):  # logging.DEBUG
            log.debug(
                "search: %d iters over %d chains in %.3fs "
                "(accept %.2f, cost %.4f -> %.4f)",
                result.n_iterations,
                result.n_chains,
                result.elapsed_seconds,
                result.acceptance_rate,
                result.initial_cost,
                result.best_cost,
            )

    def _merge_results(
        self,
        results: List[ChainResult],
        initial_plan: ExecutionPlan,
        initial_cost: float,
        start_cost: float,
        start_time: float,
        n_chains: int,
        init_seconds: float,
    ) -> SearchResult:
        """Deterministically merge per-chain results (chain order, strict <)."""
        best_plan_assignments: Dict[str, Allocation] = dict(initial_plan.assignments)
        best_cost = start_cost
        for result in results:
            if result.best_cost < best_cost:
                best_plan_assignments = dict(result.best_plan.assignments)
                best_cost = result.best_cost
        history: List[Tuple[int, float, float]] = []
        running_best = start_cost
        offset = 0
        for result in results:
            for iteration, elapsed, chain_best in result.history:
                if chain_best < running_best:
                    running_best = chain_best
                history.append((offset + iteration, elapsed, running_best))
            offset += result.n_iterations
        return SearchResult(
            best_plan=ExecutionPlan(best_plan_assignments, name="searched"),
            best_cost=best_cost,
            initial_plan=initial_plan,
            initial_cost=initial_cost,
            n_iterations=sum(r.n_iterations for r in results),
            n_accepted=sum(r.n_accepted for r in results),
            elapsed_seconds=time.perf_counter() - start_time,
            history=history,
            search_space=self.problem.search_space,
            n_chains=n_chains,
            cpu_seconds=sum(r.cpu_seconds for r in results),
            chain_wall_seconds=[r.wall_seconds for r in results],
            chain_cpu_seconds=[r.cpu_seconds for r in results],
            init_seconds=init_seconds,
        )


@dataclass(frozen=True)
class SessionProgress:
    """One poll's view of a running :class:`SearchSession`."""

    n_iterations: int
    """Total proposals consumed so far, summed over all chains."""
    new_iterations: int
    """Proposals consumed by this poll."""
    best_cost: float
    improved: bool
    """Whether this poll lowered the session's best cost."""
    done: bool
    """Every chain exhausted its budgets; further polls are no-ops."""
    wall_seconds: float
    """Summed per-chain compute seconds consumed so far (not session age)."""


class SearchSession:
    """A resumable, pollable plan search (the online re-planning primitive).

    The same Metropolis-Hastings chains :meth:`MCMCSearcher.search` runs to
    completion, executed in slices: :meth:`start` evaluates the initial
    candidates and positions the chains, each :meth:`poll` advances every
    unfinished chain by one slice of its budgets on the calling thread,
    :meth:`best_so_far` reads the merged best at any point, and :meth:`stop`
    returns the final merged :class:`SearchResult`.  Slicing never changes
    the outcome: at equal total iteration budgets, the session's best
    plan/cost are bit-identical to an uninterrupted ``search()`` with the
    same seed, because each chain's RNG travels inside its checkpointed
    :class:`ChainState` and nothing is drawn between slices.
    """

    def __init__(
        self,
        searcher: MCMCSearcher,
        slice_iterations: Optional[int] = None,
        slice_time_s: Optional[float] = None,
    ) -> None:
        if slice_iterations is not None and slice_iterations < 1:
            raise ValueError(
                f"slice_iterations must be >= 1, got {slice_iterations}"
            )
        self.searcher = searcher
        cfg = searcher.config
        self.slice_iterations = (
            int(slice_iterations)
            if slice_iterations is not None
            else max(1, cfg.max_iterations // 10)
        )
        """Default proposals per chain per poll (a tenth of the budget)."""
        self.slice_time_s = slice_time_s
        """Default wall-clock bound per chain per poll (``None``: unbounded —
        the iteration slice and the chain's total time budget still apply)."""
        self.states: List[ChainState] = []
        self.n_polls = 0
        self._started_at: Optional[float] = None
        self._initial_plan: Optional[ExecutionPlan] = None
        self._initial_cost = float("inf")
        self._init_seconds = 0.0
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SearchSession":
        """Evaluate the initial candidates and position the chains (idempotent)."""
        if self._started_at is not None:
            return self
        cfg = self.searcher.config
        self._started_at = time.perf_counter()
        start_plan, start_cost = self.searcher.initial_candidate()
        self._init_seconds = time.perf_counter() - self._started_at
        self._initial_plan, self._initial_cost = start_plan, start_cost
        self.states = [
            self.searcher.init_chain_state(
                spec.chain, start_plan, start_cost, spec.max_iterations
            )
            for spec in self.searcher._chain_specs(max(1, int(cfg.n_chains)))
        ]
        return self

    def stop(self) -> SearchResult:
        """Finish the session and return the final merged result."""
        self.start()
        result = self.result()
        if not self._stopped:
            self._stopped = True
            MCMCSearcher._publish_metrics(result)
        return result

    @property
    def started(self) -> bool:
        return self._started_at is not None

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def done(self) -> bool:
        """All chains exhausted (a never-started session is not done)."""
        return self.started and all(state.done for state in self.states)

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    @property
    def initial_cost(self) -> float:
        return self._initial_cost

    @property
    def init_seconds(self) -> float:
        """Wall-clock seconds :meth:`start` spent choosing the chain start."""
        return self._init_seconds

    @property
    def n_iterations(self) -> int:
        return sum(state.n_iterations for state in self.states)

    def best_so_far(self) -> Tuple[Optional[ExecutionPlan], float]:
        """Merged best over the initial candidate and every chain.

        Deterministic merge, mirroring ``_merge_results``: chain order with
        strict ``<``, so slicing cannot flip ties.
        """
        best_plan, best_cost = self._initial_plan, self._initial_cost
        for state in self.states:
            if state.best_cost < best_cost:
                best_plan, best_cost = state.best_plan, state.best_cost
        return best_plan, best_cost

    @property
    def best_cost(self) -> float:
        return self.best_so_far()[1]

    def poll(
        self,
        max_iterations: Optional[int] = None,
        time_budget_s: Optional[float] = None,
    ) -> SessionProgress:
        """Advance every unfinished chain by one slice and report progress.

        Slice bounds default to the session's ``slice_iterations``/
        ``slice_time_s``.
        """
        if self._stopped:
            raise RuntimeError("SearchSession has been stopped")
        self.start()
        before_best = self.best_cost
        before_iters = self.n_iterations
        active = [state for state in self.states if not state.done]
        # Re-parent each chain under the caller's span for *this* poll, so a
        # slice's spans land beneath the poll that ran it.
        poll_context = current_span()
        if poll_context is not None:
            for state in active:
                state.span_context = poll_context
        slice_iters = (
            int(max_iterations) if max_iterations is not None else self.slice_iterations
        )
        slice_time = time_budget_s if time_budget_s is not None else self.slice_time_s
        for state in active:
            self.searcher.advance_chain(state, slice_iters, slice_time)
        self.n_polls += 1
        best = self.best_cost
        return SessionProgress(
            n_iterations=self.n_iterations,
            new_iterations=self.n_iterations - before_iters,
            best_cost=best,
            improved=best < before_best,
            done=self.done,
            wall_seconds=sum(state.wall_seconds for state in self.states),
        )

    def result(self) -> SearchResult:
        """Merged result of the work done so far (does not stop the session).

        ``elapsed_seconds`` is the session's age (including idle time between
        polls); ``chain_wall_seconds`` holds the actual compute consumed.
        """
        self.start()
        return self.searcher._merge_results(
            [state.to_result() for state in self.states],
            initial_plan=self._initial_plan,
            initial_cost=self._initial_cost,
            start_cost=self._initial_cost,
            start_time=self._started_at,
            n_chains=len(self.states),
            init_seconds=self._init_seconds,
        )


def search_execution_plan(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    prune: PruneConfig = PruneConfig(),
    config: SearchConfig = SearchConfig(),
    estimator: Optional[RuntimeEstimator] = None,
    initial_plan: Optional[ExecutionPlan] = None,
) -> SearchResult:
    """Convenience wrapper: build a searcher and run it once.

    ``initial_plan`` optionally warm-starts the chain (e.g. from a cached plan
    for a similar workload, see :mod:`repro.service.warm_start`); it takes
    precedence over ``config.initial_plan`` when both are given.
    """
    if initial_plan is not None:
        import dataclasses

        config = dataclasses.replace(config, initial_plan=initial_plan)
    searcher = MCMCSearcher(
        graph=graph,
        workload=workload,
        cluster=cluster,
        estimator=estimator,
        prune=prune,
        config=config,
    )
    return searcher.search()
