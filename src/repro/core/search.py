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
posing the same one share a single instance (the plan service keeps its
recently used problems in one LRU, and builds them from one option table per
cluster and prune config).

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

A chain's random numbers come from its ``np.random.Generator`` (PCG64), but
the proposal loop does not call it per draw: each slice opens a
:class:`_DrawStream` over it, which fetches raw 64-bit words in blocks and
computes ``integers(n)`` and ``random()`` from them in Python exactly as
numpy does.  When the slice ends, the stream rewinds the words it did not
use and writes PCG64's half-word buffer back, so after every slice the
generator's state is the one per-call draws would have left.
"""

from __future__ import annotations

import itertools
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
from .pruning import PruneConfig, _CallOptions, _OptionTable, search_space_size
from .workload import RLHFWorkload

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SessionProgress",
    "SearchSession",
    "SearchProblem",
    "MCMCSearcher",
    "ChainState",
]

_MASK32 = 0xFFFFFFFF
_TWO32 = 1 << 32
_TWO_M53 = 2.0**-53
_BLOCK_WORDS = 64
"""Raw PCG64 words a :class:`_DrawStream` fetches per numpy call."""


class _DrawStream:
    """A chain slice's draws from a PCG64 ``Generator``, computed in Python.

    numpy spends ~2 µs of call overhead on each scalar ``integers(n)`` and
    ~1 µs on each ``random()``, more than the arithmetic behind them.  This
    stream fetches the generator's raw 64-bit words in blocks of
    :data:`_BLOCK_WORDS` (``bit_generator.random_raw``) and reproduces both
    draws exactly: ``random()`` is ``(word >> 11) * 2**-53`` and
    ``integers(n)`` numpy's 32-bit Lemire rejection over ``next_uint32``,
    which hands out the low half of a word and keeps the high half in
    PCG64's ``has_uint32``/``uinteger`` buffer; ``integers(1)`` draws
    nothing.  Used as a context manager, one per slice: on exit, even by an
    exception, it rewinds the generator over the words it fetched but did
    not use (``bit_generator.advance(-unused)``) and writes the half-word
    buffer back, so ``bit_generator.state`` is exactly what the same calls
    on the ``Generator`` itself would have left.  Draw from the generator
    only after the stream has exited.

    Refuses (``ValueError``) a generator whose bit generator is not
    ``PCG64`` and a bound outside ``1 <= n <= 2**32``, whose numpy draws it
    does not reproduce.
    """

    __slots__ = ("integers", "random", "_sync")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = getattr(rng, "bit_generator", None)
        if type(bitgen) is not np.random.PCG64:
            raise ValueError(
                "draw streams need a PCG64 numpy Generator, "
                f"got {type(bitgen).__name__}"
            )
        state = bitgen.state
        has_uint32, uinteger = bool(state["has_uint32"]), state["uinteger"]
        block = None  # the list iterator words are being drawn from

        def blocks():
            nonlocal block
            while True:
                block = iter(bitgen.random_raw(_BLOCK_WORDS).tolist())
                yield block

        next_word = itertools.chain.from_iterable(blocks()).__next__

        def next_uint32() -> int:
            nonlocal has_uint32, uinteger
            if has_uint32:
                has_uint32 = False
                return uinteger
            word = next_word()
            has_uint32, uinteger = True, word >> 32
            return word & _MASK32

        def integers(n: int) -> int:
            """``Generator.integers(n)``: uniform on ``[0, n)``."""
            nonlocal has_uint32, uinteger
            if not 1 < n < _TWO32:
                if n == 1:
                    return 0
                if n == _TWO32:
                    return next_uint32()
                raise ValueError(f"draw streams need 1 <= n <= 2**32, got {n}")
            if has_uint32:  # next_uint32(), inlined on the hot path
                has_uint32 = False
                m = uinteger * n
            else:
                word = next_word()
                has_uint32, uinteger = True, word >> 32
                m = (word & _MASK32) * n
            if (m & _MASK32) < n:
                threshold = (_TWO32 - n) % n
                while (m & _MASK32) < threshold:
                    m = next_uint32() * n
            return m >> 32

        def random() -> float:
            """``Generator.random()``: uniform on ``[0, 1)``."""
            return (next_word() >> 11) * _TWO_M53

        def sync() -> None:
            unused = block.__length_hint__() if block is not None else 0
            if unused:
                bitgen.advance(-unused)
            # ``random_raw`` leaves the half-word buffer alone and ``advance``
            # zeroes it: write the stream's own back.
            state = bitgen.state
            state["has_uint32"], state["uinteger"] = int(has_uint32), uinteger
            bitgen.state = state

        self.integers = integers
        self.random = random
        self._sync = sync

    def __enter__(self) -> "_DrawStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self._sync()


_REJECT_MARGIN = 1e-9
"""Relative slack of :func:`_reject_above`'s threshold.  It dwarfs the few
ulps of rounding in ``log``, ``exp`` and the threshold's own arithmetic, so a
cost above the threshold also fails the acceptance test as evaluated."""


def _reject_above(current_cost: float, scale: float, u: float, beta: float) -> float:
    """A cost above which the Metropolis test must reject, given its uniform.

    The chain accepts a proposal when ``delta <= 0`` or
    ``u < exp(-beta * delta)`` with ``delta = (cost - current_cost) / scale``,
    that is when ``cost < current_cost + scale * -ln(u) / beta``.  The
    returned threshold widens that bound by :data:`_REJECT_MARGIN` three
    times over (relative and absolute slack on ``-ln(u)``, relative slack on
    the sum), so every cost above it also fails the test in floating point.
    ``u == 0`` and ``beta == 0`` (accept everything) give ``inf``.
    """
    if u <= 0.0 or beta <= 0.0:
        return math.inf
    exponent = -math.log(u) * (1.0 + _REJECT_MARGIN) + _REJECT_MARGIN
    return (current_cost + scale * exponent / beta) * (1.0 + _REJECT_MARGIN)


@dataclass
class ChainState:
    """Resumable mid-flight snapshot of one Metropolis-Hastings chain.

    :meth:`MCMCSearcher.advance_chain` consumes a slice of the chain's
    budgets and writes the outcome back here, so a chain can run in slices
    and still produce exactly the chain one uninterrupted run would have
    produced: the RNG travels *in* the state, iteration numbering picks up
    where the previous slice stopped, and wall/CPU seconds accumulate across
    slices.  ``best_plan``/``best_cost`` are the chain-local optimum;
    ``history`` holds chain-local ``(iteration, elapsed_seconds,
    best_cost_so_far)`` samples, iterations counting from 1 and elapsed
    measured from the chain's own start; ``cpu_seconds`` is
    ``time.process_time`` time.
    """

    chain: int
    max_iterations: int
    """The chain's **total** proposal budget (not a per-slice bound)."""
    rng: np.random.Generator
    """The chain's PCG64 generator, positioned after its last proposal's
    draws.  A slice draws through a :class:`_DrawStream` and writes the
    stream's position back when it ends, so between slices this is the
    generator per-call draws would have left, down to its
    ``bit_generator.state``."""
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

    def __post_init__(self) -> None:
        # Early rejection (see ``MCMCSearcher.advance_chain``) is exact only
        # for a finite, non-negative temperature and a penalty that never
        # lowers a cost.
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not (math.isfinite(self.oom_penalty) and self.oom_penalty >= 1):
            raise ValueError(
                f"oom_penalty must be finite and >= 1, got {self.oom_penalty}"
            )
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
    scoring it: the call names in graph order (``call_names``, the tuple
    proposals index), each call's compiled options (a
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
        self.call_names: Tuple[str, ...] = tuple(graph.call_names)
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
        self._call_names = problem.call_names
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
        """Best of the greedy plan and the seed plans, in that order.

        This is the plan every chain starts from — and the floor any search
        or session result can only improve on.  A seed replaces the running
        start only when strictly cheaper, so among equal costs the greedy
        plan, then the earliest seed, wins.  Runs under a ``search.init``
        span, a sibling of the chain slices beneath the enclosing span.
        """
        oom_penalty = self.config.oom_penalty
        with get_tracer().start_span("search.init", category="search"):
            start_plan = self.greedy_initial_plan()
            start_cost = self.estimator.cost(start_plan, oom_penalty)
            for seed_plan in self.seed_plans:
                seed_cost = self.estimator.cost(seed_plan, oom_penalty)
                if seed_cost < start_cost:
                    start_plan, start_cost = seed_plan, seed_cost
        return start_plan, start_cost

    # ------------------------------------------------------------------ #
    # MCMC
    # ------------------------------------------------------------------ #
    def _propose(self, plan: ExecutionPlan, rng) -> Tuple[str, Allocation]:
        """Propose a single-call move ``(call_name, new_allocation)``.

        Three move types are mixed: (a) reassign a random call to a random
        allocation option, (b) align a call with the allocation of another
        call (which removes a reallocation edge when they share a model), and
        (c) keep a call's mesh but change its strategy or micro-batch count.
        ``rng`` is anything with ``Generator``'s ``integers(n)`` and
        ``random()``: :meth:`advance_chain` passes its slice's
        :class:`_DrawStream`, which draws the same numbers as the chain's
        ``np.random.Generator`` itself (also accepted).  A proposal draws the
        call, the move roll, then the other call and/or the option, in that
        order: three or four draws.
        """
        call_names = self._call_names
        call_name = call_names[rng.integers(len(call_names))]
        compiled = self._compiled[call_name]
        choices = compiled.options
        roll = rng.random()
        if roll < 0.2 and len(call_names) > 1:
            # Align with another call's allocation if it is a valid option here.
            other = call_names[rng.integers(len(call_names))]
            if other != call_name:
                other_alloc = plan[other]
                other_key = other_alloc.key
                entry = compiled.by_mesh.get(other_key[:4])
                if entry is not None and other_key[4:7] in entry[1]:
                    return call_name, other_alloc
        elif roll < 0.45:
            # Same mesh, different strategy / micro-batch count.
            entry = compiled.by_mesh.get(plan[call_name].key[:4])
            if entry is not None:
                span = entry[0]
                return call_name, choices[span[rng.integers(len(span))]]
        return call_name, choices[rng.integers(len(choices))]

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
        self, state: ChainState, max_iterations: Optional[int] = None
    ) -> ChainState:
        """Advance one checkpointed chain by a slice of its budget.

        Mutates and returns ``state``.  ``max_iterations`` bounds this
        *slice*; the chain's total budgets (``state.max_iterations`` and
        ``config.time_budget_s`` worth of accumulated wall time) always apply
        on top, and exhausting either marks the state ``done``.  Advancing a
        fresh state without a slice bound runs the whole chain (what
        :meth:`search` does); because the RNG travels in the state and
        nothing is drawn between slices, the proposal stream — and therefore
        the best plan/cost and history — is bit-identical no matter how the
        iteration budget is sliced (a binding *time* budget is
        timing-dependent in any mode, sliced or not).

        Each step draws its acceptance uniform ``u`` right after the
        proposal and before scoring it.  ``cost_delta`` draws nothing, so the
        stream is the one the draw-after-scoring loop consumed; knowing ``u``
        first turns the Metropolis test into a cost threshold
        (:func:`_reject_above`) that the estimator uses to reject a proposal
        on a lower bound of its cost, without simulating it.  A proposal
        that passes the bound is tested with the exact cost, so accepted
        moves, the best plan and the history are those of exact scoring.

        The slice draws through one :class:`_DrawStream` over ``state.rng``
        (the same numbers, in the same order, as calling the generator per
        draw, without numpy's per-call overhead).  On the way out, normal
        or by an exception from the estimator, the stream rewinds the
        words it fetched but did not use and restores PCG64's half-word
        buffer, so ``state.rng`` stands exactly after the draws of the
        proposals this slice made.  A generator that is not PCG64 raises
        ``ValueError`` before the first proposal.
        """
        cfg = self.config
        if state.done:
            return state
        slice_iters = state.remaining_iterations
        if max_iterations is not None:
            slice_iters = min(slice_iters, max(0, int(max_iterations)))
        # Chain slices are the unit of tracing: one span per advance (never
        # per proposal).  The gate is the state's span context: a chain
        # advanced outside any span has none, records nothing, and the hot
        # loop pays exactly one ``is not None`` check.
        span_parent = state.span_context
        span_start_s = time.time() if span_parent is not None else 0.0
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        deadline = wall_start + (cfg.time_budget_s - state.wall_seconds)
        current, current_cost = state.current_plan, state.current_cost
        best_plan, best_cost = state.best_plan, state.best_cost
        n_accepted = 0
        iteration = 0
        cost_delta, beta, oom_penalty = self.estimator.cost_delta, cfg.beta, cfg.oom_penalty
        # One uniform is drawn per proposal (even for downhill moves that
        # accept regardless), so any slicing of the loop consumes the RNG
        # stream identically — chain trajectories are bit-identical however
        # the iteration budget is sliced.  The draw stream writes its
        # position back to ``state.rng`` when the slice ends, however it ends.
        with _DrawStream(state.rng) as draws:
            draw_u = draws.random
            while iteration < slice_iters:
                if time.perf_counter() > deadline:
                    break
                iteration += 1
                call_name, new_alloc = self._propose(current, draws)
                u = draw_u()
                # Normalise the energy by the chain's best cost so far so
                # the temperature stays meaningful across experiment scales
                # and even when the initial plan is heavily OOM-penalised.
                # Chain-local on purpose: sharing the cross-chain best would
                # entangle the chains, making each chain's trajectory depend
                # on the chains before it.
                scale = max(best_cost, 1e-9)
                proposal_cost = cost_delta(
                    current, call_name, new_alloc, oom_penalty,
                    reject_above=_reject_above(current_cost, scale, u, beta),
                )
                if proposal_cost is None:
                    # Its cost is above the threshold: the test fails.
                    accept = False
                else:
                    delta = (proposal_cost - current_cost) / scale
                    accept = delta <= 0 or u < math.exp(-beta * delta)
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

    def search(self) -> SearchResult:
        """Run the Metropolis-Hastings chains and return the best plan found.

        A :class:`SearchSession` run to completion: every chain starts from
        the best of the greedy per-call-optimal plan and the seed plans
        supplied at construction time (e.g. the Megatron heuristic, a cached
        or running plan), then advances once through its whole budget,
        one chain after another on the calling thread.  The reported
        ``initial_plan``/``initial_cost`` are that actual chain start, so the
        improvement ratio reflects what the search itself achieved.
        """
        cfg = self.config
        with get_tracer().start_span(
            "search",
            category="search",
            args={"n_chains": cfg.n_chains, "max_iterations": cfg.max_iterations},
        ) as search_span:
            session = SearchSession(self).start()
            for state in session.states:
                self.advance_chain(state)
            result = session.stop()
            search_span.set(
                best_cost=result.best_cost,
                initial_cost=result.initial_cost,
                iterations=result.n_iterations,
            )
        return result

    @staticmethod
    def _publish_metrics(result: SearchResult) -> None:
        """One batched registry update per search run (no per-proposal cost)."""
        registry = get_registry()
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
    """A resumable, pollable plan search: the one runner of the MCMC chains.

    :meth:`start` evaluates the initial candidates and positions the chains
    (the iteration budget split evenly, earlier chains taking the
    remainder), each :meth:`poll` advances every unfinished chain by
    ``slice_iterations`` proposals on the calling thread, :meth:`best_so_far`
    reads the merged best at any point, and :meth:`stop` returns the final
    merged :class:`SearchResult` and publishes the run's metrics.
    :meth:`MCMCSearcher.search` is a session whose chains each advance once,
    unsliced.  Slicing never changes the outcome: at equal total iteration
    budgets, the session's result is bit-identical to an uninterrupted
    ``search()`` with the same seed, because each chain's RNG travels inside
    its checkpointed :class:`ChainState` and nothing is drawn between slices.
    """

    def __init__(
        self, searcher: MCMCSearcher, slice_iterations: Optional[int] = None
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
        """Proposals per chain per poll (default: a tenth of the budget)."""
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
        n_chains = int(cfg.n_chains)
        base_iters, extra_iters = divmod(cfg.max_iterations, n_chains)
        self.states = [
            self.searcher.init_chain_state(
                chain, start_plan, start_cost, base_iters + (chain < extra_iters)
            )
            for chain in range(n_chains)
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
    def done(self) -> bool:
        """All chains exhausted (a never-started session is not done)."""
        return self.started and all(state.done for state in self.states)

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    @property
    def n_iterations(self) -> int:
        return sum(state.n_iterations for state in self.states)

    def best_so_far(self) -> Tuple[Optional[ExecutionPlan], float]:
        """Merged best over the initial candidate and every chain.

        Deterministic merge: chain order with strict ``<``, so slicing cannot
        flip ties and a chain that never beats the start reports the start.
        """
        best_plan, best_cost = self._initial_plan, self._initial_cost
        for state in self.states:
            if state.best_cost < best_cost:
                best_plan, best_cost = state.best_plan, state.best_cost
        return best_plan, best_cost

    @property
    def best_cost(self) -> float:
        return self.best_so_far()[1]

    def poll(self) -> SessionProgress:
        """Advance every unfinished chain by ``slice_iterations`` proposals
        and report progress."""
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
        for state in active:
            self.searcher.advance_chain(state, self.slice_iterations)
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
        The history numbers the chains' iterations back to back (chain-major)
        and carries the running best over the start and the chains so far.
        """
        self.start()
        best_plan, best_cost = self.best_so_far()
        history: List[Tuple[int, float, float]] = []
        running_best = self._initial_cost
        offset = 0
        for state in self.states:
            for iteration, elapsed, chain_best in state.history:
                if chain_best < running_best:
                    running_best = chain_best
                history.append((offset + iteration, elapsed, running_best))
            offset += state.n_iterations
        chain_cpu_seconds = [state.cpu_seconds for state in self.states]
        return SearchResult(
            best_plan=ExecutionPlan(best_plan.assignments, name="searched"),
            best_cost=best_cost,
            initial_plan=self._initial_plan,
            initial_cost=self._initial_cost,
            n_iterations=self.n_iterations,
            n_accepted=sum(state.n_accepted for state in self.states),
            elapsed_seconds=time.perf_counter() - self._started_at,
            history=history,
            search_space=self.searcher.problem.search_space,
            n_chains=len(self.states),
            cpu_seconds=sum(chain_cpu_seconds),
            chain_wall_seconds=[state.wall_seconds for state in self.states],
            chain_cpu_seconds=chain_cpu_seconds,
            init_seconds=self._init_seconds,
        )

