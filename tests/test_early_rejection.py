"""Bound-first Metropolis steps: early rejection must not move any outcome.

``MCMCSearcher.advance_chain`` draws each step's uniform before scoring the
proposal and hands ``RuntimeEstimator.cost_delta`` a cost threshold above
which the step must reject; the estimator may then reject on a lower bound
of the cost (the critical path without mesh waits or the per-GPU load,
times the OOM penalty once the plan is known to overflow) without simulating
the plan, and without pricing its memory when a time bound alone rejects.  These
tests pin the pieces that make that exact:

* the old loop (score, then draw ``u``), kept here as the reference, and the
  new one give equal best plans, costs, accepted counts and histories, and
  leave the chain's generator in equal states: after the whole chain, after
  every slice and after a slice an estimator error ended (the new loop draws
  through a ``_DrawStream``, the old one calls the ``Generator`` per draw);
* the threshold is sound: a cost just above it fails the acceptance test;
* the critical-path and load bounds never exceed the simulated TimeCost;
* a proposal rejected on a time bound prices no memory, and the memory the
  estimator prices later is the exact one;
* ``cost_delta`` returns the exact cost whenever that cost is not above the
  threshold, stores its rejections as bound entries of the eval cache, and
  its cross-check catches both a poisoned exact entry and a poisoned bound.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import build_grpo_graph, build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    ExecutionPlan,
    MCMCSearcher,
    RuntimeEstimator,
    SearchConfig,
    allocation_options,
    instructgpt_workload,
)
from repro.core.estimator import DEFAULT_OOM_PENALTY, _BoundEntry
from repro.core.search import _reject_above
from repro.obs.metrics import MetricsRegistry
from repro.service import PlanRequest, PlanService

FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_golden_search import ITERATIONS, SEEDS, make_searcher  # noqa: E402

GRAPHS = {"ppo": build_ppo_graph, "grpo": build_grpo_graph}
WORKLOAD = instructgpt_workload("7b", "7b", batch_size=128)
CLUSTER = make_cluster(16)


def accepts(proposal_cost, current_cost, scale, u, beta):
    """The chain's acceptance test, as the loop evaluates it."""
    delta = (proposal_cost - current_cost) / scale
    return delta <= 0 or u < math.exp(-beta * delta)


def old_loop(searcher, state, rng_states=None):
    """The acceptance loop before early rejection: score, then draw ``u``.

    Returns ``(best_plan, best_cost, n_accepted, history)`` with history
    entries ``(iteration, best_cost_so_far)``.  ``rng_states``, when given,
    collects ``state.rng.bit_generator.state`` before the first proposal and
    after each one.
    """
    cfg = searcher.config
    rng = state.rng
    current, current_cost = state.current_plan, state.current_cost
    best_plan, best_cost = state.best_plan, state.best_cost
    n_accepted = 0
    history = []
    if rng_states is not None:
        rng_states.append(rng.bit_generator.state)
    for iteration in range(1, state.max_iterations + 1):
        call_name, new_alloc = searcher._propose(current, rng)
        proposal_cost = searcher.estimator.cost_delta(
            current, call_name, new_alloc, cfg.oom_penalty
        )
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
        history.append((iteration, best_cost))
        if rng_states is not None:
            rng_states.append(rng.bit_generator.state)
    return best_plan, best_cost, n_accepted, history


def new_loop(searcher, state, slice_iterations):
    """``advance_chain`` in slices, in :func:`old_loop`'s result format."""
    while not state.done:
        searcher.advance_chain(state, max_iterations=slice_iterations)
    history = [(iteration, best) for iteration, _elapsed, best in state.history]
    return state.best_plan, state.best_cost, state.n_accepted, history


def _searcher(algorithm, seed, iterations, beta, oom_penalty, cross_check=False):
    """A golden-search searcher with its own fresh estimator."""
    golden = make_searcher(algorithm, seed, iterations)
    config = dataclasses.replace(golden.config, beta=beta, oom_penalty=oom_penalty)
    estimator = RuntimeEstimator(
        golden.graph, golden.workload, golden.cluster, cross_check=cross_check
    )
    return MCMCSearcher(
        golden.graph, golden.workload, golden.cluster, estimator=estimator, config=config
    )


def _chain(searcher):
    start_plan, start_cost = searcher.initial_candidate()
    return searcher.init_chain_state(0, start_plan, start_cost, searcher.config.max_iterations)


@settings(max_examples=12, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(GRAPHS)),
    seed=st.sampled_from(SEEDS),
    iterations=st.sampled_from(ITERATIONS),
    beta=st.sampled_from([0.0, 0.5, 8.0, 64.0]),
    oom_penalty=st.sampled_from([1.0, 3.0, 100.0]),
    slice_iterations=st.sampled_from([37, 1000]),
)
def test_new_loop_equals_old_loop(algorithm, seed, iterations, beta, oom_penalty, slice_iterations):
    old = _searcher(algorithm, seed, iterations, beta, oom_penalty)
    new = _searcher(algorithm, seed, iterations, beta, oom_penalty)
    old_state, new_state = _chain(old), _chain(new)
    expected = old_loop(old, old_state)
    got = new_loop(new, new_state, slice_iterations)
    assert got[0].assignments == expected[0].assignments
    assert got[1:] == expected[1:]
    assert new_state.rng.bit_generator.state == old_state.rng.bit_generator.state
    stats = new.estimator.eval_cache_stats
    if beta > 0 and iterations == max(ITERATIONS):
        # The chain really did reject on bounds, yet nothing moved.
        assert stats.bound_rejections > 0


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
@pytest.mark.parametrize("slice_iterations", [1, 37, None])
def test_generator_state_after_each_slice(algorithm, slice_iterations):
    """Between slices the chain's generator is where per-call draws leave it."""
    reference = _searcher(algorithm, 7, 120, 8.0, 3.0)
    rng_states = []
    old_loop(reference, _chain(reference), rng_states)
    searcher = _searcher(algorithm, 7, 120, 8.0, 3.0)
    state = _chain(searcher)
    slices = 0
    while not state.done:
        searcher.advance_chain(state, max_iterations=slice_iterations)
        assert state.rng.bit_generator.state == rng_states[state.n_iterations]
        slices += 1
    assert slices == {1: 120, 37: 4, None: 1}[slice_iterations]


class _Failed(Exception):
    pass


@pytest.mark.parametrize("failing_proposal", [1, 2, 45, 119])
def test_estimator_error_leaves_the_generator_after_its_proposals(failing_proposal):
    """A slice that ``cost_delta`` ends with an error on its k-th proposal
    leaves ``state.rng`` after exactly k proposals' draws (the k-th one's
    draws, its uniform included, precede its scoring)."""
    reference = _searcher("ppo", 1, 120, 8.0, 3.0)
    rng_states = []
    old_loop(reference, _chain(reference), rng_states)
    searcher = _searcher("ppo", 1, 120, 8.0, 3.0)
    cost_delta = searcher.estimator.cost_delta
    calls = 0

    def failing_cost_delta(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == failing_proposal:
            raise _Failed
        return cost_delta(*args, **kwargs)

    searcher.estimator.cost_delta = failing_cost_delta
    state = _chain(searcher)
    with pytest.raises(_Failed):
        searcher.advance_chain(state)
    assert state.rng.bit_generator.state == rng_states[failing_proposal]


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
def test_every_bound_rejection_is_cross_checked(algorithm):
    """Under ``cross_check`` each bound rejection verifies the exact cost."""
    searcher = _searcher(algorithm, 7, 120, 8.0, 100.0, cross_check=True)
    state = searcher.advance_chain(_chain(searcher))
    assert searcher.estimator.eval_cache_stats.bound_rejections > 0
    reference = _searcher(algorithm, 7, 120, 8.0, 100.0)
    assert old_loop(reference, _chain(reference))[1:3] == (state.best_cost, state.n_accepted)


@settings(max_examples=400, deadline=None)
@given(
    u=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=2**20).map(lambda k: 1.0 - k * 2.0**-53),
    ),
    current_cost=st.floats(min_value=0.0, max_value=1e6),
    ratio=st.floats(min_value=1e-3, max_value=1.0),
    beta=st.floats(min_value=1e-3, max_value=1e3),
)
def test_threshold_is_sound(u, current_cost, ratio, beta):
    """A cost just above the threshold fails the acceptance test."""
    scale = max(current_cost * ratio, 1e-9)
    threshold = _reject_above(current_cost, scale, u, beta)
    if math.isinf(threshold):
        return
    above = math.nextafter(threshold, math.inf)
    assert not accepts(above, current_cost, scale, u, beta)
    assert not accepts(threshold * 1.5 + 1.0, current_cost, scale, u, beta)


def test_threshold_margin_covers_rounding():
    """Seeded sweep: about one case in 700 of these would be accepted just
    above ``current + scale * -ln(u) / beta`` without the margin."""
    rng = np.random.default_rng(2012)
    for _ in range(20_000):
        u, current_cost = rng.random(), rng.uniform(0.0, 100.0)
        scale = current_cost * rng.uniform(0.01, 1.0)
        beta = float(rng.choice([0.5, 8.0, 64.0]))
        above = math.nextafter(_reject_above(current_cost, scale, u, beta), math.inf)
        assert not accepts(above, current_cost, scale, u, beta)


def test_threshold_never_rejects_what_always_accepts():
    assert _reject_above(5.0, 1.0, 0.0, 8.0) == math.inf
    assert _reject_above(5.0, 1.0, 0.3, 0.0) == math.inf


def _random_moves(algorithm, n, seed, max_gpus=None, min_gpus=1):
    """``n`` random ``(plan, call, alloc)`` moves over random plans whose
    meshes have between ``min_gpus`` and ``max_gpus`` (default: any) GPUs."""
    graph = GRAPHS[algorithm]()
    max_gpus = max_gpus or CLUSTER.n_gpus
    options = {
        name: [a for a in allocs if min_gpus <= a.mesh.n_gpus <= max_gpus]
        for name, allocs in allocation_options(graph, WORKLOAD, CLUSTER).items()
    }
    rng = np.random.default_rng(seed)
    names = graph.call_names
    moves = []
    for _ in range(n):
        plan = ExecutionPlan(
            {name: options[name][int(rng.integers(len(options[name])))] for name in names}
        )
        name = names[int(rng.integers(len(names)))]
        moves.append((plan, name, options[name][int(rng.integers(len(options[name])))]))
    return graph, moves


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
def test_critical_path_bounds_the_simulation(algorithm):
    graph, moves = _random_moves(algorithm, 300, seed=3)
    estimator = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
    strict = 0
    for plan, name, alloc in moves:
        state = estimator._state_for(plan.with_assignment(name, alloc))
        bound = estimator._critical_path(state)
        total, _ = estimator._simulate(state)
        assert bound <= total
        strict += bound < total
    # Mesh waits matter for most random plans: the bound is not the total.
    assert strict > len(moves) // 2


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
def test_load_bound_bounds_the_simulation(algorithm):
    """On random moved plans, plans with every call on the full-cluster mesh
    (where the simulation is one serial run and the bound all but equals
    it) and OOM-heavy plans of 1- and 2-GPU meshes."""
    families = {
        "random": _random_moves(algorithm, 300, seed=3)[1],
        "full": _random_moves(algorithm, 200, seed=4, min_gpus=CLUSTER.n_gpus)[1],
        "small": _random_moves(algorithm, 200, seed=6, max_gpus=2)[1],
    }
    estimator = RuntimeEstimator(GRAPHS[algorithm](), WORKLOAD, CLUSTER)
    tighter = {}
    ooms = 0
    for family, moves in families.items():
        tighter[family] = 0
        for plan, name, alloc in moves:
            state = estimator._moved_state(estimator._state_for(plan), plan, name, alloc)
            bound = estimator._load_bound(state)
            total, _ = estimator._simulate(state)
            assert bound <= total
            tighter[family] += bound > estimator._critical_path(state)
            if family == "small":
                ooms += estimator._max_bytes_sweep(state) >= CLUSTER.device_memory_bytes
    # Calls sharing every GPU run one after another: the load bound is the
    # tighter one on every such plan, and on some random ones.
    assert tighter["full"] == len(families["full"])
    assert tighter["random"] > len(families["random"]) // 10
    assert ooms > len(families["small"]) // 2


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
def test_time_bound_rejection_prices_no_memory(algorithm, monkeypatch):
    """A move rejected on a time bound leaves its memory unpriced; the plan's
    cost, memory and feasibility asked afterwards are the exact ones."""
    graph, moves = _random_moves(algorithm, 20, seed=8)
    checked = 0
    for plan, name, alloc in moves:
        moved = plan.with_assignment(name, alloc)
        estimator = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
        estimator.cost(plan)
        key = (name,) + alloc.key[4:]
        if key in estimator._mem_cache:
            continue  # the move keeps a priced strategy: nothing to observe
        calls = []
        compute = estimator._compute_mem_contrib
        monkeypatch.setattr(
            estimator, "_compute_mem_contrib", lambda *args: calls.append(args) or compute(*args)
        )
        cached = len(estimator._mem_cache)
        assert estimator.cost_delta(plan, name, alloc, reject_above=0.0) is None
        assert calls == [] and len(estimator._mem_cache) == cached
        fresh = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
        assert estimator.cost(moved) == estimator._exact_cost(moved, DEFAULT_OOM_PENALTY)
        assert estimator.cost(moved) == fresh.cost(moved)
        assert estimator.max_memory(moved) == fresh.max_memory(moved)
        assert estimator.is_feasible(moved) == fresh.is_feasible(moved)
        assert key in estimator._mem_cache
        checked += 1
    assert checked > 10


def test_remembered_state_prices_its_memory_on_first_read():
    """A revisited OOM rejection is simulated without a sweep (its entry
    holds MaxMem), so the state it leaves in the LRU has unpriced memory:
    ``max_memory`` prices it, exactly."""
    graph, moves = _random_moves("grpo", 200, seed=9, max_gpus=2)
    reference = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
    for plan, name, alloc in moves:
        moved = plan.with_assignment(name, alloc)
        if reference.is_feasible(moved):
            continue
        exact = reference._exact_cost(moved, DEFAULT_OOM_PENALTY)
        estimator = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
        # About TimeCost: the penalised bound rejects where no time bound does.
        reject_above = exact / DEFAULT_OOM_PENALTY
        assert estimator.cost_delta(plan, name, alloc, reject_above=reject_above) is None
        (entry,) = [e for e in estimator._eval_cache.values() if e.__class__ is _BoundEntry]
        if entry.max_bytes is None:
            continue  # a time bound rejected it: no OOM rejection to revisit
        assert estimator.cost_delta(plan, name, alloc) == exact
        state = estimator._states[estimator._plan_signature(moved)]
        assert state.mem is None and state.pending is not None
        assert estimator.max_memory(moved) == reference.max_memory(moved)
        assert state.pending is None and state.mem == reference._exact_state(moved).mem
        return
    pytest.fail("no OOM move was rejected on its penalised bound")


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
def test_load_bound_rejects_more_without_moving_the_chain(algorithm, monkeypatch):
    """A cross-checked chain with the load bound rejects more proposals
    than one without it, and ends exactly where that one ends."""
    searcher = _searcher(algorithm, 1, 200, 8.0, 100.0, cross_check=True)
    state = searcher.advance_chain(_chain(searcher))
    baseline = _searcher(algorithm, 1, 200, 8.0, 100.0, cross_check=True)
    monkeypatch.setattr(baseline.estimator, "_load_bound", lambda state: 0.0)
    reference = baseline.advance_chain(_chain(baseline))
    got, expected = new_loop(searcher, state, None), new_loop(baseline, reference, None)
    assert got[0].assignments == expected[0].assignments
    assert got[1:] == expected[1:]
    ours = searcher.estimator.eval_cache_stats.bound_rejections
    assert ours > baseline.estimator.eval_cache_stats.bound_rejections


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
@pytest.mark.parametrize("oom_penalty", [1.0, 100.0])
def test_cost_delta_rejects_only_above_the_threshold(algorithm, oom_penalty):
    """At a threshold equal to the exact cost nothing is rejected; just
    below it, a rejection is allowed but a returned value stays exact."""
    graph, moves = _random_moves(algorithm, 200, seed=5)
    reference = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
    rejected = 0
    for plan, name, alloc in moves:
        cost = reference._exact_cost(plan.with_assignment(name, alloc), oom_penalty)
        at = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
        assert at.cost_delta(plan, name, alloc, oom_penalty, reject_above=cost) == cost
        below = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
        value = below.cost_delta(
            plan, name, alloc, oom_penalty, reject_above=math.nextafter(cost, -math.inf)
        )
        assert value is None or value == cost
        rejected += value is None
        # The stored entry never answers cost() with a bound.
        assert below.cost(plan.with_assignment(name, alloc), oom_penalty) == cost
    assert rejected > 0


def _move(algorithm="ppo"):
    graph, moves = _random_moves(algorithm, 1, seed=11)
    return (graph,) + moves[0]


def test_bound_entry_is_retested_and_replaced():
    graph, plan, name, alloc = _move()
    moved = plan.with_assignment(name, alloc)
    estimator = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
    exact = estimator._exact_cost(moved, DEFAULT_OOM_PENALTY)
    stats = estimator.eval_cache_stats
    assert estimator.cost_delta(plan, name, alloc, reject_above=0.0) is None
    assert (stats.hits, stats.misses, stats.bound_rejections) == (0, 1, 1)
    (entry,) = estimator._eval_cache.values()
    assert isinstance(entry, _BoundEntry)
    # A revisit whose stored bound still rejects is a hit and simulates nothing.
    assert estimator.cost_delta(plan, name, alloc, reject_above=0.0) is None
    assert (stats.hits, stats.misses, stats.bound_rejections) == (1, 1, 2)
    # One whose bound no longer rejects is a miss that stores the exact value.
    assert estimator.cost_delta(plan, name, alloc) == exact
    assert (stats.hits, stats.misses, stats.bound_rejections) == (1, 2, 2)
    (entry,) = estimator._eval_cache.values()
    assert entry.__class__ is tuple
    assert estimator.cost_delta(plan, name, alloc, reject_above=0.0) == exact
    assert stats.bound_rejections == 2


def test_cost_treats_a_bound_entry_as_a_miss():
    """``cost()`` scores through ``cost_delta``'s routine: an absent entry
    and a bound entry are misses, an exact entry a hit, each value exact."""
    graph, plan, name, alloc = _move("grpo")
    moved = plan.with_assignment(name, alloc)
    estimator = RuntimeEstimator(graph, WORKLOAD, CLUSTER)
    stats = estimator.eval_cache_stats
    assert estimator.cost(plan) == estimator._exact_cost(plan, DEFAULT_OOM_PENALTY)
    assert (stats.hits, stats.misses) == (0, 1)
    assert estimator.cost_delta(plan, name, alloc, reject_above=0.0) is None
    assert (stats.hits, stats.misses, stats.bound_rejections) == (0, 2, 1)
    expected = estimator._exact_cost(moved, DEFAULT_OOM_PENALTY)
    assert estimator.cost(moved) == expected
    assert (stats.hits, stats.misses) == (0, 3)
    assert estimator.cost(moved) == expected
    assert (stats.hits, stats.misses, stats.bound_rejections) == (1, 3, 1)


def test_cross_check_catches_a_poisoned_exact_entry_in_cost_delta():
    graph, plan, name, alloc = _move()
    estimator = RuntimeEstimator(graph, WORKLOAD, CLUSTER, cross_check=True)
    estimator.cost_delta(plan, name, alloc)
    (signature,) = [
        sig for sig in estimator._eval_cache if sig != estimator._plan_signature(plan)
    ]
    total, max_bytes = estimator._eval_cache[signature]
    estimator._eval_cache[signature] = (total * 1.5, max_bytes)
    with pytest.raises(RuntimeError, match=r"cross-check failed in cost_delta"):
        estimator.cost_delta(plan, name, alloc)


def test_cross_check_catches_a_poisoned_bound_in_cost_delta():
    graph, plan, name, alloc = _move()
    estimator = RuntimeEstimator(graph, WORKLOAD, CLUSTER, cross_check=True)
    exact = estimator._exact_cost(plan.with_assignment(name, alloc), DEFAULT_OOM_PENALTY)
    assert estimator.cost_delta(plan, name, alloc, reject_above=0.0) is None
    (signature,) = list(estimator._eval_cache)
    # A bound above the true cost would reject a move the chain may accept.
    estimator._eval_cache[signature] = _BoundEntry(exact * 2.0, None)
    with pytest.raises(RuntimeError, match="a bound rejected the plan"):
        estimator.cost_delta(plan, name, alloc, reject_above=exact * 1.5)


def test_service_publishes_bound_rejections():
    """The gauge reads the one counter every estimator of the service
    counts into, and each request's search adds to it."""
    registry = MetricsRegistry()
    requests = [
        PlanRequest(
            build_ppo_graph(),
            instructgpt_workload("7b", "7b", batch_size=batch_size),
            make_cluster(8),
            search=SearchConfig(max_iterations=200, time_budget_s=600.0, seed=1),
        )
        for batch_size in (64, 128)
    ]
    with PlanService(registry=registry) as service:
        counts = [0]
        for request in requests:
            service.plan(request)
            counts.append(service._eval_cache_stats.bound_rejections)
        assert counts[0] < counts[1] < counts[2]
        estimators = [problem.estimator for problem in service._problems.values()]
        assert len(estimators) == 2
        assert all(e.eval_cache_stats is service._eval_cache_stats for e in estimators)
        gauge = registry.to_dict()["metrics"]["service_eval_cache_bound_rejections"]
        assert gauge["series"][0]["value"] == counts[-1]
