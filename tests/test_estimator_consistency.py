"""Consistency checks for the single plan-scoring path.

The memoised ``cost()`` / incremental ``cost_delta()`` fast path returns
exactly the floats the from-scratch ``_exact_cost`` returns — on PPO and GRPO,
across seeds, including OOM-penalized and empty-graph plans — and a search
driven by it, sliced or not, lands on the same result.
"""

import numpy as np
import pytest

from repro.algorithms import build_grpo_graph, build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    ExecutionPlan,
    MCMCSearcher,
    RuntimeEstimator,
    SearchConfig,
    SearchSession,
    allocation_options,
    instructgpt_workload,
)
from repro.core.dataflow import DataflowGraph
from repro.core.estimator import DEFAULT_OOM_PENALTY


@pytest.fixture(scope="module")
def cluster8():
    return make_cluster(8)


@pytest.fixture(scope="module")
def workload_small():
    return instructgpt_workload("7b", "7b", batch_size=64)


def _graph(algorithm: str):
    return build_ppo_graph() if algorithm == "ppo" else build_grpo_graph()


def _setup(algorithm, workload, cluster):
    graph = _graph(algorithm)
    options = allocation_options(graph, workload, cluster)
    estimator = RuntimeEstimator(graph, workload, cluster)
    searcher = MCMCSearcher(
        graph, workload, cluster, estimator=estimator, options=options
    )
    return graph, options, estimator, searcher


def _random_plans(graph, options, n, seed):
    rng = np.random.default_rng(seed)
    plans = []
    for i in range(n):
        assignment = {
            call.name: options[call.name][rng.integers(len(options[call.name]))]
            for call in graph.calls
        }
        plans.append(ExecutionPlan(assignment, name=f"rand-{i}"))
    return plans


def _random_moves(graph, options, n, seed):
    rng = np.random.default_rng(seed)
    names = [call.name for call in graph.calls]
    moves = []
    for _ in range(n):
        name = names[rng.integers(len(names))]
        moves.append((name, options[name][rng.integers(len(options[name]))]))
    return moves


class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", ["ppo", "grpo"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_plans_match_scalar_cost(
        self, algorithm, seed, workload_small, cluster8
    ):
        graph, options, estimator, _ = _setup(algorithm, workload_small, cluster8)
        plans = _random_plans(graph, options, 24, seed)
        cold = [estimator.cost(plan) for plan in plans]
        # Second pass is served from the signature-keyed eval cache.
        warm = [estimator.cost(plan) for plan in plans]
        assert warm == cold
        for plan, got in zip(plans, cold):
            assert got == estimator._exact_cost(plan, DEFAULT_OOM_PENALTY)

    @pytest.mark.parametrize("algorithm", ["ppo", "grpo"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_moves_match_scalar_cost_delta(
        self, algorithm, seed, workload_small, cluster8
    ):
        graph, options, estimator, searcher = _setup(
            algorithm, workload_small, cluster8
        )
        base = searcher.greedy_initial_plan()
        for name, alloc in _random_moves(graph, options, 48, seed):
            got = estimator.cost_delta(base, name, alloc)
            moved = base.with_assignment(name, alloc)
            assert got == estimator._exact_cost(moved, DEFAULT_OOM_PENALTY)

    def test_oom_penalized_plans_match(self, workload_small):
        # Shrink device memory so plenty of (otherwise prunable-feasible)
        # allocations exceed it: the OOM boundary + penalty is exercised
        # for real.
        from repro.cluster import GPUSpec, make_cluster as _mk

        tight = _mk(8, gpu=GPUSpec(memory_gb=18.0))
        graph, options, estimator, _ = _setup("ppo", workload_small, tight)
        plans = _random_plans(graph, options, 16, 0)
        penalized = [
            estimator.cost(p, oom_penalty=100.0) != estimator.cost(p, oom_penalty=1.0)
            for p in plans
        ]
        assert any(penalized), "setup failed to produce any OOM-penalized plan"
        for plan in plans:
            assert estimator.cost(plan, oom_penalty=100.0) == estimator._exact_cost(
                plan, 100.0
            )
        base = plans[0]
        for name, alloc in _random_moves(graph, options, 16, 1):
            assert estimator.cost_delta(
                base, name, alloc, oom_penalty=100.0
            ) == estimator._exact_cost(base.with_assignment(name, alloc), 100.0)

    def test_empty_graph_scores_zero(self, workload_small, cluster8):
        graph = DataflowGraph(calls=[], external_inputs=("prompts",), name="empty")
        plan = ExecutionPlan({}, name="empty")
        estimator = RuntimeEstimator(graph, workload_small, cluster8)
        assert estimator.cost(plan) == 0.0
        assert estimator._exact_cost(plan, DEFAULT_OOM_PENALTY) == 0.0

    def test_cross_check_verifies_every_row(self, workload_small, cluster8):
        graph = build_ppo_graph()
        options = allocation_options(graph, workload_small, cluster8)
        estimator = RuntimeEstimator(
            graph, workload_small, cluster8, cross_check=True
        )
        searcher = MCMCSearcher(
            graph, workload_small, cluster8, estimator=estimator, options=options
        )
        base = searcher.greedy_initial_plan()
        # Passes only if every move equals the full recompute bit-for-bit.
        for name, alloc in _random_moves(graph, options, 16, 5):
            estimator.cost_delta(base, name, alloc)


class TestBatchedChainParity:
    @pytest.mark.parametrize("algorithm", ["ppo", "grpo"])
    def test_batched_equals_scalar_trajectory(
        self, algorithm, workload_small, cluster8
    ):
        def run(cross_check):
            config = SearchConfig(
                max_iterations=250, time_budget_s=60.0, seed=11, record_history=True
            )
            graph = _graph(algorithm)
            estimator = RuntimeEstimator(
                graph, workload_small, cluster8, cross_check=cross_check
            )
            return MCMCSearcher(
                graph, workload_small, cluster8, config=config, estimator=estimator
            ).search()

        # The memoised incremental path must walk exactly the chain that
        # from-scratch scoring walks: the cross-checked run raises on any
        # score that differs from ``_exact_cost`` (a bound rejection included).
        memoised = run(False)
        checked = run(True)
        assert memoised.best_cost == checked.best_cost
        assert memoised.best_plan.to_dict() == checked.best_plan.to_dict()
        assert memoised.n_accepted == checked.n_accepted
        assert [(i, c) for i, _, c in memoised.history] == [
            (i, c) for i, _, c in checked.history
        ]


class TestSessionPollParity:
    @pytest.mark.parametrize("algorithm", ["ppo", "grpo"])
    def test_sliced_batched_equals_unsliced(
        self, algorithm, workload_small, cluster8
    ):
        kwargs = dict(max_iterations=60, time_budget_s=60.0, seed=4, n_chains=2)
        reference = MCMCSearcher(
            _graph(algorithm), workload_small, cluster8, config=SearchConfig(**kwargs)
        ).search()
        session = SearchSession(
            MCMCSearcher(
                _graph(algorithm),
                workload_small,
                cluster8,
                config=SearchConfig(**kwargs),
            ),
            slice_iterations=7,
        )
        while not session.done:
            session.poll()
        result = session.stop()
        assert result.best_cost == reference.best_cost
        assert result.best_plan.to_dict() == reference.best_plan.to_dict()
        assert result.n_iterations == reference.n_iterations
