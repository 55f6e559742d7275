"""Tests for the fast-path estimator: memoisation, ``cost_delta`` and chains.

The incremental path must be *bit-for-bit* identical to a full recompute:
the memo caches store values of pure functions, and a single-call move only
replaces the components that move can affect.  The property-style suite
below walks randomized move sequences over the tier-1 fixture graphs and
cross-checks every step against the estimator's from-scratch ``_exact_cost``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.algorithms import build_grpo_graph, build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    Allocation,
    CallCostModel,
    CallCostTable,
    DataflowGraph,
    ExecutionPlan,
    MCMCSearcher,
    ParallelStrategy,
    RuntimeEstimator,
    allocation_options,
    instructgpt_workload,
    symmetric_plan,
)
from repro.core.estimator import DEFAULT_OOM_PENALTY


@pytest.fixture(scope="module")
def cluster16():
    return make_cluster(16)


@pytest.fixture(scope="module")
def workload():
    return instructgpt_workload("7b", "7b", batch_size=128)


def _fixture(graph_builder, workload, cluster):
    graph = graph_builder()
    fast = RuntimeEstimator(graph, workload, cluster)

    def exact(plan):
        return fast._exact_cost(plan, DEFAULT_OOM_PENALTY)

    options = allocation_options(graph, workload, cluster)
    start = {name: choices[0] for name, choices in options.items()}
    return graph, fast, exact, options, ExecutionPlan(start, name="start")


@pytest.fixture(scope="module")
def ppo_fixture(workload, cluster16):
    return _fixture(build_ppo_graph, workload, cluster16)


@pytest.fixture(scope="module")
def grpo_fixture(workload, cluster16):
    return _fixture(build_grpo_graph, workload, cluster16)


class TestFastPathConsistency:
    def test_cost_matches_uncached_estimator(self, ppo_fixture):
        graph, fast, exact, options, plan = ppo_fixture
        assert fast.cost(plan) == exact(plan)
        # Second evaluation is served from caches and must not drift.
        assert fast.cost(plan) == exact(plan)

    def test_time_cost_and_memory_match(self, ppo_fixture):
        graph, fast, exact, options, plan = ppo_fixture
        state = fast._exact_state(plan)
        assert fast._state_for(plan) == state
        total, spans = fast._simulate(state, collect_spans=True)
        fast_tc = fast.time_cost(plan)
        assert fast_tc.total_seconds == total
        assert fast_tc.spans == spans
        assert list(fast_tc.call_seconds.values()) == state.durations
        per_gpu, _static = fast._aggregate_memory(state)
        n_gpus = fast.cluster.n_gpus
        expected = {g: per_gpu.get(g, 0.0) for g in range(n_gpus)}
        assert fast.max_memory(plan).per_gpu == expected

    def test_cost_delta_equals_full_cost_of_moved_plan(self, ppo_fixture):
        graph, fast, exact, options, plan = ppo_fixture
        call_name = graph.call_names[0]
        for alloc in options[call_name][:10]:
            moved = plan.with_assignment(call_name, alloc)
            assert fast.cost_delta(plan, call_name, alloc) == exact(moved)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_move_sequences_ppo(self, ppo_fixture, seed):
        self._random_walk(ppo_fixture, seed)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_move_sequences_grpo(self, grpo_fixture, seed):
        self._random_walk(grpo_fixture, seed)

    @staticmethod
    def _random_walk(fixture, seed, n_moves=12):
        graph, fast, exact, options, plan = fixture
        rng = np.random.default_rng(seed)
        names = graph.call_names
        current = plan
        for _ in range(n_moves):
            call_name = names[int(rng.integers(len(names)))]
            choices = options[call_name]
            alloc = choices[int(rng.integers(len(choices)))]
            fast_cost = fast.cost_delta(current, call_name, alloc)
            moved = current.with_assignment(call_name, alloc)
            assert fast_cost == exact(moved)
            assert fast.cost(moved) == fast_cost
            if rng.random() < 0.5:  # mix accepted and rejected moves
                current = moved


class TestCrossCheckMode:
    def test_cross_check_passes_on_consistent_estimator(self, workload, cluster16):
        graph = build_ppo_graph()
        estimator = RuntimeEstimator(graph, workload, cluster16, cross_check=True)
        options = allocation_options(graph, workload, cluster16)
        plan = ExecutionPlan({n: c[0] for n, c in options.items()})
        estimator.cost(plan)
        rng = np.random.default_rng(0)
        names = graph.call_names
        for _ in range(10):
            call_name = names[int(rng.integers(len(names)))]
            choices = options[call_name]
            estimator.cost_delta(plan, call_name, choices[int(rng.integers(len(choices)))])

    def test_cross_check_detects_poisoned_cache(self, workload, cluster16):
        graph = build_ppo_graph()
        estimator = RuntimeEstimator(graph, workload, cluster16, cross_check=True)
        options = allocation_options(graph, workload, cluster16)
        plan = ExecutionPlan({n: c[0] for n, c in options.items()})
        estimator.cost(plan)
        # Corrupt a memoised call time: the fast path now disagrees with the
        # full recompute and the cross-check must catch it.
        key = next(iter(estimator._call_time_cache))
        estimator._call_time_cache[key] += 1.0
        estimator._states.clear()
        estimator._eval_cache.clear()
        with pytest.raises(RuntimeError, match="cross-check"):
            estimator.cost(plan)


def _content_shape(cost_model, call, wl, alloc):
    """What one call time depends on: the call's content and the shape."""
    return (
        call.call_type, cost_model.config, wl, cost_model.cluster.with_nodes(1),
        cost_model.use_cuda_graph, alloc.mesh.n_nodes, alloc.mesh.gpus_per_node,
        alloc.parallel.dp, alloc.parallel.tp, alloc.parallel.pp,
        alloc.n_microbatches, alloc.zero3,
    )


def _option_content_shapes(graph, workload, cluster, options):
    estimator = RuntimeEstimator(graph, workload, cluster)
    return {
        _content_shape(
            estimator.cost_model(call.model_name), call,
            workload.call_workload(call), alloc,
        )
        for call in graph.calls
        for alloc in options[call.name]
    }


@pytest.fixture
def priced(monkeypatch):
    """Every (content, shape) that ``CallCostModel.breakdown`` computes."""
    scored = []
    breakdown = CallCostModel.breakdown

    def counting_breakdown(self, call, wl, alloc):
        scored.append(_content_shape(self, call, wl, alloc))
        return breakdown(self, call, wl, alloc)

    monkeypatch.setattr(CallCostModel, "breakdown", counting_breakdown)
    return scored


class TestShapeKeyedMemos:
    @pytest.mark.parametrize("build", [build_ppo_graph, build_grpo_graph], ids=["ppo", "grpo"])
    def test_greedy_init_scores_each_call_shape_once(
        self, build, workload, cluster16, priced
    ):
        """Counts model evaluations, not seconds: one per distinct call
        content and shape, so calls with equal content share prices."""
        graph = build()
        options = allocation_options(graph, workload, cluster16)
        plan = MCMCSearcher(
            graph, workload, cluster16,
            estimator=RuntimeEstimator(graph, workload, cluster16),
            options=options,
        ).greedy_initial_plan()
        n_options = sum(len(choices) for choices in options.values())
        assert len(priced) == len(set(priced)) < n_options
        assert set(priced) == _option_content_shapes(graph, workload, cluster16, options)
        # Same option objects as a from-scratch ``min`` over every option:
        # option order and tie-breaks are unchanged.
        reference = RuntimeEstimator(graph, workload, cluster16)
        for name in graph.call_names:
            fastest = min(
                options[name],
                key=lambda alloc: reference._compute_breakdown(name, alloc).total,
            )
            assert plan[name] is fastest

    def test_shared_table_prices_only_new_content_shapes(self, workload, cluster16, priced):
        """A second request through one table prices only what the first
        did not, across graphs and cluster sizes."""
        table = CallCostTable()
        cluster32 = make_cluster(32)
        for build, cluster in ((build_ppo_graph, cluster16), (build_grpo_graph, cluster32)):
            graph = build()
            options = allocation_options(graph, workload, cluster)
            before = len(priced)
            MCMCSearcher(
                graph, workload, cluster,
                estimator=RuntimeEstimator(graph, workload, cluster, call_costs=table),
                options=options,
            ).greedy_initial_plan()
            new = priced[before:]
            expected = _option_content_shapes(graph, workload, cluster, options)
            assert len(new) == len(set(new))
            assert set(new) == expected - set(priced[:before])
        assert table.priced == len(priced)


class TestEmptyGraph:
    def test_empty_graph_time_cost_is_zero(self, workload, cluster16):
        graph = DataflowGraph(calls=[], external_inputs=("prompts",), name="empty")
        estimator = RuntimeEstimator(graph, workload, cluster16)
        plan = ExecutionPlan({}, name="empty")
        result = estimator.time_cost(plan)
        assert result.total_seconds == 0.0
        assert result.spans == {}
        assert result.realloc_seconds == 0.0
        assert estimator.cost(plan) == 0.0
        assert estimator.is_feasible(plan)


class TestInterleavedSharing:
    def test_walks_share_one_estimator(self, workload, cluster16):
        # Four seeded random walks share one estimator and take their steps
        # in turn, so the plan-state LRU and the eval cache hold the other
        # walks' plans between a walk's moves.  Exact and bound entries of
        # the four walks must never give a wrong answer: a value is exact, a
        # rejection is above its threshold.
        graph = build_ppo_graph()
        estimator = RuntimeEstimator(graph, workload, cluster16)
        options = allocation_options(graph, workload, cluster16)
        plan = ExecutionPlan({n: c[0] for n, c in options.items()})
        names = graph.call_names
        rngs = [np.random.default_rng(seed) for seed in range(4)]
        currents = [plan] * len(rngs)
        answers = []
        for _ in range(1500):
            for walk, rng in enumerate(rngs):
                call_name = names[int(rng.integers(len(names)))]
                choices = options[call_name]
                alloc = choices[int(rng.integers(len(choices)))]
                threshold = float(rng.choice([np.inf, 10.0, 30.0, 100.0]))
                value = estimator.cost_delta(
                    currents[walk], call_name, alloc, reject_above=threshold
                )
                currents[walk] = currents[walk].with_assignment(call_name, alloc)
                answers.append((currents[walk], threshold, value))
        assert len(answers) == 4 * 1500
        reference = RuntimeEstimator(graph, workload, cluster16)
        for moved, threshold, value in answers:
            exact = reference.cost(moved)
            assert exact > threshold if value is None else value == exact
        assert any(value is None for _, _, value in answers)


class TestEstimatorSharing:
    def test_experiment_config_reuses_estimator(self, workload, cluster16):
        from repro.core.api import ExperimentConfig
        from repro.core import SearchConfig

        config = ExperimentConfig(
            graph=build_ppo_graph(),
            workload=workload,
            cluster=cluster16,
            search=SearchConfig(max_iterations=5, time_budget_s=5.0),
        )
        first = config.get_estimator()
        config.run_search()
        assert config.get_estimator() is first
