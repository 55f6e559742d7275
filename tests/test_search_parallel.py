"""Tests for process-parallel plan search and the core-budget governor.

The headline invariant of :mod:`repro.core.parallel_search` is that parallel
and sequential chain execution are *bit-identical* for the same seeds: the
execution mode may change wall-clock time, never results.  These tests pin
that property (for PPO and GRPO, over several seeds), the picklability of the
chain work units, the governor's accounting, the new timing fields of
``SearchResult`` and the bounded estimator eval cache.
"""

import pickle

import pytest

from repro.algorithms import build_grpo_graph, build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    CoreBudget,
    MCMCSearcher,
    RuntimeEstimator,
    SearchConfig,
    allocation_options,
    instructgpt_workload,
)
from repro.core.parallel_search import (
    ChainProblem,
    ChainSpec,
    ParallelSearchRunner,
    _init_chain_worker,
    _run_chain_in_worker,
)


@pytest.fixture(scope="module")
def cluster8():
    return make_cluster(8)


@pytest.fixture(scope="module")
def workload_small():
    return instructgpt_workload("7b", "7b", batch_size=64)


def _graph(algorithm: str):
    return build_ppo_graph() if algorithm == "ppo" else build_grpo_graph()


def _search(graph, workload, cluster, config, **kwargs):
    return MCMCSearcher(graph, workload, cluster, config=config, **kwargs).search()


class TestCoreBudget:
    def test_acquire_grants_up_to_available(self):
        budget = CoreBudget(total=4)
        assert budget.acquire(3) == 3
        assert budget.in_use == 3
        assert budget.acquire(3) == 1  # only one core left
        assert budget.available == 0

    def test_minimum_blocks_partial_grants(self):
        budget = CoreBudget(total=4)
        assert budget.acquire(3, minimum=2) == 3
        # One core free: a minimum of two must yield nothing at all.
        assert budget.acquire(2, minimum=2) == 0
        assert budget.in_use == 3

    def test_release_and_lease(self):
        budget = CoreBudget(total=2)
        with budget.lease(2) as granted:
            assert granted == 2
            assert budget.available == 0
        assert budget.available == 2
        # Release never drives usage negative.
        budget.release(5)
        assert budget.in_use == 0

    def test_zero_and_negative_requests(self):
        budget = CoreBudget(total=2)
        assert budget.acquire(0) == 0
        assert budget.acquire(-3) == 0
        assert budget.in_use == 0

    def test_invalid_total_rejected(self):
        with pytest.raises(ValueError):
            CoreBudget(total=0)


class TestChainPickling:
    def test_chain_spec_and_problem_round_trip(self, cluster8, workload_small):
        graph = build_ppo_graph()
        options = allocation_options(graph, workload_small, cluster8)
        config = SearchConfig(max_iterations=10, seed=3, n_chains=2)
        searcher = MCMCSearcher(
            graph, workload_small, cluster8, options=options, config=config
        )
        start = searcher.greedy_initial_plan()
        problem = ChainProblem(
            graph=graph,
            workload=workload_small,
            cluster=cluster8,
            options=options,
            config=config,
            start_assignments=dict(start.assignments),
            start_plan_name=start.name,
            start_cost=1.25,
        )
        spec = ChainSpec(chain=1, max_iterations=10)
        revived_spec = pickle.loads(pickle.dumps(spec))
        assert revived_spec == spec
        revived = pickle.loads(pickle.dumps(problem))
        assert revived.start_cost == problem.start_cost
        assert revived.start_plan().to_dict() == start.to_dict()
        assert list(revived.options) == list(options)
        assert all(
            len(revived.options[name]) == len(options[name]) for name in options
        )
        # The revived problem rebuilds a working searcher.
        rebuilt = revived.build_searcher()
        assert rebuilt.graph.call_names == graph.call_names

    def test_worker_entrypoints_match_in_process_chain(self, cluster8, workload_small):
        graph = build_ppo_graph()
        options = allocation_options(graph, workload_small, cluster8)
        config = SearchConfig(max_iterations=60, time_budget_s=30, seed=11, n_chains=2)
        searcher = MCMCSearcher(
            graph, workload_small, cluster8, options=options, config=config
        )
        start = searcher.greedy_initial_plan()
        start_cost = searcher.estimator.cost(start, config.oom_penalty)
        problem = ChainProblem(
            graph=graph,
            workload=workload_small,
            cluster=cluster8,
            options=options,
            config=config,
            start_assignments=dict(start.assignments),
            start_plan_name=start.name,
            start_cost=start_cost,
        )
        # Simulate the worker lifecycle in-process, through a pickle boundary.
        _init_chain_worker(pickle.loads(pickle.dumps(problem)))
        worker_result = _run_chain_in_worker(ChainSpec(chain=1, max_iterations=30))
        local_result = searcher.advance_chain(
            searcher.init_chain_state(1, start, start_cost, 30)
        ).to_result()
        assert worker_result.best_cost == local_result.best_cost
        assert worker_result.n_iterations == local_result.n_iterations
        assert worker_result.n_accepted == local_result.n_accepted
        assert worker_result.best_plan.to_dict() == local_result.best_plan.to_dict()


class TestParallelDeterminism:
    @pytest.mark.parametrize("algorithm", ["ppo", "grpo"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_parallel_equals_sequential(self, algorithm, seed, cluster8, workload_small):
        """Property: for any (algorithm, seed), chains executed on worker
        processes produce the same best plan/cost as in-process chains."""
        graph = _graph(algorithm)
        options = allocation_options(graph, workload_small, cluster8)
        base = SearchConfig(
            max_iterations=160, time_budget_s=60, seed=seed, n_chains=2, parallel="off"
        )
        sequential = _search(graph, workload_small, cluster8, base, options=options)
        import dataclasses

        forced = dataclasses.replace(base, parallel="process")
        parallel = _search(graph, workload_small, cluster8, forced, options=options)
        if parallel.execution_mode != "process":
            pytest.skip("no process pool available in this environment")
        assert parallel.best_cost == sequential.best_cost
        assert parallel.best_plan.to_dict() == sequential.best_plan.to_dict()
        assert parallel.n_iterations == sequential.n_iterations
        assert parallel.n_accepted == sequential.n_accepted
        # Merged histories agree on everything except wall-clock samples.
        assert [(i, c) for i, _, c in parallel.history] == [
            (i, c) for i, _, c in sequential.history
        ]

    def test_single_chain_matches_pre_parallel_stream(self, cluster8, workload_small):
        # Chain 0 must keep the classic single-chain RNG stream: two fresh
        # searchers with the same seed agree regardless of execution mode.
        graph = build_ppo_graph()
        config = SearchConfig(max_iterations=120, time_budget_s=60, seed=4)
        r1 = _search(graph, workload_small, cluster8, config)
        r2 = _search(graph, workload_small, cluster8, config)
        assert r1.best_cost == r2.best_cost
        assert r1.execution_mode == "sequential"  # n_chains=1 never forks


class TestExecutionModeSelection:
    def test_auto_stays_sequential_for_tiny_budgets(self, cluster8, workload_small):
        graph = build_ppo_graph()
        config = SearchConfig(
            max_iterations=50, time_budget_s=0.2, seed=0, n_chains=4, parallel="auto"
        )
        result = _search(graph, workload_small, cluster8, config)
        assert result.execution_mode == "sequential"
        assert result.n_workers == 1

    def test_auto_respects_core_budget_governor(self, cluster8, workload_small):
        graph = build_ppo_graph()
        # A big-enough search, but the governor has no spare cores to grant.
        starved = CoreBudget(total=1)
        config = SearchConfig(
            max_iterations=100_000, time_budget_s=5.0, seed=0, n_chains=4,
            parallel="auto",
        )
        searcher = MCMCSearcher(
            graph, workload_small, cluster8, config=config, core_budget=starved
        )
        runner = ParallelSearchRunner(core_budget=starved)
        specs = searcher._chain_specs(4)
        start = searcher.greedy_initial_plan()
        start_cost = searcher.estimator.cost(start, config.oom_penalty)
        assert runner.run(searcher, specs, start, start_cost) is None
        assert starved.in_use == 0  # nothing leaked

    def test_off_mode_never_forks(self, cluster8, workload_small):
        graph = build_ppo_graph()
        config = SearchConfig(
            max_iterations=40, time_budget_s=30, seed=2, n_chains=3, parallel="off"
        )
        result = _search(graph, workload_small, cluster8, config)
        assert result.execution_mode == "sequential"

    def test_invalid_parallel_mode_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(parallel="threads")

    def test_custom_estimator_subclass_never_forks(self, cluster8, workload_small):
        # Workers rebuild a plain RuntimeEstimator from shipped config; a
        # custom subclass cannot be reproduced that way, so its searches must
        # stay in-process even when parallelism is forced.
        class TweakedEstimator(RuntimeEstimator):
            pass

        graph = build_ppo_graph()
        config = SearchConfig(
            max_iterations=40, time_budget_s=30, seed=0, n_chains=2, parallel="process"
        )
        result = MCMCSearcher(
            graph, workload_small, cluster8,
            estimator=TweakedEstimator(graph, workload_small, cluster8),
            config=config,
        ).search()
        assert result.execution_mode == "sequential"

    def test_estimator_config_ships_to_workers(self, cluster8, workload_small):
        # A non-default estimator configuration (cross_check) must reach the
        # worker-side estimator, not be silently reset to defaults.
        graph = build_ppo_graph()
        options = allocation_options(graph, workload_small, cluster8)
        estimator = RuntimeEstimator(graph, workload_small, cluster8, cross_check=True)
        config = SearchConfig(max_iterations=10, seed=0, n_chains=2)
        searcher = MCMCSearcher(
            graph, workload_small, cluster8, estimator=estimator,
            options=options, config=config,
        )
        start = searcher.greedy_initial_plan()
        runner_problem = ChainProblem(
            graph=graph, workload=workload_small, cluster=cluster8,
            options=options, config=config,
            start_assignments=dict(start.assignments),
            start_plan_name=start.name, start_cost=1.0,
            profiles=estimator.profiles,
            use_cuda_graph=estimator.use_cuda_graph,
            use_cache=estimator.use_cache,
            cross_check=estimator.cross_check,
        )
        rebuilt = pickle.loads(pickle.dumps(runner_problem)).build_searcher()
        assert rebuilt.estimator.cross_check is True
        assert rebuilt.estimator.use_cache is True

    def test_governor_released_after_forced_run(self, cluster8, workload_small):
        graph = build_ppo_graph()
        budget = CoreBudget(total=2)
        config = SearchConfig(
            max_iterations=40, time_budget_s=30, seed=1, n_chains=2, parallel="process"
        )
        result = MCMCSearcher(
            graph, workload_small, cluster8, config=config, core_budget=budget
        ).search()
        assert budget.in_use == 0
        if result.execution_mode == "process":
            assert result.n_workers == 2


class TestSearchResultTimings:
    def test_sequential_timing_fields(self, cluster8, workload_small):
        graph = build_ppo_graph()
        config = SearchConfig(max_iterations=90, time_budget_s=30, seed=0, n_chains=3,
                              parallel="off")
        result = _search(graph, workload_small, cluster8, config)
        assert len(result.chain_wall_seconds) == 3
        assert len(result.chain_cpu_seconds) == 3
        assert result.cpu_seconds == pytest.approx(sum(result.chain_cpu_seconds))
        # True wall clock covers initial-candidate evaluation plus all chains.
        assert result.elapsed_seconds >= max(result.chain_wall_seconds)
        assert result.elapsed_seconds > 0

    def test_parallel_wall_clock_is_not_chain_sum(self, cluster8, workload_small):
        graph = build_ppo_graph()
        config = SearchConfig(
            max_iterations=400, time_budget_s=60, seed=0, n_chains=4, parallel="process"
        )
        result = _search(graph, workload_small, cluster8, config)
        if result.execution_mode != "process":
            pytest.skip("no process pool available in this environment")
        assert len(result.chain_wall_seconds) == 4
        # The aggregate wall time is measured by the caller, not summed from
        # chains: it must be far below the sequential sum plus pool start-up
        # (the old bug reported the chains' sequential timeline).
        assert result.elapsed_seconds < sum(result.chain_wall_seconds) + 60.0
        assert result.parallel_efficiency >= 0.0


class TestEvalCacheLRU:
    def _plans(self, searcher, n):
        """n distinct plans: vary one call's allocation of the greedy plan."""
        base = searcher.greedy_initial_plan()
        call = searcher.graph.call_names[0]
        choices = searcher.options[call]
        assert len(choices) >= n
        return [base.with_assignment(call, choices[i]) for i in range(n)]

    def test_lru_caps_size_and_counts_evictions(self, cluster8, workload_small):
        graph = build_ppo_graph()
        estimator = RuntimeEstimator(graph, workload_small, cluster8, eval_cache_size=2)
        searcher = MCMCSearcher(graph, workload_small, cluster8, estimator=estimator)
        plans = self._plans(searcher, 3)
        for plan in plans:
            estimator.cost(plan)
        stats = estimator.eval_cache_stats
        assert stats.misses == 3
        assert stats.evictions == 1
        assert len(estimator._eval_cache) == 2
        # Re-evaluating the most recent plan hits; the evicted one misses.
        estimator.cost(plans[2])
        assert stats.hits == 1
        estimator.cost(plans[0])
        assert stats.misses == 4
        assert stats.hit_rate == pytest.approx(1 / 5)
        data = stats.to_dict()
        assert data["evictions"] >= 2

    def test_cached_values_identical_after_eviction(self, cluster8, workload_small):
        graph = build_ppo_graph()
        tiny = RuntimeEstimator(graph, workload_small, cluster8, eval_cache_size=1)
        reference = RuntimeEstimator(graph, workload_small, cluster8)
        searcher = MCMCSearcher(graph, workload_small, cluster8, estimator=tiny)
        for plan in self._plans(searcher, 3):
            assert tiny.cost(plan) == reference.cost(plan)

    def test_invalid_capacity_rejected(self, cluster8, workload_small):
        graph = build_ppo_graph()
        with pytest.raises(ValueError):
            RuntimeEstimator(graph, workload_small, cluster8, eval_cache_size=0)


class TestServiceParallelSearch:
    def test_service_counts_parallel_searches(self, cluster8, workload_small):
        from repro.service import PlanRequest, PlanService

        graph = build_ppo_graph()
        with PlanService(max_workers=1, core_budget=CoreBudget(total=8)) as service:
            request = PlanRequest(
                graph=graph,
                workload=workload_small,
                cluster=cluster8,
                search=SearchConfig(
                    max_iterations=80, time_budget_s=30, seed=0, n_chains=2,
                    parallel="process", record_history=False,
                ),
            )
            response = service.plan(request)
            if response.result.execution_mode != "process":
                pytest.skip("no process pool available in this environment")
            assert service.stats.parallel_searches == 1
            assert service.stats.snapshot().to_dict()["parallel_searches"] == 1
