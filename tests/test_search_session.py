"""Tests for resumable search sessions (online re-planning's core primitive).

The headline invariant: a :class:`SearchSession` polled in N slices reaches
*exactly* the same best plan/cost — and the same per-chain trajectories — as
one uninterrupted ``search()`` with the same seed and total budget, for PPO
and GRPO.  Each chain's RNG travels inside its checkpointed
:class:`ChainState`, so slicing can never change the outcome.  Also covered
here: the :class:`SearchConfig` budget validation, the session lifecycle
(budgets, done, stop), the single-chain RNG stream and the search timing
fields.
"""

import pickle

import pytest

from repro.algorithms import build_grpo_graph, build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    ChainState,
    MCMCSearcher,
    RuntimeEstimator,
    SearchConfig,
    SearchProblem,
    SearchSession,
    instructgpt_workload,
)


@pytest.fixture(scope="module")
def cluster8():
    return make_cluster(8)


@pytest.fixture(scope="module")
def workload_small():
    return instructgpt_workload("7b", "7b", batch_size=64)


def _graph(algorithm: str):
    return build_ppo_graph() if algorithm == "ppo" else build_grpo_graph()


def _searcher(algorithm, workload, cluster, **cfg_kwargs):
    config = SearchConfig(**cfg_kwargs)
    return MCMCSearcher(_graph(algorithm), workload, cluster, config=config)


def _assert_identical(session_result, reference):
    assert session_result.best_cost == reference.best_cost
    assert session_result.best_plan.to_dict() == reference.best_plan.to_dict()
    assert session_result.n_iterations == reference.n_iterations
    assert session_result.n_accepted == reference.n_accepted
    assert [(i, c) for i, _, c in session_result.history] == [
        (i, c) for i, _, c in reference.history
    ]


class TestSlicedDeterminism:
    @pytest.mark.parametrize("algorithm", ["ppo", "grpo"])
    @pytest.mark.parametrize("slice_iterations", [1, 7, 25])
    def test_sliced_equals_unsliced_sequential(
        self, algorithm, slice_iterations, cluster8, workload_small
    ):
        kwargs = dict(max_iterations=50, time_budget_s=60.0, seed=3, n_chains=2)
        reference = _searcher(algorithm, workload_small, cluster8, **kwargs).search()
        session = SearchSession(
            _searcher(algorithm, workload_small, cluster8, **kwargs),
            slice_iterations=slice_iterations,
        )
        while not session.done:
            session.poll()
        _assert_identical(session.stop(), reference)


class TestSharedProblem:
    KWARGS = dict(max_iterations=60, time_budget_s=60.0, seed=5, n_chains=2)

    @pytest.mark.parametrize("algorithm", ["ppo", "grpo"])
    def test_reused_problem_gives_the_fresh_result(
        self, algorithm, cluster8, workload_small
    ):
        graph = _graph(algorithm)
        problem = SearchProblem(graph, workload_small, cluster8)
        # An earlier request with another seed and budget warms the problem.
        MCMCSearcher(
            problem=problem, config=SearchConfig(max_iterations=30, seed=1)
        ).search()
        config = SearchConfig(**self.KWARGS)
        shared = MCMCSearcher(problem=problem, config=config).search()
        session = SearchSession(
            MCMCSearcher(problem=problem, config=config), slice_iterations=7
        )
        while not session.done:
            session.poll()
        sliced = session.stop()
        fresh = _searcher(algorithm, workload_small, cluster8, **self.KWARGS).search()
        for result in (shared, sliced):
            _assert_identical(result, fresh)
            assert result.initial_cost == fresh.initial_cost
            assert result.initial_plan.to_dict() == fresh.initial_plan.to_dict()
            assert result.search_space == fresh.search_space

    def test_greedy_sweep_runs_once_per_problem(
        self, cluster8, workload_small, monkeypatch
    ):
        """Counts the estimator's ``call_time`` calls: the first sweep prices
        one per distinct (call, shape), a second sweep on the same problem
        prices none, and the plan is each call's
        ``min(options, key=call_time)``."""
        graph = _graph("ppo")
        estimator = RuntimeEstimator(graph, workload_small, cluster8)
        problem = SearchProblem(graph, workload_small, cluster8, estimator=estimator)
        n_shapes = len({
            (call_name, a.mesh.n_nodes, a.mesh.gpus_per_node, a.parallel.dp,
             a.parallel.tp, a.parallel.pp, a.n_microbatches, a.zero3)
            for call_name, choices in problem.options.items()
            for a in choices
        })
        assert n_shapes < sum(len(choices) for choices in problem.options.values())
        scored = []
        call_time = estimator.call_time

        def counting_call_time(call_name, alloc):
            scored.append(call_name)
            return call_time(call_name, alloc)

        monkeypatch.setattr(estimator, "call_time", counting_call_time)
        first = MCMCSearcher(problem=problem).greedy_initial_plan()
        assert len(scored) == n_shapes
        second = MCMCSearcher(problem=problem).greedy_initial_plan()
        assert len(scored) == n_shapes
        assert second.assignments == first.assignments
        # A searcher built from arguments poses a new problem and sweeps again.
        MCMCSearcher(
            graph, workload_small, cluster8, estimator=estimator, options=problem.options
        ).greedy_initial_plan()
        assert len(scored) == 2 * n_shapes
        monkeypatch.undo()
        call_time = RuntimeEstimator(graph, workload_small, cluster8).call_time
        for call_name, choices in problem.options.items():
            fastest = min(choices, key=lambda a: call_time(call_name, a))
            assert first.assignments[call_name] is fastest

    def test_problem_and_its_arguments_are_exclusive(self, cluster8, workload_small):
        problem = SearchProblem(_graph("ppo"), workload_small, cluster8)
        with pytest.raises(TypeError):
            MCMCSearcher(_graph("ppo"), problem=problem)


class TestSessionLifecycle:
    def test_budget_accounting_and_done(self, cluster8, workload_small):
        searcher = _searcher(
            "ppo", workload_small, cluster8,
            max_iterations=20, time_budget_s=60.0, seed=1, n_chains=2,
        )
        session = SearchSession(searcher, slice_iterations=6)
        session.start()
        assert not session.done and session.n_iterations == 0
        progress = session.poll()
        # Two chains, six proposals each per slice.
        assert progress.new_iterations == 12
        assert progress.n_iterations == 12
        while not session.done:
            progress = session.poll()
        assert session.n_iterations == 20  # total budget, never exceeded
        assert progress.done
        # Polling a finished session is a harmless no-op.
        idle = session.poll()
        assert idle.new_iterations == 0

    def test_best_monotone_and_initial_candidate(self, cluster8, workload_small):
        searcher = _searcher(
            "ppo", workload_small, cluster8,
            max_iterations=40, time_budget_s=60.0, seed=2, n_chains=1,
        )
        session = SearchSession(searcher, slice_iterations=5)
        session.start()
        plan, cost = session.best_so_far()
        assert plan is not None
        previous = cost
        while not session.done:
            progress = session.poll()
            assert progress.best_cost <= previous
            assert progress.improved == (progress.best_cost < previous)
            previous = progress.best_cost
        assert session.stop().initial_cost == cost

    def test_merge_breaks_cost_ties_towards_the_start_then_chain_order(
        self, cluster8, workload_small
    ):
        # The golden multi-chain pins never see two distinct plans at one
        # cost, so the strict ``<`` of the merge is pinned here directly.
        searcher = _searcher(
            "ppo", workload_small, cluster8,
            max_iterations=30, time_budget_s=60.0, seed=0, n_chains=3,
        )
        session = SearchSession(searcher).start()
        start_plan, start_cost = session.best_so_far()
        others = [
            start_plan.with_assignment(name, options[-1])
            for name, options in searcher.options.items()
            if options[-1] != start_plan[name]
        ][:2]
        assert len(others) == 2
        for state, plan in zip(session.states[1:], others):
            state.best_plan, state.best_cost = plan, start_cost
        assert session.result().best_plan.assignments == start_plan.assignments
        lower = start_cost / 2
        for state in session.states[1:]:
            state.best_cost = lower
        assert session.best_so_far() == (others[0], lower)
        assert session.result().best_plan.assignments == others[0].assignments

    def test_stop_is_final_and_result_matches(self, cluster8, workload_small):
        searcher = _searcher(
            "ppo", workload_small, cluster8,
            max_iterations=10, time_budget_s=60.0, seed=4, n_chains=1,
        )
        session = SearchSession(searcher, slice_iterations=4)
        session.poll()  # poll() auto-starts
        result = session.stop()
        assert result.best_cost == session.best_cost
        with pytest.raises(RuntimeError):
            session.poll()

    def test_slice_iterations_validated(self, cluster8, workload_small):
        searcher = _searcher(
            "ppo", workload_small, cluster8,
            max_iterations=10, time_budget_s=60.0, seed=0, n_chains=1,
        )
        with pytest.raises(ValueError, match="slice_iterations"):
            SearchSession(searcher, slice_iterations=0)

    def test_chain_state_pickles(self, cluster8, workload_small):
        searcher = _searcher(
            "ppo", workload_small, cluster8,
            max_iterations=10, time_budget_s=60.0, seed=6, n_chains=1,
        )
        plan, cost = searcher.initial_candidate()
        state = searcher.init_chain_state(0, plan, cost, 10)
        searcher.advance_chain(state, max_iterations=4)
        clone = pickle.loads(pickle.dumps(state))
        assert clone.n_iterations == state.n_iterations == 4
        assert clone.best_cost == state.best_cost
        # The cloned RNG continues the exact same stream.
        searcher.advance_chain(state)
        searcher.advance_chain(clone)
        assert clone.best_cost == state.best_cost
        assert clone.done and state.done


class TestSearchRuns:
    def test_single_chain_matches_pre_parallel_stream(self, cluster8, workload_small):
        # Chain 0 keeps the classic single-chain RNG stream: two fresh
        # searchers with the same seed agree.
        kwargs = dict(max_iterations=120, time_budget_s=60, seed=4)
        r1 = _searcher("ppo", workload_small, cluster8, **kwargs).search()
        r2 = _searcher("ppo", workload_small, cluster8, **kwargs).search()
        assert r1.best_cost == r2.best_cost

    def test_sequential_timing_fields(self, cluster8, workload_small):
        result = _searcher(
            "ppo", workload_small, cluster8,
            max_iterations=90, time_budget_s=30, seed=0, n_chains=3,
        ).search()
        assert len(result.chain_wall_seconds) == 3
        assert len(result.chain_cpu_seconds) == 3
        assert result.cpu_seconds == pytest.approx(sum(result.chain_cpu_seconds))
        # True wall clock covers initial-candidate evaluation plus all chains.
        assert result.elapsed_seconds >= max(result.chain_wall_seconds)
        assert result.elapsed_seconds > 0


class TestSearchConfigValidation:
    def test_negative_max_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SearchConfig(max_iterations=-1)

    def test_zero_max_iterations_still_legal(self):
        # The documented "evaluate the initial candidates only" budget.
        assert SearchConfig(max_iterations=0).max_iterations == 0

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_non_positive_time_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="time_budget_s"):
            SearchConfig(time_budget_s=budget)

    @pytest.mark.parametrize("n_chains", [0, -2])
    def test_non_positive_n_chains_rejected(self, n_chains):
        with pytest.raises(ValueError, match="n_chains"):
            SearchConfig(n_chains=n_chains)

    @pytest.mark.parametrize("beta", [-0.5, float("inf"), float("nan")])
    def test_negative_or_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            SearchConfig(beta=beta)

    @pytest.mark.parametrize("penalty", [0.5, 0.0, -1.0, float("inf"), float("nan")])
    def test_oom_penalty_below_one_or_non_finite_rejected(self, penalty):
        with pytest.raises(ValueError, match="oom_penalty"):
            SearchConfig(oom_penalty=penalty)

    def test_boundary_beta_and_penalty_still_legal(self):
        # beta=0 accepts every move; a penalty of 1 does not penalise OOM.
        config = SearchConfig(beta=0.0, oom_penalty=1.0)
        assert (config.beta, config.oom_penalty) == (0.0, 1.0)


class TestChainStateBasics:
    def test_remaining_iterations_never_negative(self):
        import numpy as np

        from repro.core.plan import ExecutionPlan

        state = ChainState(
            chain=0,
            max_iterations=5,
            rng=np.random.default_rng(0),
            current_plan=ExecutionPlan({}),
            current_cost=1.0,
            best_plan=ExecutionPlan({}),
            best_cost=1.0,
            n_iterations=9,
        )
        assert state.remaining_iterations == 0
