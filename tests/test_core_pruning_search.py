"""Tests for search-space pruning, MCMC search and brute-force search."""

import dataclasses

import pytest

from repro.algorithms import build_dpo_graph, build_grpo_graph, build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    Allocation,
    FunctionCallType,
    MCMCSearcher,
    PruneConfig,
    SearchConfig,
    allocation_options,
    brute_force_search,
    instructgpt_workload,
    search_space_size,
    symmetric_plan,
    ParallelStrategy,
    RuntimeEstimator,
)
from repro.core.parallel import enumerate_strategies
from repro.core.pruning import _candidate_meshes
from repro.model.memory import PARAM_BYTES, MemoryModel


@pytest.fixture(scope="module")
def cluster8():
    return make_cluster(8)


@pytest.fixture(scope="module")
def workload_small():
    return instructgpt_workload("7b", "7b", batch_size=64)


class TestPruning:
    def test_every_option_is_consistent(self, ppo_graph, workload_small, cluster8):
        options = allocation_options(ppo_graph, workload_small, cluster8)
        for call_name, choices in options.items():
            assert choices, f"no options for {call_name}"
            for alloc in choices:
                assert alloc.parallel.world_size == alloc.mesh.n_gpus
                assert alloc.parallel.tp <= cluster8.gpus_per_node

    def test_dp_never_exceeds_batch(self, ppo_graph, cluster8):
        tiny = instructgpt_workload("7b", "7b", batch_size=4)
        options = allocation_options(ppo_graph, tiny, cluster8)
        for choices in options.values():
            assert all(a.parallel.dp <= 4 for a in choices)

    def test_search_space_size_is_product(self, ppo_graph, workload_small, cluster8):
        options = allocation_options(ppo_graph, workload_small, cluster8)
        expected = 1.0
        for choices in options.values():
            expected *= len(choices)
        assert search_space_size(options) == pytest.approx(expected)

    def test_paper_scale_search_space(self, ppo_graph):
        # On 64 GPUs the paper quotes > 1e16 plans; our pruned space should
        # still be astronomically large (brute force infeasible).
        cluster = make_cluster(64)
        workload = instructgpt_workload("34b", "7b", batch_size=512)
        options = allocation_options(ppo_graph, workload, cluster)
        assert search_space_size(options) > 1e12

    def test_pruning_shrinks_space(self, ppo_graph, workload_small, cluster8):
        loose = PruneConfig(microbatch_choices=(1, 2, 4, 8, 16, 32))
        tight = PruneConfig(microbatch_choices=(1, 4), min_mesh_gpus=4)
        big = search_space_size(allocation_options(ppo_graph, workload_small, cluster8, loose))
        small = search_space_size(allocation_options(ppo_graph, workload_small, cluster8, tight))
        assert small < big

    def test_mesh_stride_prunes(self, ppo_graph, workload_small):
        cluster = make_cluster(16)
        base = allocation_options(ppo_graph, workload_small, cluster, PruneConfig())
        strided = allocation_options(
            ppo_graph, workload_small, cluster, PruneConfig(mesh_stride=2)
        )
        assert search_space_size(strided) < search_space_size(base)

    def test_static_oom_pruning_drops_unsharded_70b(self, ppo_graph):
        cluster = make_cluster(16)
        workload = instructgpt_workload("70b", "7b", batch_size=64)
        options = allocation_options(ppo_graph, workload, cluster)["actor_train"]
        assert options
        assert all(a.parallel.tp * a.parallel.pp > 1 for a in options)

    def test_pruning_raises_when_nothing_fits(self, ppo_graph, cluster8):
        # A 70B trainable model cannot fit on a single 8-GPU node at all.
        workload = instructgpt_workload("70b", "7b", batch_size=64)
        with pytest.raises(ValueError, match="no feasible allocation"):
            allocation_options(ppo_graph, workload, cluster8)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mesh_stride", 0),
            ("mesh_stride", -3),
            ("min_mesh_gpus", -4),
            ("min_mesh_gpus", 0),
            ("max_mesh_gpus", 0),
            ("microbatch_choices", (1, 0, 4)),
            ("microbatch_choices", ()),
        ],
    )
    def test_invalid_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            PruneConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(PruneConfig(), **{field: value})

    def test_restrict_returns_copy(self):
        base = PruneConfig()
        changed = dataclasses.replace(base, mesh_stride=3)
        assert changed.mesh_stride == 3 and base.mesh_stride == 1

    def test_static_oom_prune_uses_param_bytes_constant(self, ppo_graph, monkeypatch):
        # The prune must read the memory model's PARAM_BYTES, not a hardcoded
        # bytes-per-param: blowing the constant up must prune everything away.
        import repro.core.pruning as pruning_module

        cluster = make_cluster(8)
        workload = instructgpt_workload("7b", "7b", batch_size=64)
        assert allocation_options(ppo_graph, workload, cluster)["actor_generate"]
        monkeypatch.setattr(pruning_module, "PARAM_BYTES", 1e12)
        with pytest.raises(ValueError, match="no feasible allocation"):
            allocation_options(ppo_graph, workload, cluster)

    def test_microbatch_ceiling_on_nondivisible_batch(self, ppo_graph, cluster8):
        # batch 26 over dp=8 shards ceil(26/8) = 4 sequences per rank, so 4
        # micro-batches are admissible; floor division would wrongly stop at 3.
        workload = instructgpt_workload("7b", "7b", batch_size=26)
        options = allocation_options(ppo_graph, workload, cluster8)["actor_generate"]
        dp8 = [a for a in options if a.parallel.dp == 8]
        assert dp8, "expected dp=8 options on the 8-GPU cluster"
        assert any(a.n_microbatches == 4 for a in dp8)
        assert all(a.n_microbatches <= 4 for a in dp8)


def _reference_options(graph, workload, cluster, prune):
    """The pruned enumeration as a naive triple loop: every mesh, every
    strategy of that mesh, every micro-batch count, one new object each."""
    max_tp = cluster.gpus_per_node if prune.max_tp_per_node else None
    options = {}
    for call in graph.calls:
        config = workload.model_config(call.model_name)
        batch = workload.call_workload(call).batch_size
        memory = MemoryModel(config)
        choices = []
        for mesh in _candidate_meshes(cluster, prune):
            for strategy in enumerate_strategies(mesh.n_gpus, config, max_tp=max_tp):
                dp, tp, pp = strategy.dp, strategy.tp, strategy.pp
                if dp > batch:
                    continue
                if prune.prune_static_oom:
                    need = config.param_count() / (tp * pp) * PARAM_BYTES
                    if call.call_type is FunctionCallType.TRAIN_STEP:
                        need += memory.static_bytes_per_gpu(dp, tp, pp)
                    if need > cluster.device_memory_bytes:
                        continue
                for mbs in prune.microbatch_choices:
                    if mbs <= -(-batch // dp):
                        choices.append(Allocation(mesh=mesh, parallel=strategy, n_microbatches=mbs))
        options[call.name] = choices
    return options


class TestInternedEnumeration:
    PRUNES = (
        PruneConfig(),
        PruneConfig(mesh_stride=2),
        PruneConfig(prune_static_oom=False),
        PruneConfig(max_tp_per_node=False),
        PruneConfig(microbatch_choices=(1, 3, 8)),
    )

    @pytest.mark.parametrize(
        "build", [build_ppo_graph, build_grpo_graph, build_dpo_graph],
        ids=["ppo", "grpo", "dpo"],
    )
    @pytest.mark.parametrize("n_gpus", [8, 16, 64, 128])
    def test_matches_naive_enumeration(self, build, n_gpus):
        graph = build()
        # Two architectures, so calls of different models share options.
        workload = instructgpt_workload("34b", "7b", batch_size=64)
        cluster = make_cluster(n_gpus)
        for prune in self.PRUNES:
            options = allocation_options(graph, workload, cluster, prune)
            # Value for value and in the same order.
            assert options == _reference_options(graph, workload, cluster, prune)
            # Value-equal allocations of different calls are one object.
            canonical = {}
            for choices in options.values():
                for alloc in choices:
                    assert canonical.setdefault(alloc, alloc) is alloc
            assert len(canonical) < sum(len(c) for c in options.values())


class TestMCMCSearch:
    def test_search_improves_over_greedy(self, ppo_graph, workload_small, cluster8):
        config = SearchConfig(max_iterations=400, time_budget_s=20, seed=1)
        searcher = MCMCSearcher(ppo_graph, workload_small, cluster8, config=config)
        result = searcher.search()
        assert result.best_cost <= result.initial_cost
        assert result.n_iterations > 0
        assert 0 <= result.acceptance_rate <= 1
        assert result.search_space > 1

    def test_search_result_plan_is_feasible(self, ppo_graph, workload_small, cluster8):
        config = SearchConfig(max_iterations=400, time_budget_s=20, seed=2)
        searcher = MCMCSearcher(ppo_graph, workload_small, cluster8, config=config)
        result = searcher.search()
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        assert estimator.is_feasible(result.best_plan)

    def test_seed_plan_bounds_result(self, ppo_graph, workload_small, cluster8):
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        seed_plan = symmetric_plan(ppo_graph, cluster8, ParallelStrategy(1, 8, 1), n_microbatches=8)
        config = SearchConfig(max_iterations=150, time_budget_s=10, seed=3)
        searcher = MCMCSearcher(
            ppo_graph, workload_small, cluster8, estimator=estimator,
            config=config, seed_plans=[seed_plan],
        )
        result = searcher.search()
        assert result.best_cost <= estimator.cost(seed_plan) + 1e-9

    def test_history_is_monotone_non_increasing(self, ppo_graph, workload_small, cluster8):
        config = SearchConfig(max_iterations=300, time_budget_s=20, seed=4)
        result = MCMCSearcher(ppo_graph, workload_small, cluster8, config=config).search()
        best_values = [cost for _, _, cost in result.history]
        assert all(b >= a - 1e-12 for a, b in zip(best_values[1:], best_values[:-1]))

    def test_deterministic_for_fixed_seed(self, ppo_graph, workload_small, cluster8):
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        options = allocation_options(ppo_graph, workload_small, cluster8)
        config = SearchConfig(max_iterations=200, time_budget_s=30, seed=5)
        r1 = MCMCSearcher(ppo_graph, workload_small, cluster8, estimator=estimator,
                          options=options, config=config).search()
        r2 = MCMCSearcher(ppo_graph, workload_small, cluster8, estimator=estimator,
                          options=options, config=config).search()
        assert r1.best_cost == pytest.approx(r2.best_cost)

    def test_time_budget_respected(self, ppo_graph, workload_small, cluster8):
        config = SearchConfig(max_iterations=10_000_000, time_budget_s=1.0, seed=0)
        result = MCMCSearcher(ppo_graph, workload_small, cluster8, config=config).search()
        assert result.elapsed_seconds < 5.0

    def test_seeded_search_reports_chain_start_cost(
        self, ppo_graph, workload_small, cluster8
    ):
        # Regression: a winning seed plan must be reported as the initial
        # plan, otherwise improvement_ratio overstates what the search did.
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        good = MCMCSearcher(
            ppo_graph, workload_small, cluster8, estimator=estimator,
            config=SearchConfig(max_iterations=300, time_budget_s=20, seed=6),
        ).search().best_plan
        good_cost = estimator.cost(good)
        greedy_cost = estimator.cost(
            MCMCSearcher(
                ppo_graph, workload_small, cluster8, estimator=estimator
            ).greedy_initial_plan()
        )
        assert good_cost < greedy_cost
        result = MCMCSearcher(
            ppo_graph, workload_small, cluster8, estimator=estimator,
            config=SearchConfig(max_iterations=0, time_budget_s=20, seed=7),
            seed_plans=[good],
        ).search()
        assert result.initial_cost == pytest.approx(good_cost)
        assert result.improvement_ratio == pytest.approx(1.0)

    def test_best_of_several_seeds_reported_as_start(
        self, ppo_graph, workload_small, cluster8
    ):
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        good = MCMCSearcher(
            ppo_graph, workload_small, cluster8, estimator=estimator,
            config=SearchConfig(max_iterations=300, time_budget_s=20, seed=8),
        ).search().best_plan
        greedy = MCMCSearcher(
            ppo_graph, workload_small, cluster8, estimator=estimator
        ).greedy_initial_plan()
        result = MCMCSearcher(
            ppo_graph, workload_small, cluster8, estimator=estimator,
            config=SearchConfig(max_iterations=0, time_budget_s=20, seed=9),
            seed_plans=[greedy, good, greedy],
        ).search()
        assert result.initial_plan is good
        assert result.initial_cost == pytest.approx(estimator.cost(good))


class TestMultiChainSearch:
    def test_multi_chain_result_and_budget_split(
        self, ppo_graph, workload_small, cluster8
    ):
        config = SearchConfig(max_iterations=300, time_budget_s=30, seed=1, n_chains=3)
        result = MCMCSearcher(ppo_graph, workload_small, cluster8, config=config).search()
        assert result.n_chains == 3
        assert result.best_cost <= result.initial_cost
        assert 0 < result.n_iterations <= 300
        # Merged history: global iteration count, monotone best-so-far.
        iterations = [i for i, _, _ in result.history]
        assert iterations == sorted(iterations)
        best_values = [cost for _, _, cost in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(best_values[:-1], best_values[1:]))

    def test_multi_chain_deterministic_for_fixed_seed(
        self, ppo_graph, workload_small, cluster8
    ):
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        options = allocation_options(ppo_graph, workload_small, cluster8)
        config = SearchConfig(max_iterations=200, time_budget_s=30, seed=5, n_chains=4)
        r1 = MCMCSearcher(ppo_graph, workload_small, cluster8, estimator=estimator,
                          options=options, config=config).search()
        r2 = MCMCSearcher(ppo_graph, workload_small, cluster8, estimator=estimator,
                          options=options, config=config).search()
        assert r1.best_cost == pytest.approx(r2.best_cost)
        assert r1.n_iterations == r2.n_iterations

    def test_multi_chain_not_worse_than_start(self, ppo_graph, workload_small, cluster8):
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        seed_plan = symmetric_plan(
            ppo_graph, cluster8, ParallelStrategy(1, 8, 1), n_microbatches=8
        )
        config = SearchConfig(max_iterations=150, time_budget_s=10, seed=3, n_chains=2)
        result = MCMCSearcher(
            ppo_graph, workload_small, cluster8, estimator=estimator,
            config=config, seed_plans=[seed_plan],
        ).search()
        assert result.best_cost <= estimator.cost(seed_plan) + 1e-9


class TestBruteForce:
    def _tiny_options(self, ppo_graph, workload_small, cluster8):
        """A reduced option set small enough for exhaustive enumeration.

        Full-node meshes only, a fixed micro-batch count and no pipeline
        parallelism: 4 options per call, 4^6 = 4096 plans in total.
        """
        prune = PruneConfig(microbatch_choices=(8,), min_mesh_gpus=8)
        options = allocation_options(ppo_graph, workload_small, cluster8, prune)
        return {
            name: [a for a in choices if a.parallel.pp == 1]
            for name, choices in options.items()
        }

    def test_brute_force_finds_optimum(self, ppo_graph, workload_small, cluster8):
        options = self._tiny_options(ppo_graph, workload_small, cluster8)
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        result = brute_force_search(
            ppo_graph, workload_small, cluster8, options=options, estimator=estimator
        )
        assert result.n_evaluated == int(result.search_space)
        # No other enumerated plan beats the reported optimum.
        assert result.best_cost <= estimator.cost(result.best_plan) + 1e-9

    def test_mcmc_reaches_brute_force_optimum_on_tiny_space(
        self, ppo_graph, workload_small, cluster8
    ):
        options = self._tiny_options(ppo_graph, workload_small, cluster8)
        estimator = RuntimeEstimator(ppo_graph, workload_small, cluster8)
        brute = brute_force_search(
            ppo_graph, workload_small, cluster8, options=options, estimator=estimator
        )
        config = SearchConfig(max_iterations=1500, time_budget_s=30, seed=0)
        mcmc = MCMCSearcher(
            ppo_graph, workload_small, cluster8, estimator=estimator,
            options=options, config=config,
        ).search()
        # Figure 15: the MCMC search reaches >= 95% of the optimum quickly.
        assert mcmc.best_cost <= brute.best_cost / 0.95

    def test_brute_force_refuses_huge_spaces(self, ppo_graph, workload_small, cluster8):
        with pytest.raises(ValueError):
            brute_force_search(ppo_graph, workload_small, cluster8, max_plans=10)
