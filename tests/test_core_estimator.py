"""Tests for TimeCost (Algorithm 1), MaxMem and the search cost."""

import pytest

import repro.core.estimator as estimator_module
from repro.cluster import DeviceMesh, full_cluster_mesh, make_cluster
from repro.core import (
    Allocation,
    MCMCSearcher,
    ParallelStrategy,
    Profiler,
    RuntimeEstimator,
    instructgpt_workload,
    symmetric_plan,
)
from repro.core.estimator import DEFAULT_OOM_PENALTY


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(16)


@pytest.fixture(scope="module")
def estimator(ppo_graph, small_workload, cluster):
    return RuntimeEstimator(ppo_graph, small_workload, cluster)


@pytest.fixture(scope="module")
def workload_small():
    return instructgpt_workload("7b", "7b", batch_size=64)


def concurrent_plan(ppo_graph, cluster):
    """Generation on the full cluster, the rest split across the two nodes."""
    full = full_cluster_mesh(cluster)
    node0 = DeviceMesh(cluster, 0, 1, 0, 8)
    node1 = DeviceMesh(cluster, 1, 1, 0, 8)
    strategy8 = ParallelStrategy(2, 4, 1)
    plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=4)
    plan = plan.with_assignment("actor_train", Allocation(node0, strategy8, 4))
    plan = plan.with_assignment("critic_train", Allocation(node1, strategy8, 4))
    plan = plan.with_assignment("ref_inference", Allocation(node0, strategy8, 4))
    plan = plan.with_assignment("reward_inference", Allocation(node1, strategy8, 4))
    return plan


class TestTimeCost:
    def test_all_calls_scheduled(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=4)
        result = estimator.time_cost(plan)
        assert set(result.spans) == set(ppo_graph.call_names)
        assert result.total_seconds > 0

    def test_dependencies_respected(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=4)
        spans = estimator.time_cost(plan).spans
        # Generation finishes before any inference starts; training starts last.
        gen_end = spans["actor_generate"][1]
        for name in ("reward_inference", "ref_inference", "critic_inference"):
            assert spans[name][0] >= gen_end - 1e-9
        assert spans["actor_train"][0] >= max(spans[n][1] for n in ("reward_inference", "ref_inference", "critic_inference")) - 1e-9

    def test_total_is_max_end_time(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=4)
        result = estimator.time_cost(plan)
        assert result.total_seconds == pytest.approx(max(e for _, e in result.spans.values()))

    def test_concurrent_execution_overlaps(self, estimator, ppo_graph, cluster):
        plan = concurrent_plan(ppo_graph, cluster)
        spans = estimator.time_cost(plan).spans
        a = spans["actor_train"]
        c = spans["critic_train"]
        # Disjoint meshes: the two training calls overlap in time.
        assert a[0] < c[1] and c[0] < a[1]

    def test_overlapping_meshes_serialize(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=4)
        spans = estimator.time_cost(plan).spans
        ordered = sorted(spans.values())
        for (s1, e1), (s2, _e2) in zip(ordered, ordered[1:]):
            assert s2 >= e1 - 1e-6

    def test_reallocation_cost_counted(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=4)
        assert estimator.time_cost(plan).realloc_seconds == 0.0
        modified = plan.with_assignment(
            "actor_generate",
            Allocation(full_cluster_mesh(cluster), ParallelStrategy(4, 4, 1), 1),
        )
        assert estimator.time_cost(modified).realloc_seconds > 0.0

    def test_call_time_memoised(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=4)
        alloc = plan["actor_generate"]
        t1 = estimator.call_time("actor_generate", alloc)
        t2 = estimator.call_time("actor_generate", alloc)
        assert t1 == t2 > 0


class TestMaxMem:
    def test_memory_positive_everywhere(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
        mem = estimator.max_memory(plan)
        assert len(mem.per_gpu) == cluster.n_gpus
        assert all(v > 0 for v in mem.per_gpu.values())
        assert mem.max_bytes >= max(mem.static_per_gpu.values())

    def test_symmetric_7b_plan_fits(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
        assert estimator.is_feasible(plan)

    def test_unsharded_70b_does_not_fit(self, ppo_graph, cluster):
        from repro.core import instructgpt_workload

        workload = instructgpt_workload("70b", "7b", batch_size=128)
        estimator = RuntimeEstimator(ppo_graph, workload, cluster)
        # dp=16, tp=1, pp=1 keeps the full 70B on every GPU: hopeless.
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(16, 1, 1), n_microbatches=8)
        assert not estimator.is_feasible(plan)

    def test_cost_applies_oom_penalty(self, ppo_graph, cluster):
        from repro.core import instructgpt_workload

        workload = instructgpt_workload("70b", "7b", batch_size=128)
        estimator = RuntimeEstimator(ppo_graph, workload, cluster)
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(16, 1, 1), n_microbatches=8)
        time_cost = estimator.time_cost(plan).total_seconds
        assert estimator.cost(plan) == pytest.approx(DEFAULT_OOM_PENALTY * time_cost)

    def test_cost_without_penalty_equals_time(self, estimator, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
        assert estimator.cost(plan) == pytest.approx(estimator.time_cost(plan).total_seconds)


class TestProfiledEstimator:
    def test_profiled_estimator_close_to_analytical(self, ppo_graph, small_workload, cluster):
        profiler = Profiler(cluster)
        profiles = {
            name: profiler.profile(small_workload.model_config(name), max_tokens=2 ** 19,
                                   tp_degrees=(1, 2, 4, 8), seq_lengths=(1024, 2048), max_batch=128)
            for name in ppo_graph.model_names()
        }
        exact = RuntimeEstimator(ppo_graph, small_workload, cluster)
        approx = RuntimeEstimator(ppo_graph, small_workload, cluster, profiles=profiles)
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=4)
        t_exact = exact.time_cost(plan).total_seconds
        t_approx = approx.time_cost(plan).total_seconds
        # The paper reports estimator errors below ~25%.
        assert abs(t_approx - t_exact) / t_exact < 0.25


class TestEvalCacheLRU:
    def _plans(self, searcher, n):
        """n distinct plans: vary one call's allocation of the greedy plan."""
        base = searcher.greedy_initial_plan()
        call = searcher.graph.call_names[0]
        choices = searcher.options[call]
        assert len(choices) >= n
        return [base.with_assignment(call, choices[i]) for i in range(n)]

    def test_lru_caps_size_and_counts_evictions(
        self, ppo_graph, small_cluster, workload_small, monkeypatch
    ):
        monkeypatch.setattr(estimator_module, "_MAX_PLAN_EVALS", 2)
        estimator = RuntimeEstimator(ppo_graph, workload_small, small_cluster)
        searcher = MCMCSearcher(ppo_graph, workload_small, small_cluster, estimator=estimator)
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

    def test_cached_values_identical_after_eviction(
        self, ppo_graph, small_cluster, workload_small, monkeypatch
    ):
        reference = RuntimeEstimator(ppo_graph, workload_small, small_cluster)
        monkeypatch.setattr(estimator_module, "_MAX_PLAN_EVALS", 1)
        tiny = RuntimeEstimator(ppo_graph, workload_small, small_cluster)
        searcher = MCMCSearcher(ppo_graph, workload_small, small_cluster, estimator=tiny)
        for plan in self._plans(searcher, 3):
            assert tiny.cost(plan) == reference.cost(plan)
