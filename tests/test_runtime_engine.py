"""Integration tests for the list-scheduling runtime engine."""

import dataclasses

import pytest

from repro.cluster import DeviceMesh, full_cluster_mesh, make_cluster
from repro.core import (
    Allocation,
    ParallelStrategy,
    RuntimeEstimator,
    symmetric_plan,
)
from repro.runtime import RuntimeEngine


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(16)


@pytest.fixture(scope="module")
def engine(small_workload, cluster):
    return RuntimeEngine(cluster, small_workload)


@pytest.fixture(scope="module")
def sym_plan(ppo_graph, cluster):
    return symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)


class TestRunIteration:
    def test_trace_covers_all_calls(self, engine, ppo_graph, sym_plan):
        trace = engine.run_iteration(ppo_graph, sym_plan)
        assert set(trace.call_spans) == set(ppo_graph.call_names)
        assert trace.total_seconds > 0
        assert trace.total_seconds == pytest.approx(
            max(end for _, end in trace.call_spans.values())
        )

    def test_dependencies_respected(self, engine, ppo_graph, sym_plan):
        trace = engine.run_iteration(ppo_graph, sym_plan)
        spans = trace.call_spans
        gen_end = spans["actor_generate"][1]
        for child in ("reward_inference", "ref_inference", "critic_inference"):
            assert spans[child][0] >= gen_end - 1e-9

    @pytest.mark.parametrize("rpc_overhead_s", [None, 0.5])
    def test_calls_start_after_parents_plus_rpc_overhead(
        self, small_workload, ppo_graph, cluster, rpc_overhead_s
    ):
        if rpc_overhead_s is not None:
            cluster = dataclasses.replace(cluster, rpc_overhead_s=rpc_overhead_s)
        overhead = cluster.rpc_overhead_s
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
        spans = RuntimeEngine(cluster, small_workload).run_iteration(ppo_graph, plan).call_spans
        parents = ppo_graph.parents_map()
        for name, (start, _) in spans.items():
            last_parent_end = max((spans[p][1] for p in parents[name]), default=0.0)
            assert start >= last_parent_end + overhead
        # The source, and the first child once its mesh is free, wait
        # exactly the overhead.
        assert spans["actor_generate"][0] == overhead
        children = ("reward_inference", "ref_inference", "critic_inference")
        assert min(spans[c][0] for c in children) == spans["actor_generate"][1] + overhead

    def test_gpu_accounting_consistent(self, engine, ppo_graph, sym_plan, cluster):
        trace = engine.run_iteration(ppo_graph, sym_plan)
        assert len(trace.gpu_category_seconds) == cluster.n_gpus
        fractions = trace.gpu_time_fractions()
        assert set(fractions) == {"compute", "p2p", "collective", "idle"}
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(v >= -1e-9 for v in fractions.values())

    def test_engine_matches_estimator_on_symmetric_plan(
        self, engine, ppo_graph, sym_plan, small_workload, cluster
    ):
        estimator = RuntimeEstimator(ppo_graph, small_workload, cluster)
        est = estimator.time_cost(sym_plan).total_seconds
        real = engine.run_iteration(ppo_graph, sym_plan).total_seconds
        assert abs(real - est) / est < 0.25

    def test_concurrent_plan_beats_serialized_inferences(
        self, engine, ppo_graph, cluster, small_workload
    ):
        node0 = DeviceMesh(cluster, 0, 1, 0, 8)
        node1 = DeviceMesh(cluster, 1, 1, 0, 8)
        base = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
        concurrent = (
            base
            .with_assignment("ref_inference", Allocation(node0, ParallelStrategy(1, 8, 1), 2))
            .with_assignment("reward_inference", Allocation(node1, ParallelStrategy(1, 8, 1), 2))
            .with_assignment("critic_inference", Allocation(node1, ParallelStrategy(1, 8, 1), 2))
        )
        t_base = engine.run_iteration(ppo_graph, base).total_seconds
        t_concurrent = engine.run_iteration(ppo_graph, concurrent).total_seconds
        # Inference is a small share of the iteration, but overlap + the
        # reallocation cost must not make things dramatically worse.
        assert t_concurrent < t_base * 1.1

    def test_realloc_recorded_when_strategies_differ(self, engine, ppo_graph, sym_plan, cluster):
        trace_same = engine.run_iteration(ppo_graph, sym_plan)
        assert trace_same.realloc_seconds == 0.0
        changed = sym_plan.with_assignment(
            "actor_generate",
            Allocation(full_cluster_mesh(cluster), ParallelStrategy(4, 4, 1), 1),
        )
        trace_changed = engine.run_iteration(ppo_graph, changed)
        assert trace_changed.realloc_seconds > 0.0

    def test_invalid_plan_rejected(self, engine, ppo_graph, cluster, sym_plan):
        broken = dict(sym_plan.assignments)
        del broken["actor_train"]
        from repro.core import ExecutionPlan

        with pytest.raises(ValueError):
            engine.run_iteration(ppo_graph, ExecutionPlan(broken))


class TestThroughput:
    def test_throughput_metric(self, engine, ppo_graph, sym_plan, small_workload):
        result = engine.measure_throughput(ppo_graph, sym_plan)
        trace = engine.run_iteration(ppo_graph, sym_plan)
        assert result.seconds_per_iteration == trace.total_seconds
        assert result.petaflops_per_second > 0
        expected = small_workload.iteration_flops(ppo_graph.calls)
        assert result.total_flops_per_iteration == pytest.approx(expected)

    def test_cuda_graph_engine_is_faster(self, ppo_graph, sym_plan, small_workload, cluster):
        fast = RuntimeEngine(cluster, small_workload, use_cuda_graph=True)
        slow = RuntimeEngine(cluster, small_workload, use_cuda_graph=False)
        t_fast = fast.run_iteration(ppo_graph, sym_plan).total_seconds
        t_slow = slow.run_iteration(ppo_graph, sym_plan).total_seconds
        assert t_slow > t_fast
