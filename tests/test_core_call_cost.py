"""Tests for per-call cost breakdowns (generation / inference / training)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import build_grpo_graph, build_ppo_graph
from repro.cluster import DeviceMesh, full_cluster_mesh, make_cluster
from repro.core import (
    Allocation,
    CallCostModel,
    CallCostTable,
    ExecutionPlan,
    RuntimeEstimator,
    ParallelStrategy,
    allocation_options,
    instructgpt_workload,
)
from repro.core.profiler import AnalyticalProvider, Profiler
from repro.core.workload import CallWorkload
from repro.core.dataflow import FunctionCallType, ModelFunctionCall
from repro.model import get_model_config


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(16)


@pytest.fixture(scope="module")
def cost_model(cluster):
    config = get_model_config("7b")
    return CallCostModel(config, cluster, AnalyticalProvider(config, cluster))


def alloc(cluster, dp, tp, pp, mbs=1, zero3=False):
    return Allocation(
        mesh=full_cluster_mesh(cluster),
        parallel=ParallelStrategy(dp=dp, tp=tp, pp=pp),
        n_microbatches=mbs,
        zero3=zero3,
    )


GEN_CALL = ModelFunctionCall("g", "actor", FunctionCallType.GENERATE)
INF_CALL = ModelFunctionCall("i", "actor", FunctionCallType.INFERENCE)
TRAIN_CALL = ModelFunctionCall("t", "actor", FunctionCallType.TRAIN_STEP)


class TestGeneration:
    def test_decode_dominates_generation(self, cost_model, cluster):
        wl = CallWorkload(batch_size=128, prompt_len=1024, gen_len=1024)
        bd = cost_model.generation_breakdown(wl, alloc(cluster, 2, 8, 1))
        prefill_only = cost_model.generation_breakdown(
            CallWorkload(batch_size=128, prompt_len=1024, gen_len=0), alloc(cluster, 2, 8, 1)
        )
        assert bd.total > 5 * prefill_only.total

    def test_pipeline_adds_bubble_and_p2p(self, cost_model, cluster):
        wl = CallWorkload(batch_size=128, prompt_len=512, gen_len=256)
        no_pp = cost_model.generation_breakdown(wl, alloc(cluster, 2, 8, 1))
        with_pp = cost_model.generation_breakdown(wl, alloc(cluster, 2, 2, 4))
        assert no_pp.pp_comm == 0.0
        assert with_pp.pp_comm > 0.0
        assert with_pp.bubble > no_pp.bubble

    def test_cuda_graph_speeds_up_decode(self, cluster):
        config = get_model_config("7b")
        provider = AnalyticalProvider(config, cluster)
        fast = CallCostModel(config, cluster, provider, use_cuda_graph=True)
        slow = CallCostModel(config, cluster, provider, use_cuda_graph=False)
        wl = CallWorkload(batch_size=64, prompt_len=512, gen_len=512)
        a = alloc(cluster, 2, 8, 1)
        assert slow.generation_breakdown(wl, a).total > fast.generation_breakdown(wl, a).total


class TestInference:
    def test_excess_tp_hurts(self, cost_model, cluster):
        wl = CallWorkload(batch_size=128, prompt_len=1024, gen_len=1024)
        # Cross-node TP=16 must be worse than intra-node TP=8 + DP.
        tp16 = cost_model.inference_breakdown(wl, alloc(cluster, 1, 16, 1))
        tp8 = cost_model.inference_breakdown(wl, alloc(cluster, 2, 8, 1))
        assert tp16.total > tp8.total

    def test_zero3_adds_collective_cost(self, cost_model, cluster):
        wl = CallWorkload(batch_size=128, prompt_len=1024, gen_len=1024)
        plain = cost_model.inference_breakdown(wl, alloc(cluster, 16, 1, 1))
        zero3 = cost_model.inference_breakdown(wl, alloc(cluster, 16, 1, 1, zero3=True))
        assert zero3.coll_comm > plain.coll_comm

    def test_microbatches_increase_pipeline_utilisation(self, cost_model, cluster):
        wl = CallWorkload(batch_size=128, prompt_len=1024, gen_len=1024)
        one = cost_model.inference_breakdown(wl, alloc(cluster, 2, 2, 4, mbs=1))
        eight = cost_model.inference_breakdown(wl, alloc(cluster, 2, 2, 4, mbs=8))
        # The bubble share of total time shrinks with more micro-batches.
        assert eight.bubble / eight.total < one.bubble / one.total


class TestTraining:
    def test_minibatches_scale_cost(self, cost_model, cluster):
        wl1 = CallWorkload(batch_size=128, prompt_len=512, gen_len=512, n_minibatches=1)
        wl4 = CallWorkload(batch_size=128, prompt_len=512, gen_len=512, n_minibatches=4)
        a = alloc(cluster, 2, 8, 1)
        t1 = cost_model.training_breakdown(wl1, a).total
        t4 = cost_model.training_breakdown(wl4, a).total
        # Same total data, but 4 sequential updates add optimizer/allreduce cost.
        assert t4 > t1

    def test_dp_gradient_allreduce_counted(self, cost_model, cluster):
        wl = CallWorkload(batch_size=128, prompt_len=512, gen_len=512, n_minibatches=1)
        dp16 = cost_model.training_breakdown(wl, alloc(cluster, 16, 1, 1))
        dp1_pp16 = cost_model.training_breakdown(wl, alloc(cluster, 1, 1, 16))
        assert dp16.coll_comm > 0
        assert dp1_pp16.pp_comm > 0

    def test_breakdown_dispatch(self, cost_model, cluster):
        wl = CallWorkload(batch_size=64, prompt_len=256, gen_len=256, n_minibatches=2)
        a = alloc(cluster, 2, 8, 1)
        assert cost_model.breakdown(GEN_CALL, wl, a).total == pytest.approx(
            cost_model.generation_breakdown(wl, a).total
        )
        assert cost_model.breakdown(INF_CALL, wl, a).total == pytest.approx(
            cost_model.inference_breakdown(wl, a).total
        )
        assert cost_model.breakdown(TRAIN_CALL, wl, a).total == pytest.approx(
            cost_model.training_breakdown(wl, a).total
        )
        assert cost_model.time(TRAIN_CALL, wl, a) == pytest.approx(
            cost_model.breakdown(TRAIN_CALL, wl, a).total
        )


class TestMemoryInterface:
    def test_static_memory_only_for_training(self, cost_model, cluster):
        a = alloc(cluster, 2, 8, 1)
        assert cost_model.static_memory(TRAIN_CALL, a) > 0
        assert cost_model.static_memory(GEN_CALL, a) == 0.0
        assert cost_model.static_memory(INF_CALL, a) == 0.0

    def test_active_memory_positive(self, cost_model, cluster):
        wl = CallWorkload(batch_size=64, prompt_len=512, gen_len=512, n_minibatches=8)
        a = alloc(cluster, 2, 8, 1)
        for call in (GEN_CALL, INF_CALL, TRAIN_CALL):
            assert cost_model.active_memory(call, wl, a) > 0


class TestCostBreakdown:
    def test_scaled_and_add(self):
        from repro.core.call_cost import CostBreakdown

        bd = CostBreakdown(compute=1.0, pp_comm=0.5, coll_comm=0.25, bubble=0.25)
        doubled = bd.scaled(2.0)
        assert doubled.total == pytest.approx(2 * bd.total)
        bd.add(doubled)
        assert bd.total == pytest.approx(3 * doubled.total / 2)


class TestPositionFreeContract:
    """Every allocation of one shape costs the same, wherever its mesh sits.

    The estimator memoises per-call costs by shape; a cost model that read
    ``node_start`` or ``gpu_start`` would make those memos serve wrong values.
    """

    @pytest.mark.parametrize("n_gpus", [8, 32])
    @pytest.mark.parametrize("build", [build_ppo_graph, build_grpo_graph], ids=["ppo", "grpo"])
    def test_same_shape_same_breakdown(self, build, n_gpus):
        graph, cluster = build(), make_cluster(n_gpus)
        workload = instructgpt_workload("7b", "7b", batch_size=128)
        options = allocation_options(graph, workload, cluster)
        n_moved = 0
        for call in graph.calls:
            config = workload.model_config(call.model_name)
            model = CallCostModel(config, cluster, AnalyticalProvider(config, cluster))
            wl = workload.call_workload(call)
            groups = {}
            for option in options[call.name]:
                mesh, par = option.mesh, option.parallel
                shape = (
                    mesh.n_nodes, mesh.gpus_per_node, par.dp, par.tp, par.pp,
                    option.n_microbatches, option.zero3,
                )
                groups.setdefault(shape, []).append(option)
            for members in groups.values():
                first = model.breakdown(call, wl, members[0])
                for member in members[1:]:
                    n_moved += member.mesh != members[0].mesh
                    other = model.breakdown(call, wl, member)
                    for spec in dataclasses.fields(first):
                        assert getattr(other, spec.name) == getattr(first, spec.name), (
                            call.name, members[0], member, spec.name
                        )
        # The property is vacuous unless some shapes recur at other positions.
        assert n_moved > 0


# (graph, workload, cluster, options) fixtures for the sharing-contract
# properties, built once: hypothesis draws indexes into them.
_WORKLOAD = instructgpt_workload("7b", "7b", batch_size=128)
_CASES = [
    (graph, _WORKLOAD, cluster, allocation_options(graph, _WORKLOAD, cluster))
    for graph in (build_ppo_graph(), build_grpo_graph())
    for cluster in (make_cluster(8), make_cluster(16))
]


class TestCallCostTableSharingContract:
    """What lets estimators share one content-keyed call-time table."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.integers(0, len(_CASES) - 1), extra_nodes=st.integers(1, 14),
           draw=st.randoms(use_true_random=False))
    def test_breakdown_ignores_cluster_node_count(self, case, extra_nodes, draw):
        graph, workload, cluster, options = _CASES[case]
        bigger = cluster.with_nodes(cluster.n_nodes + extra_nodes)
        call = draw.choice(graph.calls)
        option = draw.choice(options[call.name])
        moved = dataclasses.replace(
            option, mesh=dataclasses.replace(option.mesh, cluster=bigger)
        )
        config = workload.model_config(call.model_name)
        wl = workload.call_workload(call)
        small = CallCostModel(config, cluster, AnalyticalProvider(config, cluster))
        large = CallCostModel(config, bigger, AnalyticalProvider(config, bigger))
        assert large.breakdown(call, wl, moved) == small.breakdown(call, wl, option)

    @settings(max_examples=12, deadline=None)
    @given(case=st.integers(0, len(_CASES) - 1), seed=st.integers(0, 2**32 - 1),
           cross_check=st.booleans())
    def test_shared_table_estimator_equals_private_one(self, case, seed, cross_check):
        graph, workload, cluster, options = _CASES[case]
        table = CallCostTable()
        # Warm the table from every other case, so the shared estimator
        # reads prices that other graphs and cluster sizes stored.
        for other, other_wl, other_cluster, other_options in _CASES:
            if other_cluster is not cluster or other is not graph:
                warm = RuntimeEstimator(other, other_wl, other_cluster, call_costs=table)
                for name, choices in other_options.items():
                    for alloc in choices:
                        warm.call_time(name, alloc)
        shared = RuntimeEstimator(
            graph, workload, cluster, call_costs=table, cross_check=cross_check
        )
        private = RuntimeEstimator(graph, workload, cluster, cross_check=cross_check)
        rng = np.random.default_rng(seed)
        names = graph.call_names

        def pick(name):
            choices = options[name]
            return choices[int(rng.integers(len(choices)))]

        plan = ExecutionPlan({name: pick(name) for name in names})
        for _ in range(6):
            assert shared.cost(plan) == private.cost(plan)
            assert (
                shared.time_cost(plan).total_seconds
                == private.time_cost(plan).total_seconds
            )
            name = names[int(rng.integers(len(names)))]
            alloc = pick(name)
            assert shared.cost_delta(plan, name, alloc) == private.cost_delta(
                plan, name, alloc
            )
            plan = plan.with_assignment(name, alloc)

    def test_profiled_estimator_never_touches_a_given_table(self):
        graph, workload, cluster, options = _CASES[0]
        profiler = Profiler(cluster)
        profiles = {
            name: profiler.profile(workload.model_config(name), max_tokens=2 ** 17,
                                   tp_degrees=(1, 2, 4, 8), seq_lengths=(1024, 2048),
                                   max_batch=128)
            for name in graph.model_names()
        }
        table = CallCostTable()
        estimator = RuntimeEstimator(
            graph, workload, cluster, profiles=profiles, call_costs=table
        )
        for name, choices in options.items():
            for alloc in choices[:20]:
                estimator.call_time(name, alloc)
        estimator.cost(ExecutionPlan({n: c[0] for n, c in options.items()}))
        assert table.times == {} and table.priced == 0
        assert table.token(
            graph.calls[0].call_type, workload.model_config(graph.calls[0].model_name),
            workload.call_workload(graph.calls[0]), cluster, True,
        ) == 0  # the estimator interned no content either
