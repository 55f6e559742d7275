"""Unit and property tests for the parameter reallocation planner (Figure 6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import DeviceMesh, enumerate_device_meshes, full_cluster_mesh, make_cluster
from repro.core import Allocation, ParallelStrategy, enumerate_strategies
from repro.model import get_model_config
from repro.realloc import (
    ParamLayout,
    ReallocCostModel,
    plan_reallocation,
    reallocation_time,
)
from repro.realloc import remap


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(16)


def layout(cluster, mesh, dp, tp, pp, size="7b"):
    return ParamLayout(
        config=get_model_config(size), mesh=mesh, parallel=ParallelStrategy(dp, tp, pp)
    )


def coverage_holds(src: ParamLayout, dst: ParamLayout, plan) -> bool:
    """Check the invariant: every destination shard is fully covered."""
    eps = 1e-9
    for block in dst.block_ids():
        src_holders = src.holder_intervals(block)
        for gpu, needed in dst.holder_intervals(block).items():
            pieces = []
            held = src_holders.get(gpu)
            if held is not None:
                overlap = (max(needed[0], held[0]), min(needed[1], held[1]))
                if overlap[1] > overlap[0]:
                    pieces.append(overlap)
            for step in plan.steps:
                if step.block_id == block and gpu in step.dst_gpus:
                    overlap = (max(needed[0], step.interval[0]), min(needed[1], step.interval[1]))
                    if overlap[1] > overlap[0]:
                        pieces.append(overlap)
            pieces.sort()
            cursor = needed[0]
            for lo, hi in pieces:
                if lo > cursor + eps:
                    return False
                cursor = max(cursor, hi)
            if cursor < needed[1] - eps:
                return False
    return True


class TestPlanReallocation:
    def test_identical_layouts_need_nothing(self, cluster):
        mesh = full_cluster_mesh(cluster)
        a = layout(cluster, mesh, 2, 4, 2)
        plan = plan_reallocation(a, a)
        assert plan.is_empty()
        assert reallocation_time(plan, cluster) == 0.0

    def test_different_models_rejected(self, cluster):
        mesh = full_cluster_mesh(cluster)
        a = layout(cluster, mesh, 2, 4, 2, size="7b")
        b = layout(cluster, mesh, 2, 4, 2, size="13b")
        with pytest.raises(ValueError):
            plan_reallocation(a, b)

    def test_same_mesh_different_strategy(self, cluster):
        mesh = full_cluster_mesh(cluster)
        src = layout(cluster, mesh, 2, 8, 1)
        dst = layout(cluster, mesh, 4, 4, 1)
        plan = plan_reallocation(src, dst)
        assert not plan.is_empty()
        assert coverage_holds(src, dst, plan)
        assert reallocation_time(plan, cluster) > 0

    def test_disjoint_meshes(self, cluster):
        node0 = DeviceMesh(cluster, 0, 1, 0, 8)
        node1 = DeviceMesh(cluster, 1, 1, 0, 8)
        src = layout(cluster, node0, 2, 4, 1)
        dst = layout(cluster, node1, 1, 8, 1)
        plan = plan_reallocation(src, dst)
        assert coverage_holds(src, dst, plan)
        # Every byte must travel: destinations hold nothing initially.
        assert plan.total_received_bytes > 0
        src_gpus = set(node0.device_ids)
        assert all(step.src_gpu in src_gpus for step in plan.steps)

    def test_no_step_targets_its_own_source(self, cluster):
        mesh = full_cluster_mesh(cluster)
        plan = plan_reallocation(layout(cluster, mesh, 2, 8, 1), layout(cluster, mesh, 8, 2, 1))
        assert all(step.src_gpu not in step.dst_gpus for step in plan.steps)

    def test_accounting_helpers(self, cluster):
        mesh = full_cluster_mesh(cluster)
        plan = plan_reallocation(layout(cluster, mesh, 2, 8, 1), layout(cluster, mesh, 4, 4, 1))
        sent = sum(plan.bytes_sent_by(g) for g in range(16))
        assert sent == pytest.approx(plan.total_bytes)
        received = sum(plan.bytes_received_by(g) for g in range(16))
        assert received == pytest.approx(plan.total_received_bytes)

    def test_pp_remap_only_moves_changed_stages(self, cluster):
        mesh = full_cluster_mesh(cluster)
        src = layout(cluster, mesh, 2, 4, 2)
        dst = layout(cluster, mesh, 2, 2, 4)
        plan = plan_reallocation(src, dst)
        assert coverage_holds(src, dst, plan)


class TestReallocCostModel:
    def test_noop_costs_nothing(self, cluster):
        model = ReallocCostModel(cluster, exact=True)
        mesh = full_cluster_mesh(cluster)
        alloc = Allocation(mesh, ParallelStrategy(2, 8, 1))
        cost = model.cost(get_model_config("7b"), alloc, alloc)
        assert cost.seconds == 0.0 and cost.bytes_sent == 0.0

    def test_exact_and_fast_agree_on_order_of_magnitude(self, cluster):
        mesh = full_cluster_mesh(cluster)
        src = Allocation(mesh, ParallelStrategy(2, 8, 1))
        dst = Allocation(mesh, ParallelStrategy(8, 2, 1))
        config = get_model_config("7b")
        exact = ReallocCostModel(cluster, exact=True).cost(config, src, dst)
        fast = ReallocCostModel(cluster, exact=False).cost(config, src, dst)
        assert exact.seconds > 0 and fast.seconds > 0
        assert 0.05 < exact.seconds / fast.seconds < 20

    def test_cost_is_cached(self, cluster):
        model = ReallocCostModel(cluster, exact=True)
        mesh = full_cluster_mesh(cluster)
        src = Allocation(mesh, ParallelStrategy(2, 8, 1))
        dst = Allocation(mesh, ParallelStrategy(4, 4, 1))
        config = get_model_config("7b")
        first = model.cost(config, src, dst)
        second = model.cost(config, src, dst)
        assert first is second

    def test_bigger_model_costs_more(self, cluster):
        model = ReallocCostModel(cluster, exact=True)
        mesh = full_cluster_mesh(cluster)
        src = Allocation(mesh, ParallelStrategy(2, 8, 1))
        dst = Allocation(mesh, ParallelStrategy(8, 2, 1))
        small = model.cost(get_model_config("7b"), src, dst)
        large = model.cost(get_model_config("34b"), src, dst)
        assert large.seconds > small.seconds


STRATS_16 = [(2, 8, 1), (4, 4, 1), (8, 2, 1), (2, 4, 2), (1, 8, 2), (4, 2, 2), (2, 2, 4)]
MESH_16 = full_cluster_mesh(make_cluster(16))
CLUSTER_32 = make_cluster(32)
"""Four 8-GPU nodes: meshes range from one GPU to whole node ranges."""
MESHES_32 = enumerate_device_meshes(CLUSTER_32)
CONFIG_7B = get_model_config("7b")

full_mesh_layouts = st.sampled_from(STRATS_16).map(
    lambda s: ParamLayout(config=CONFIG_7B, mesh=MESH_16, parallel=ParallelStrategy(*s))
)


@st.composite
def layouts_32(draw):
    """A 7b layout on any mesh of the 4-node cluster, TP within a node."""
    mesh = draw(st.sampled_from(MESHES_32))
    strategies = enumerate_strategies(mesh.n_gpus, CONFIG_7B, max_tp=CLUSTER_32.gpus_per_node)
    return ParamLayout(config=CONFIG_7B, mesh=mesh, parallel=draw(st.sampled_from(strategies)))


@settings(max_examples=40, deadline=None)
@given(
    layouts=st.one_of(
        st.tuples(full_mesh_layouts, full_mesh_layouts), st.tuples(layouts_32(), layouts_32())
    )
)
def test_reallocation_coverage_property(layouts):
    """Property: the broadcast plan always reconstructs the destination layout.

    Source and destination are two strategies on one full 16-GPU mesh, or any
    two meshes of a 4-node cluster (sub-node slices, different node ranges).
    """
    src_layout, dst_layout = layouts
    plan = plan_reallocation(src_layout, dst_layout)
    assert coverage_holds(src_layout, dst_layout, plan)
    assert reallocation_time(plan, src_layout.mesh.cluster) >= 0.0


def test_greedy_runs_once_per_block_pattern(monkeypatch):
    calls = []
    real = remap._plan_block

    def counting(*args):
        calls.append(args[2])  # block bytes
        return real(*args)

    monkeypatch.setattr(remap, "_plan_block", counting)
    mesh = full_cluster_mesh(CLUSTER_32)
    src = ParamLayout(config=CONFIG_7B, mesh=mesh, parallel=ParallelStrategy(4, 8, 1))
    dst = ParamLayout(config=CONFIG_7B, mesh=mesh, parallel=ParallelStrategy(8, 4, 1))
    plan = plan_reallocation(src, dst)
    # One pattern shared by the embedding and the output head (one stage,
    # equal bytes in 7b) and one shared by all 32 layers.
    assert len(calls) == 2
    assert {step.block_id for step in plan.steps} == set(dst.block_ids())
