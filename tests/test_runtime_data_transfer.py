"""Tests for inter-call data transfer planning."""

import pytest

from repro.cluster import DeviceMesh, full_cluster_mesh, make_cluster
from repro.core import Allocation, ParallelStrategy
from repro.core.workload import CallWorkload
from repro.runtime import data_transfer_time, plan_data_transfer


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(16)


WL = CallWorkload(batch_size=64, prompt_len=512, gen_len=512)


class TestPlanDataTransfer:
    def test_identical_layouts_are_free(self, cluster):
        mesh = full_cluster_mesh(cluster)
        alloc = Allocation(mesh, ParallelStrategy(2, 8, 1))
        plan = plan_data_transfer(alloc, alloc, WL)
        assert plan.is_empty()
        assert data_transfer_time(plan, cluster) == 0.0

    def test_same_dp_tp_different_microbatches_free(self, cluster):
        mesh = full_cluster_mesh(cluster)
        a = Allocation(mesh, ParallelStrategy(2, 8, 1), n_microbatches=1)
        b = Allocation(mesh, ParallelStrategy(2, 8, 1), n_microbatches=8)
        assert plan_data_transfer(a, b, WL).is_empty()

    def test_dp_change_requires_transfer(self, cluster):
        mesh = full_cluster_mesh(cluster)
        src = Allocation(mesh, ParallelStrategy(2, 8, 1))
        dst = Allocation(mesh, ParallelStrategy(8, 2, 1))
        plan = plan_data_transfer(src, dst, WL)
        assert not plan.is_empty()
        assert sum(step.nbytes for step in plan.steps) > 0
        assert data_transfer_time(plan, cluster) > 0

    def test_disjoint_meshes_require_transfer(self, cluster):
        node0 = DeviceMesh(cluster, 0, 1, 0, 8)
        node1 = DeviceMesh(cluster, 1, 1, 0, 8)
        src = Allocation(node0, ParallelStrategy(2, 4, 1))
        dst = Allocation(node1, ParallelStrategy(2, 4, 1))
        plan = plan_data_transfer(src, dst, WL)
        assert not plan.is_empty()
        src_gpus = set(node0.device_ids)
        dst_gpus = set(node1.device_ids)
        for step in plan.steps:
            assert step.src_gpu in src_gpus
            assert set(step.dst_gpus) <= dst_gpus

    def test_volume_matches_batch_payload(self, cluster):
        from repro.runtime.data_transfer import BYTES_PER_TOKEN

        node0 = DeviceMesh(cluster, 0, 1, 0, 8)
        node1 = DeviceMesh(cluster, 1, 1, 0, 8)
        src = Allocation(node0, ParallelStrategy(8, 1, 1))
        dst = Allocation(node1, ParallelStrategy(8, 1, 1))
        plan = plan_data_transfer(src, dst, WL)
        sent = sum(step.nbytes for step in plan.steps)
        assert sent == pytest.approx(WL.batch_size * WL.seqlen * BYTES_PER_TOKEN)

    def test_steps_never_send_to_source(self, cluster):
        mesh = full_cluster_mesh(cluster)
        src = Allocation(mesh, ParallelStrategy(16, 1, 1))
        dst = Allocation(mesh, ParallelStrategy(2, 8, 1))
        plan = plan_data_transfer(src, dst, WL)
        for step in plan.steps:
            assert step.src_gpu not in step.dst_gpus

    def test_transfer_cheaper_than_realloc_for_small_payload(self, cluster):
        """The paper notes data transfer is minor relative to other workloads."""
        from repro.model import get_model_config
        from repro.realloc import ReallocCostModel

        mesh = full_cluster_mesh(cluster)
        src = Allocation(mesh, ParallelStrategy(2, 8, 1))
        dst = Allocation(mesh, ParallelStrategy(8, 2, 1))
        xfer = data_transfer_time(plan_data_transfer(src, dst, WL), cluster)
        realloc = ReallocCostModel(cluster, exact=True).cost(get_model_config("7b"), src, dst)
        assert xfer < realloc.seconds
