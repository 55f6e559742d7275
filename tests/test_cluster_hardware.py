"""Unit tests for the hardware specification substrate."""

import dataclasses

import pytest

from repro.cluster import (
    GB,
    H100_SPEC,
    ClusterSpec,
    GPUSpec,
    InterconnectSpec,
    make_cluster,
)


class TestGPUSpec:
    def test_default_is_h100(self):
        assert H100_SPEC.name.startswith("H100")
        assert H100_SPEC.memory_gb == 80.0

    def test_memory_bytes(self):
        assert H100_SPEC.memory_bytes == pytest.approx(80.0 * GB)

    def test_achievable_flops_below_peak(self):
        assert H100_SPEC.achievable_flops < H100_SPEC.peak_tflops * 1e12

    def test_achievable_hbm_bandwidth_below_peak(self):
        assert H100_SPEC.achievable_hbm_bandwidth < H100_SPEC.hbm_bandwidth_gbps * GB

    def test_invalid_peak_flops_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec(peak_tflops=0.0)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec(compute_efficiency=1.5)
        with pytest.raises(ValueError):
            GPUSpec(decode_efficiency=0.0)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec(memory_gb=-1)


class TestInterconnectSpec:
    def test_defaults_match_paper_cluster(self):
        ic = InterconnectSpec()
        # 3.2 Tbps RoCE per node = 400 GB/s.
        assert ic.inter_node_bandwidth_gbps == pytest.approx(400.0)
        assert ic.intra_node_bandwidth > ic.inter_node_bandwidth / 8

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            InterconnectSpec(intra_node_bandwidth_gbps=0)
        with pytest.raises(ValueError):
            InterconnectSpec(inter_node_bandwidth_gbps=-5)


class TestClusterSpec:
    def test_n_gpus(self):
        assert ClusterSpec(n_nodes=4).n_gpus == 32

    def test_device_memory(self):
        assert ClusterSpec(n_nodes=1).device_memory_bytes == pytest.approx(80 * GB)

    def test_node_of_and_local_rank(self):
        cluster = ClusterSpec(n_nodes=2)
        assert cluster.node_of(0) == 0
        assert cluster.node_of(8) == 1
        assert cluster.node_of(11) == 1

    def test_node_of_out_of_range(self):
        cluster = ClusterSpec(n_nodes=1)
        with pytest.raises(ValueError):
            cluster.node_of(8)
        with pytest.raises(ValueError):
            cluster.node_of(-1)

    def test_same_node(self):
        cluster = ClusterSpec(n_nodes=2)
        assert cluster.same_node(0, 7)
        assert not cluster.same_node(7, 8)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=1, gpus_per_node=0)

    def test_with_nodes(self):
        cluster = ClusterSpec(n_nodes=2)
        grown = cluster.with_nodes(4)
        assert grown.n_nodes == 4
        assert grown.gpu == cluster.gpu

    def test_sub_cluster_whole_nodes(self):
        cluster = ClusterSpec(n_nodes=4)
        carved = cluster.sub_cluster(2)
        assert carved.n_nodes == 2
        assert carved.gpus_per_node == cluster.gpus_per_node
        assert carved.gpu == cluster.gpu
        assert carved.interconnect == cluster.interconnect
        assert carved.rpc_overhead_s == cluster.rpc_overhead_s

    def test_sub_cluster_sub_node_slice(self):
        cluster = ClusterSpec(n_nodes=4, gpus_per_node=8)
        carved = cluster.sub_cluster(1, 4)
        assert (carved.n_nodes, carved.gpus_per_node) == (1, 4)

    def test_sub_cluster_location_erased(self):
        # Same-shaped partitions must be indistinguishable clusters, so the
        # plan cache can share entries between them.
        cluster = ClusterSpec(n_nodes=4)
        assert cluster.sub_cluster(2) == cluster.sub_cluster(2)

    def test_sub_cluster_rejects_invalid_shapes(self):
        cluster = ClusterSpec(n_nodes=4, gpus_per_node=8)
        with pytest.raises(ValueError):
            cluster.sub_cluster(5)  # more nodes than the cluster has
        with pytest.raises(ValueError):
            cluster.sub_cluster(0)
        with pytest.raises(ValueError):
            cluster.sub_cluster(2, 4)  # multi-node must span whole hosts
        with pytest.raises(ValueError):
            cluster.sub_cluster(1, 3)  # width must divide gpus_per_node
        with pytest.raises(ValueError):
            cluster.sub_cluster(1, 16)  # wider than a node


class TestMakeCluster:
    @pytest.mark.parametrize("n_gpus,expected_nodes", [(8, 1), (16, 2), (64, 8), (128, 16)])
    def test_whole_nodes(self, n_gpus, expected_nodes):
        cluster = make_cluster(n_gpus)
        assert cluster.n_nodes == expected_nodes
        assert cluster.n_gpus == n_gpus

    def test_partial_node(self):
        cluster = make_cluster(4)
        assert cluster.n_nodes == 1
        assert cluster.gpus_per_node == 4

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            make_cluster(12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_cluster(0)

    def test_custom_gpu_spec(self):
        gpu = dataclasses.replace(H100_SPEC, memory_gb=40.0)
        cluster = make_cluster(8, gpu=gpu)
        assert cluster.device_memory_bytes == pytest.approx(40 * GB)
