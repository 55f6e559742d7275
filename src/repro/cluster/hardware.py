"""Hardware specifications for the simulated GPU cluster.

The paper evaluates ReaL on a cluster of 8--128 NVIDIA H100 GPUs connected by
NVLink inside a node and 3.2 Tbps RoCE across nodes.  This module provides an
analytical stand-in for that hardware: peak compute throughput, HBM bandwidth,
memory capacity, interconnect bandwidths and the various fixed overheads
(kernel launch, RPC dispatch, collective latency) that shape the cost model.

All bandwidths are expressed in GB/s (1e9 bytes per second) and all times in
seconds.  The numbers below are public H100-SXM5 specifications de-rated by an
achievable-efficiency factor, so that the *relative* costs of compute-bound
and memory-bound phases (training forward/backward vs. auto-regressive
decoding) match the behaviour the paper reports.

Clusters can be *carved*: :meth:`ClusterSpec.sub_cluster` returns a smaller
cluster of the same hardware covering ``n_nodes`` whole hosts (or an aligned
slice of a single host), mirroring the device-mesh validity rules of
:mod:`repro.cluster.topology`.  The multi-job scheduler
(:mod:`repro.sched`) uses it to hand each admitted job a mesh-shaped
partition of the shared cluster that the planner can treat as a dedicated
cluster.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "GPUSpec",
    "InterconnectSpec",
    "ClusterSpec",
    "H100_SPEC",
    "DEFAULT_INTERCONNECT",
    "make_cluster",
]

GB = 1e9
"""Number of bytes in a gigabyte (decimal, matching bandwidth units)."""


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a single accelerator.

    Attributes
    ----------
    name:
        Human readable device name.
    peak_tflops:
        Peak dense BF16 throughput in TFLOP/s (no sparsity).
    memory_gb:
        HBM capacity in GB available to a single process.
    hbm_bandwidth_gbps:
        Peak HBM read/write bandwidth in GB/s.
    compute_efficiency:
        Fraction of ``peak_tflops`` achievable by large dense GEMMs
        (model-flops-utilisation of well tuned training kernels).
    decode_efficiency:
        Fraction of ``hbm_bandwidth_gbps`` achievable by memory-bound
        auto-regressive decoding kernels.
    kernel_launch_overhead_s:
        Fixed host-side overhead per launched kernel.  Auto-regressive
        decoding launches many small kernels, so this term dominates when
        CUDA-graph capture is disabled (Table 6 of the paper).
    cuda_graph_speedup:
        Factor by which CUDA-graph capture reduces the per-kernel launch
        overhead during decoding.
    pcie_bandwidth_gbps:
        Host-device bandwidth.  No cost model reads it (parameter offloading
        is not modelled), but plan fingerprints hash every GPU field, so it
        stays to keep their keys.
    """

    name: str = "H100-SXM5"
    peak_tflops: float = 989.0
    memory_gb: float = 80.0
    hbm_bandwidth_gbps: float = 3350.0
    compute_efficiency: float = 0.50
    decode_efficiency: float = 0.60
    kernel_launch_overhead_s: float = 12e-6
    cuda_graph_speedup: float = 8.0
    pcie_bandwidth_gbps: float = 55.0

    def __post_init__(self) -> None:
        if self.peak_tflops <= 0:
            raise ValueError(f"peak_tflops must be positive, got {self.peak_tflops}")
        if self.memory_gb <= 0:
            raise ValueError(f"memory_gb must be positive, got {self.memory_gb}")
        if not (0.0 < self.compute_efficiency <= 1.0):
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not (0.0 < self.decode_efficiency <= 1.0):
            raise ValueError("decode_efficiency must be in (0, 1]")

    @property
    def memory_bytes(self) -> float:
        """Usable HBM capacity in bytes."""
        return self.memory_gb * GB

    @property
    def achievable_flops(self) -> float:
        """Sustained dense FLOP/s for compute-bound kernels."""
        return self.peak_tflops * 1e12 * self.compute_efficiency

    @property
    def achievable_hbm_bandwidth(self) -> float:
        """Sustained HBM bandwidth (bytes/s) for memory-bound kernels."""
        return self.hbm_bandwidth_gbps * GB * self.decode_efficiency


@dataclass(frozen=True)
class InterconnectSpec:
    """Bandwidths and latencies of the intra- and inter-node fabrics.

    Attributes
    ----------
    intra_node_bandwidth_gbps:
        Per-GPU NVLink bandwidth in GB/s (unidirectional).
    inter_node_bandwidth_gbps:
        Per-node network bandwidth in GB/s.  The paper's cluster uses
        3.2 Tbps RoCE per node, i.e. 400 GB/s.
    intra_node_latency_s:
        Base latency of an intra-node point-to-point transfer.
    inter_node_latency_s:
        Base latency of an inter-node point-to-point transfer.
    collective_latency_s:
        Additional fixed cost per collective operation (NCCL setup).
    """

    intra_node_bandwidth_gbps: float = 450.0
    inter_node_bandwidth_gbps: float = 400.0
    intra_node_latency_s: float = 3e-6
    inter_node_latency_s: float = 12e-6
    collective_latency_s: float = 20e-6

    def __post_init__(self) -> None:
        if self.intra_node_bandwidth_gbps <= 0:
            raise ValueError("intra_node_bandwidth_gbps must be positive")
        if self.inter_node_bandwidth_gbps <= 0:
            raise ValueError("inter_node_bandwidth_gbps must be positive")

    @property
    def intra_node_bandwidth(self) -> float:
        """Intra-node bandwidth in bytes/s."""
        return self.intra_node_bandwidth_gbps * GB

    @property
    def inter_node_bandwidth(self) -> float:
        """Inter-node (per node) bandwidth in bytes/s."""
        return self.inter_node_bandwidth_gbps * GB


H100_SPEC = GPUSpec()
"""Default GPU specification used throughout the reproduction."""

DEFAULT_INTERCONNECT = InterconnectSpec()
"""Default NVLink + RoCE interconnect matching the paper's cluster."""


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of ``n_nodes`` nodes with ``gpus_per_node`` GPUs.

    The paper assumes all devices have identical compute capability with the
    same intra-node and inter-node bandwidths (Section 4), which is exactly
    what this class models.
    """

    n_nodes: int
    gpus_per_node: int = 8
    gpu: GPUSpec = H100_SPEC
    interconnect: InterconnectSpec = DEFAULT_INTERCONNECT
    rpc_overhead_s: float = 200e-6
    """Master-worker request dispatch overhead per model function call."""

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")

    @property
    def n_gpus(self) -> int:
        """Total number of GPUs in the cluster."""
        return self.n_nodes * self.gpus_per_node

    @property
    def device_memory_bytes(self) -> float:
        """Per-device HBM capacity in bytes (``mem_d`` in the paper)."""
        return self.gpu.memory_bytes

    def node_of(self, gpu_id: int) -> int:
        """Return the node index hosting global GPU ``gpu_id``."""
        if not (0 <= gpu_id < self.n_gpus):
            raise ValueError(f"gpu_id {gpu_id} out of range for {self.n_gpus} GPUs")
        return gpu_id // self.gpus_per_node

    def same_node(self, gpu_a: int, gpu_b: int) -> bool:
        """Whether two global GPU indices live on the same node."""
        return self.node_of(gpu_a) == self.node_of(gpu_b)

    def with_nodes(self, n_nodes: int) -> "ClusterSpec":
        """Return a copy of this spec with a different node count."""
        return dataclasses.replace(self, n_nodes=n_nodes)

    def sub_cluster(
        self, n_nodes: int, n_gpus_per_node: Optional[int] = None
    ) -> "ClusterSpec":
        """Carve a mesh-shaped sub-cluster out of this cluster.

        The sub-cluster keeps the GPU, interconnect and RPC-overhead specs and
        follows the same validity rules as device meshes (Section 4 of the
        paper): it either spans ``n_nodes`` *entire* hosts
        (``n_gpus_per_node == gpus_per_node``), or an aligned slice of a
        single host whose width divides ``gpus_per_node``.  The returned spec
        is indistinguishable from a dedicated cluster of that shape, which is
        what lets the multi-job scheduler (:mod:`repro.sched`) plan each
        job's partition through the unmodified planner and share plan-cache
        entries between same-shaped partitions.
        """
        width = self.gpus_per_node if n_gpus_per_node is None else n_gpus_per_node
        if not (1 <= n_nodes <= self.n_nodes):
            raise ValueError(
                f"sub-cluster n_nodes must be in [1, {self.n_nodes}], got {n_nodes}"
            )
        if not (1 <= width <= self.gpus_per_node):
            raise ValueError(
                f"sub-cluster width must be in [1, {self.gpus_per_node}], got {width}"
            )
        if n_nodes > 1 and width != self.gpus_per_node:
            raise ValueError(
                "multi-node sub-clusters must span entire hosts "
                f"(width {width} != {self.gpus_per_node} gpus per node)"
            )
        if self.gpus_per_node % width != 0:
            raise ValueError(
                f"sub-node width {width} must divide gpus_per_node "
                f"({self.gpus_per_node})"
            )
        return dataclasses.replace(self, n_nodes=n_nodes, gpus_per_node=width)


def make_cluster(
    n_gpus: int,
    gpus_per_node: int = 8,
    gpu: GPUSpec = H100_SPEC,
    interconnect: InterconnectSpec = DEFAULT_INTERCONNECT,
) -> ClusterSpec:
    """Build a :class:`ClusterSpec` from a total GPU count.

    ``n_gpus`` smaller than ``gpus_per_node`` produces a single partially
    populated node; otherwise ``n_gpus`` must be a multiple of
    ``gpus_per_node``.
    """
    if n_gpus < 1:
        raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
    if n_gpus < gpus_per_node:
        return ClusterSpec(n_nodes=1, gpus_per_node=n_gpus, gpu=gpu, interconnect=interconnect)
    if n_gpus % gpus_per_node != 0:
        raise ValueError(
            f"n_gpus ({n_gpus}) must be a multiple of gpus_per_node ({gpus_per_node})"
        )
    return ClusterSpec(
        n_nodes=n_gpus // gpus_per_node,
        gpus_per_node=gpus_per_node,
        gpu=gpu,
        interconnect=interconnect,
    )
