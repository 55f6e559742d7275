"""Per-layer analytical kernel model.

The profiler in :mod:`repro.core.profiler` "measures" the cost of individual
transformer-layer operations (forward, backward, decoding step) exactly as
the paper's profiler measures CUDA kernels on real hardware.  In this
reproduction the measurement source is this analytical model, which captures
the three effects the paper's kernel-level breakdown (Figure 10) relies on:

* compute-bound phases are limited by achievable FLOP/s and shrink with the
  tensor-parallel degree;
* the auto-regressive decoding phase is memory-I/O bound: it is limited by
  how fast the layer's weights and KV cache can be streamed from HBM, plus a
  fixed per-kernel launch overhead (reduced by CUDA-graph capture);
* every tensor-parallel layer performs collective communication whose size
  does not shrink with ``tp``, so excessive TP wastes time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.hardware import ClusterSpec
from ..cluster.comm import CommModel
from .config import ModelConfig
from . import flops as F
from .memory import PARAM_BYTES

__all__ = ["LayerTiming", "LayerCostModel"]


# Number of kernels launched per transformer layer per decoding step.  The
# exact value only matters relative to the kernel-launch overhead; it covers
# the QKV/O projections, attention, the three MLP matmuls and the norms.
KERNELS_PER_LAYER_DECODE = 12
KERNELS_PER_LAYER_FORWARD = 14


@dataclass(frozen=True)
class LayerTiming:
    """Cost of one layer-level operation on one GPU.

    Attributes
    ----------
    compute_s:
        Time spent in compute (or memory-I/O bound) kernels.
    tp_comm_s:
        Time spent in tensor-parallel collective communication.
    launch_s:
        Host-side kernel launch overhead.
    """

    compute_s: float
    tp_comm_s: float
    launch_s: float

    @property
    def total_s(self) -> float:
        """Total wall time of the operation."""
        return self.compute_s + self.tp_comm_s + self.launch_s


class LayerCostModel:
    """Analytical cost of transformer-layer operations under tensor parallelism."""

    def __init__(self, config: ModelConfig, cluster: ClusterSpec) -> None:
        self.config = config
        self.cluster = cluster
        self.comm = CommModel(cluster)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _layer_weight_bytes(self) -> float:
        """Bytes of one layer's weights (streamed from HBM during decode)."""
        return self.config.layer_params() * PARAM_BYTES

    def _tp_allreduce_bytes(self, n_tokens: float) -> float:
        """Bytes all-reduced per layer per direction under tensor parallelism.

        Megatron-style TP performs two all-reduces per layer (attention output
        and MLP output) over activation tensors of size ``tokens x hidden``.
        """
        return 2.0 * n_tokens * self.config.hidden_size * PARAM_BYTES

    def _tp_cross_node(self, tp: int) -> bool:
        return tp > self.cluster.gpus_per_node

    # ------------------------------------------------------------------ #
    # Per-operation costs
    # ------------------------------------------------------------------ #
    def forward_time(self, n_tokens: int, seqlen: int, tp: int) -> LayerTiming:
        """One layer's forward pass over ``n_tokens`` tokens (full sequences)."""
        flops = F.layer_forward_flops(self.config, n_tokens, kv_len=seqlen / 2.0)
        compute = flops / tp / self.cluster.gpu.achievable_flops
        comm = 0.0
        if tp > 1:
            comm = self.comm.allreduce_time(
                self._tp_allreduce_bytes(n_tokens), tp, self._tp_cross_node(tp)
            )
        launch = KERNELS_PER_LAYER_FORWARD * self.cluster.gpu.kernel_launch_overhead_s
        return LayerTiming(compute, comm, launch)

    def backward_time(self, n_tokens: int, seqlen: int, tp: int) -> LayerTiming:
        """One layer's backward pass (roughly twice the forward cost)."""
        fwd = self.forward_time(n_tokens, seqlen, tp)
        return LayerTiming(2.0 * fwd.compute_s, 2.0 * fwd.tp_comm_s, fwd.launch_s)

    def decode_time(
        self, batch: int, kv_len: float, tp: int, use_cuda_graph: bool = True
    ) -> LayerTiming:
        """One layer's decoding step for ``batch`` sequences.

        Decoding is bounded by the maximum of the (tiny) compute time and the
        HBM time to stream the layer's weight shard plus the KV cache.
        """
        gpu = self.cluster.gpu
        flops = F.layer_decode_flops(self.config, batch, kv_len)
        compute = flops / tp / gpu.achievable_flops
        kv_bytes = batch * kv_len * 2 * self.config.kv_dim * PARAM_BYTES
        io_bytes = self._layer_weight_bytes() / tp + kv_bytes / tp
        io_time = io_bytes / gpu.achievable_hbm_bandwidth
        launch = KERNELS_PER_LAYER_DECODE * gpu.kernel_launch_overhead_s
        if use_cuda_graph:
            launch /= gpu.cuda_graph_speedup
        comm = 0.0
        if tp > 1:
            comm = self.comm.allreduce_time(
                self._tp_allreduce_bytes(batch), tp, self._tp_cross_node(tp)
            )
        return LayerTiming(max(compute, io_time), comm, launch)

    def optimizer_step_time(self, tp: int, pp: int) -> LayerTiming:
        """Adam update over one layer's parameter shard (memory bound)."""
        # Read params + grads + two moments, write params + moments: ~7 passes
        # of 4-byte state per parameter.
        shard_params = self.config.layer_params() / tp
        byte_traffic = shard_params * 7 * 4
        compute = byte_traffic / self.cluster.gpu.achievable_hbm_bandwidth
        return LayerTiming(compute, 0.0, 2 * self.cluster.gpu.kernel_launch_overhead_s)

    # ------------------------------------------------------------------ #
    # Output head (logits / value head)
    # ------------------------------------------------------------------ #
    def head_forward_time(self, n_tokens: int, tp: int) -> LayerTiming:
        """Output head forward pass (LM logits or critic value)."""
        flops = F.output_head_flops(self.config, n_tokens)
        compute = flops / tp / self.cluster.gpu.achievable_flops
        comm = 0.0
        if tp > 1 and not self.config.is_critic:
            # Vocab-parallel logits require an all-reduce/all-gather of the
            # per-token loss or logits statistics.
            nbytes = n_tokens * 4.0 * 2
            comm = self.comm.allreduce_time(nbytes, tp, self._tp_cross_node(tp))
        return LayerTiming(compute, comm, 2 * self.cluster.gpu.kernel_launch_overhead_s)

    def head_backward_time(self, n_tokens: int, tp: int) -> LayerTiming:
        fwd = self.head_forward_time(n_tokens, tp)
        return LayerTiming(2.0 * fwd.compute_s, 2.0 * fwd.tp_comm_s, fwd.launch_s)
