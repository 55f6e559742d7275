"""Cost of a single model function call under a given allocation.

This module turns per-layer timings (from a :class:`LayerTimeProvider`) into
the wall time and cost breakdown of a whole generation, inference or training
call executed with a 3D parallelization strategy and micro-batching.  Both the
lightweight estimator (Section 5.1) and the runtime engine's discrete-event
simulation consume it; they differ only in the provider they plug in and the
extra overheads (RPC dispatch, parameter reallocation, data transfer) they
account for on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Tuple

from ..cluster.comm import CommModel
from ..cluster.hardware import ClusterSpec
from ..model.config import ModelConfig
from ..model.memory import GRAD_BYTES, PARAM_BYTES, MemoryModel
from .dataflow import FunctionCallType, ModelFunctionCall
from .plan import Allocation
from .profiler import LayerTimeProvider
from .workload import CallWorkload

__all__ = ["CostBreakdown", "CallCostModel", "CallCostTable"]

_MAX_CALL_COSTS = 65536
"""How many call times (and content tokens) a :class:`CallCostTable` keeps
before it clears itself."""


@dataclass(slots=True)
class CostBreakdown:
    """Wall-time decomposition of a function call (seconds, per iteration).

    The categories match the GPU-time breakdown of Figure 11 in the paper:
    compute kernels, point-to-point (pipeline) communication, collective
    (tensor/data parallel) communication, and idle time / pipeline bubbles.
    ``launch`` tracks host-side kernel launch overhead (the CUDA-graph
    optimisation target) and is reported inside compute in the figures.
    """

    compute: float = 0.0
    pp_comm: float = 0.0
    coll_comm: float = 0.0
    bubble: float = 0.0
    launch: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        """Total wall time of the call."""
        return self.compute + self.pp_comm + self.coll_comm + self.bubble + self.launch + self.other

    def scaled(self, factor: float) -> "CostBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return CostBreakdown(
            compute=self.compute * factor,
            pp_comm=self.pp_comm * factor,
            coll_comm=self.coll_comm * factor,
            bubble=self.bubble * factor,
            launch=self.launch * factor,
            other=self.other * factor,
        )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class CallCostModel:
    """Computes time, breakdown and memory of one function call.

    Contract: every result is position-free.  It depends on the allocation
    only through its shape — the mesh's ``n_nodes`` and ``gpus_per_node``,
    the dp/tp/pp strategy, ``n_microbatches`` and ``zero3`` — never on where
    the mesh sits (``node_start``, ``gpu_start``).  It depends on the cluster
    only through its hardware — ``gpu``, ``interconnect`` and
    ``gpus_per_node`` — never on ``n_nodes``.  The estimator keys its
    per-call memos on (content token, shape)
    (:meth:`~repro.core.estimator.RuntimeEstimator._shape_key`): the token of
    :meth:`CallCostTable.token` names the call type, model, workload,
    one-node cluster and CUDA-graph setting, and the shape is the
    allocation's :attr:`~repro.core.plan.Allocation.key` without
    ``node_start`` and ``gpu_start``.  A position-aware model (e.g. for
    heterogeneous clusters) must therefore widen that key.

    Parameters
    ----------
    config:
        Architecture of the model the call runs on.
    cluster:
        The cluster (for communication and launch-overhead costs).
    provider:
        Source of per-layer timings (analytical or profiled).
    use_cuda_graph:
        Whether decoding kernels are captured into CUDA graphs, which
        suppresses most of the per-step kernel launch overhead (Table 6).
    """

    def __init__(
        self,
        config: ModelConfig,
        cluster: ClusterSpec,
        provider: LayerTimeProvider,
        use_cuda_graph: bool = True,
    ) -> None:
        self.config = config
        self.cluster = cluster
        self.provider = provider
        self.use_cuda_graph = use_cuda_graph
        self.comm = CommModel(cluster)
        self.memory = MemoryModel(config)

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _layers_per_stage(self, pp: int) -> float:
        return self.config.n_layers / pp

    def _dp_batch(self, batch: int, dp: int) -> int:
        return _ceil_div(batch, dp)

    def _hop_time(self, n_tokens: float, alloc: Allocation) -> float:
        """Pipeline stage-to-stage activation transfer for one micro-batch."""
        if alloc.parallel.pp <= 1:
            return 0.0
        nbytes = n_tokens * self.config.hidden_size * PARAM_BYTES
        # Pipeline stages are laid out across nodes whenever the mesh spans
        # several nodes (TP and DP fill the node first).
        cross = alloc.mesh.spans_nodes
        return self.comm.p2p_time_cross(nbytes, cross)

    def _dp_crosses_nodes(self, alloc: Allocation) -> bool:
        """Whether the data-parallel group spans node boundaries."""
        return alloc.parallel.dp * alloc.parallel.tp > alloc.mesh.gpus_per_node

    def _zero3_gather_time(self, n_layers: float, alloc: Allocation) -> float:
        """Per-pass parameter all-gather cost of ZeRO-3 data parallelism."""
        if not alloc.zero3 or alloc.parallel.dp <= 1:
            return 0.0
        shard_bytes = (
            self.config.param_count()
            / (alloc.parallel.tp * alloc.parallel.pp)
            * PARAM_BYTES
            * (n_layers / self.config.n_layers)
        )
        cross = self._dp_crosses_nodes(alloc)
        return self.comm.allgather_time(shard_bytes, alloc.parallel.dp, cross)

    # ------------------------------------------------------------------ #
    # Per-call costs
    # ------------------------------------------------------------------ #
    def generation_breakdown(self, wl: CallWorkload, alloc: Allocation) -> CostBreakdown:
        """Cost of a generation call: prefill plus auto-regressive decoding."""
        dp, tp, pp = alloc.parallel.dp, alloc.parallel.tp, alloc.parallel.pp
        nmb = alloc.n_microbatches
        b_dp = self._dp_batch(wl.batch_size, dp)
        b_mb = max(1, _ceil_div(b_dp, nmb))
        layers = self._layers_per_stage(pp)
        bd = CostBreakdown()

        # --- Prefill: one pipelined forward pass over the prompts. -------- #
        prefill_tokens = b_mb * wl.prompt_len
        fwd = self.provider.forward(prefill_tokens, wl.prompt_len, tp)
        head = self.provider.head_forward(b_mb, tp)
        stage_compute = layers * (fwd.compute_s + fwd.launch_s) + head.compute_s
        stage_coll = layers * fwd.tp_comm_s + head.tp_comm_s
        hop = self._hop_time(prefill_tokens, alloc)
        rounds = nmb + pp - 1
        bd.compute += nmb * stage_compute
        bd.coll_comm += nmb * stage_coll
        bd.pp_comm += nmb * hop * (1 if pp > 1 else 0)
        bd.bubble += (rounds - nmb) * (stage_compute + stage_coll)
        bd.coll_comm += self._zero3_gather_time(layers, alloc)

        # --- Decoding: ``gen_len`` small steps, memory-I/O bound. --------- #
        if wl.gen_len > 0:
            avg_kv = wl.prompt_len + wl.gen_len / 2.0
            dec = self.provider.decode(b_mb, avg_kv, tp, self.use_cuda_graph)
            head_dec = self.provider.head_forward(b_mb, tp)
            stage_dec_compute = layers * dec.compute_s + head_dec.compute_s
            stage_dec_launch = layers * dec.launch_s + head_dec.launch_s
            stage_dec_coll = layers * dec.tp_comm_s + head_dec.tp_comm_s
            stage_dec_hop = self._hop_time(b_mb, alloc) if pp > 1 else 0.0
            stage_unit = stage_dec_compute + stage_dec_launch + stage_dec_coll + stage_dec_hop
            # In one pipeline "round" every in-flight micro-batch advances one
            # token; a round lasts max(pp, nmb) stage units.
            rounds_per_token = max(pp, nmb)
            bd.compute += wl.gen_len * nmb * stage_dec_compute
            bd.launch += wl.gen_len * nmb * stage_dec_launch
            bd.coll_comm += wl.gen_len * nmb * stage_dec_coll
            bd.pp_comm += wl.gen_len * nmb * stage_dec_hop
            bd.bubble += wl.gen_len * max(0, rounds_per_token - nmb) * stage_unit
            if alloc.zero3:
                bd.coll_comm += wl.gen_len * self._zero3_gather_time(layers, alloc)
        return bd

    def inference_breakdown(self, wl: CallWorkload, alloc: Allocation) -> CostBreakdown:
        """Cost of an inference call: one pipelined forward pass."""
        dp, tp, pp = alloc.parallel.dp, alloc.parallel.tp, alloc.parallel.pp
        nmb = alloc.n_microbatches
        b_dp = self._dp_batch(wl.batch_size, dp)
        b_mb = max(1, _ceil_div(b_dp, nmb))
        layers = self._layers_per_stage(pp)
        tokens_mb = b_mb * wl.seqlen
        fwd = self.provider.forward(tokens_mb, wl.seqlen, tp)
        head = self.provider.head_forward(tokens_mb, tp)
        stage_compute = layers * (fwd.compute_s + fwd.launch_s) + head.compute_s + head.launch_s
        stage_coll = layers * fwd.tp_comm_s + head.tp_comm_s
        hop = self._hop_time(tokens_mb, alloc)
        bd = CostBreakdown()
        bd.compute += nmb * stage_compute
        bd.coll_comm += nmb * stage_coll
        bd.pp_comm += nmb * hop * (1 if pp > 1 else 0)
        bd.bubble += (pp - 1) * (stage_compute + stage_coll)
        bd.coll_comm += self._zero3_gather_time(layers, alloc)
        return bd

    def training_breakdown(self, wl: CallWorkload, alloc: Allocation) -> CostBreakdown:
        """Cost of a training call: ``n_minibatches`` sequential PPO updates."""
        dp, tp, pp = alloc.parallel.dp, alloc.parallel.tp, alloc.parallel.pp
        nmb = alloc.n_microbatches
        batch_per_minibatch = max(1, wl.batch_size // wl.n_minibatches)
        b_dp = self._dp_batch(batch_per_minibatch, dp)
        b_mb = max(1, _ceil_div(b_dp, nmb))
        layers = self._layers_per_stage(pp)
        tokens_mb = b_mb * wl.seqlen

        fwd = self.provider.forward(tokens_mb, wl.seqlen, tp)
        bwd = self.provider.backward(tokens_mb, wl.seqlen, tp)
        head_f = self.provider.head_forward(tokens_mb, tp)
        head_b = self.provider.head_backward(tokens_mb, tp)
        opt = self.provider.optimizer_step(tp, pp)

        stage_compute = (
            layers * (fwd.compute_s + fwd.launch_s + bwd.compute_s + bwd.launch_s)
            + head_f.compute_s
            + head_b.compute_s
        )
        stage_coll = layers * (fwd.tp_comm_s + bwd.tp_comm_s) + head_f.tp_comm_s + head_b.tp_comm_s
        hop = 2.0 * self._hop_time(tokens_mb, alloc)  # forward + backward activation/grad

        # Data-parallel gradient all-reduce over this rank's parameter shard.
        grad_bytes = self.config.param_count() / (tp * pp) * GRAD_BYTES
        dp_comm = (
            self.comm.allreduce_time(grad_bytes, dp, self._dp_crosses_nodes(alloc))
            if dp > 1
            else 0.0
        )
        opt_time = layers * (opt.compute_s + opt.launch_s)

        per_minibatch = CostBreakdown()
        per_minibatch.compute += nmb * stage_compute + opt_time
        per_minibatch.coll_comm += nmb * stage_coll + dp_comm
        per_minibatch.pp_comm += nmb * hop * (1 if pp > 1 else 0)
        per_minibatch.bubble += (pp - 1) * (stage_compute + stage_coll)
        per_minibatch.coll_comm += 2.0 * self._zero3_gather_time(layers, alloc)

        return per_minibatch.scaled(wl.n_minibatches)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def breakdown(self, call: ModelFunctionCall, wl: CallWorkload, alloc: Allocation) -> CostBreakdown:
        """Cost breakdown of ``call`` executed under ``alloc``."""
        if call.call_type is FunctionCallType.GENERATE:
            return self.generation_breakdown(wl, alloc)
        if call.call_type is FunctionCallType.INFERENCE:
            return self.inference_breakdown(wl, alloc)
        return self.training_breakdown(wl, alloc)

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def active_memory(self, call: ModelFunctionCall, wl: CallWorkload, alloc: Allocation) -> float:
        """Peak active memory per GPU of this call (KV cache, activations, params)."""
        dp, tp, pp = alloc.parallel.dp, alloc.parallel.tp, alloc.parallel.pp
        nmb = alloc.n_microbatches
        b_dp = self._dp_batch(wl.batch_size, dp)
        if call.call_type is FunctionCallType.GENERATE:
            return self.memory.generation_breakdown(
                b_dp, wl.prompt_len, wl.gen_len, dp, tp, pp, nmb, alloc.zero3
            ).active
        if call.call_type is FunctionCallType.INFERENCE:
            return self.memory.inference_breakdown(
                b_dp, wl.seqlen, dp, tp, pp, nmb, alloc.zero3
            ).active
        batch_per_minibatch = max(1, wl.batch_size // wl.n_minibatches)
        b_dp = self._dp_batch(batch_per_minibatch, dp)
        return self.memory.training_breakdown(
            b_dp, wl.seqlen, dp, tp, pp, nmb, alloc.zero3
        ).active

    def static_memory(self, call: ModelFunctionCall, alloc: Allocation) -> float:
        """Static memory per GPU (grads + optimizer) if this call trains."""
        if call.call_type is not FunctionCallType.TRAIN_STEP:
            return 0.0
        return self.memory.static_bytes_per_gpu(
            alloc.parallel.dp, alloc.parallel.tp, alloc.parallel.pp, alloc.zero3
        )


class CallCostTable:
    """Call times keyed by call content and shape, shareable by estimators.

    :meth:`token` interns a call's content — everything a
    :class:`CallCostModel` result depends on besides the allocation's shape —
    to a small int, so calls of different graphs, workloads or cluster sizes
    that pose the same pricing problem share one entry in :attr:`times`,
    keyed on ``(token, shape)``.  Tokens come from a counter and are never
    reused, so an estimator may keep its tokens across a :meth:`store` that
    clears the table.  The values are pure, so clearing only forces
    recomputation; both maps hold at most ``_MAX_CALL_COSTS`` entries.
    :attr:`priced` counts the stores: the call shapes actually priced.
    Lookups read :attr:`times` directly.
    """

    def __init__(self) -> None:
        self.times: Dict[Tuple, float] = {}
        self.priced = 0
        self._tokens: Dict[Tuple, int] = {}
        self._next_token = count()

    def token(
        self,
        call_type: FunctionCallType,
        config: ModelConfig,
        workload: CallWorkload,
        cluster: ClusterSpec,
        use_cuda_graph: bool,
    ) -> int:
        """The content token of a call priced on ``cluster``'s hardware."""
        key = (call_type, config, workload, cluster.with_nodes(1), use_cuda_graph)
        token = self._tokens.get(key)
        if token is None:
            if len(self._tokens) >= _MAX_CALL_COSTS:
                self._tokens.clear()
            token = self._tokens[key] = next(self._next_token)
        return token

    def store(self, key: Tuple, seconds: float) -> None:
        """Remember a freshly priced call time."""
        if len(self.times) >= _MAX_CALL_COSTS:
            self.times.clear()
        self.times[key] = seconds
        self.priced += 1
