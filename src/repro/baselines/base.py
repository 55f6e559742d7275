"""Shared infrastructure for the baseline RLHF systems.

The paper compares ReaL against four open-source systems (DeepSpeed-Chat,
OpenRLHF, NeMo-Aligner, veRL/HybridFlow) plus a Megatron-inspired heuristic.
Each baseline is reproduced as a *strategy model*: a deterministic procedure
that turns (dataflow graph, workload, cluster) into an execution plan
reflecting that system's placement and parallelization policy.  All plans are
then evaluated on the same simulated cluster by the same runtime engine, so
the comparison isolates exactly what the paper isolates — the execution plan.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.hardware import ClusterSpec
from ..cluster.topology import DeviceMesh
from ..core.dataflow import DataflowGraph, FunctionCallType
from ..core.estimator import RuntimeEstimator
from ..core.parallel import ParallelStrategy, enumerate_strategies
from ..core.plan import Allocation, ExecutionPlan
from ..core.workload import RLHFWorkload
from ..model.config import ModelConfig
from ..model.memory import MemoryModel
from ..runtime.engine import RuntimeEngine, ThroughputResult

__all__ = [
    "InfeasiblePlanError",
    "SystemEvaluation",
    "BaselineSystem",
    "megatron_heuristic_allocation",
    "split_cluster_into_groups",
    "pick_microbatches",
]

MICROBATCH_CHOICES = (1, 2, 4, 8, 16, 32, 64)


class InfeasiblePlanError(RuntimeError):
    """Raised when a system cannot run the workload (the paper's red crosses)."""


@dataclass
class SystemEvaluation:
    """Throughput of one system on one experiment setting."""

    system: str
    feasible: bool
    throughput: Optional[ThroughputResult] = None
    plan: Optional[ExecutionPlan] = None
    failure_reason: str = ""

    @property
    def petaflops(self) -> float:
        """PFLOP/s, or 0.0 when the system could not run the workload."""
        if self.throughput is None:
            return 0.0
        return self.throughput.petaflops_per_second

    @property
    def seconds_per_iteration(self) -> float:
        """Iteration wall time, or ``inf`` when infeasible."""
        if self.throughput is None:
            return float("inf")
        return self.throughput.seconds_per_iteration


class BaselineSystem(ABC):
    """A system under comparison: builds an execution plan for a workload."""

    name: str = "baseline"

    @abstractmethod
    def build_plan(
        self, graph: DataflowGraph, workload: RLHFWorkload, cluster: ClusterSpec
    ) -> ExecutionPlan:
        """Produce this system's execution plan (may raise InfeasiblePlanError)."""

    def uses_cuda_graph(self) -> bool:
        """Whether the system captures decoding kernels into CUDA graphs."""
        return True

    def adjust_cluster(self, cluster: ClusterSpec) -> ClusterSpec:
        """Hook for backend-specific hardware efficiency adjustments.

        Systems whose generation backend lacks the optimised decoding path
        (paged attention, fused kernels) override this to de-rate the
        achievable decode bandwidth, so the shared engine reflects their real
        generation throughput.
        """
        return cluster

    def evaluate(
        self,
        graph: DataflowGraph,
        workload: RLHFWorkload,
        cluster: ClusterSpec,
    ) -> SystemEvaluation:
        """Build the plan and measure its throughput on the simulated cluster.

        Plans whose peak memory exceeds the device capacity are reported as
        infeasible rather than raising, matching how the paper reports OOM
        failures of the baselines.
        """
        try:
            plan = self.build_plan(graph, workload, cluster)
        except InfeasiblePlanError as exc:
            return SystemEvaluation(system=self.name, feasible=False, failure_reason=str(exc))
        run_cluster = self.adjust_cluster(cluster)
        estimator = RuntimeEstimator(
            graph, workload, run_cluster, use_cuda_graph=self.uses_cuda_graph()
        )
        if not estimator.is_feasible(plan):
            mem = estimator.max_memory(plan).max_bytes / 1e9
            return SystemEvaluation(
                system=self.name,
                feasible=False,
                plan=plan,
                failure_reason=f"peak memory {mem:.0f} GB exceeds device capacity",
            )
        engine = RuntimeEngine(run_cluster, workload, use_cuda_graph=self.uses_cuda_graph())
        throughput = engine.measure_throughput(graph, plan)
        return SystemEvaluation(
            system=self.name, feasible=True, throughput=throughput, plan=plan
        )


# ---------------------------------------------------------------------- #
# Shared plan-building helpers
# ---------------------------------------------------------------------- #
DEFAULT_CALL_MEMORY_FRACTION = 0.35
"""Default share of device memory a single call may occupy.

RLHF co-locates up to four LLMs (parameters, two sets of optimizer states and
the active call's working set) on the same devices, so individual calls are
budgeted conservatively when choosing their micro-batch count.
"""


def pick_microbatches(
    config: ModelConfig,
    call_type: FunctionCallType,
    workload: RLHFWorkload,
    strategy: ParallelStrategy,
    cluster: ClusterSpec,
    batch_size: Optional[int] = None,
    zero3: bool = False,
    memory_fraction: float = DEFAULT_CALL_MEMORY_FRACTION,
) -> int:
    """Smallest micro-batch count that fits the call within its memory budget.

    Mirrors the common practice of increasing the number of micro-batches
    until activations, logits and KV cache fit; returns the largest choice if
    nothing fits (the plan will then be flagged infeasible by the evaluator).
    """
    memory = MemoryModel(config)
    batch = batch_size if batch_size is not None else workload.batch_size
    b_dp = max(1, -(-batch // strategy.dp))
    seqlen = workload.context_len
    budget = memory_fraction * cluster.device_memory_bytes
    for mbs in MICROBATCH_CHOICES:
        if mbs > b_dp:
            break
        if call_type is FunctionCallType.GENERATE:
            breakdown = memory.generation_breakdown(
                b_dp, workload.prompt_len, workload.gen_len,
                strategy.dp, strategy.tp, strategy.pp, mbs, zero3,
            )
        elif call_type is FunctionCallType.INFERENCE:
            breakdown = memory.inference_breakdown(
                b_dp, seqlen, strategy.dp, strategy.tp, strategy.pp, mbs, zero3
            )
        else:
            b_mini = max(1, -(-batch // workload.n_ppo_minibatches // strategy.dp))
            breakdown = memory.training_breakdown(
                b_mini, seqlen, strategy.dp, strategy.tp, strategy.pp, mbs, zero3
            )
        if breakdown.total < budget:
            return mbs
    return MICROBATCH_CHOICES[-1]


def megatron_heuristic_allocation(
    config: ModelConfig,
    call_type: FunctionCallType,
    workload: RLHFWorkload,
    mesh: DeviceMesh,
    cluster: ClusterSpec,
    batch_size: Optional[int] = None,
    memory_fraction: float = 0.6,
) -> Allocation:
    """The pre-training-inspired symmetric 3D strategy of Section 8.1.

    Tensor parallelism stays within a node, pipeline parallelism spans nodes,
    and the data-parallel degree is maximised within memory constraints.
    ``memory_fraction`` is the share of device memory this one model is
    allowed to use; builders co-locating several models pass a smaller value
    (and retry with even smaller ones) so that the combined plan fits.
    """
    n_gpus = mesh.n_gpus
    memory = MemoryModel(config)
    trains = call_type is FunctionCallType.TRAIN_STEP
    candidates: List[Tuple[int, int, int, ParallelStrategy]] = []
    for strategy in enumerate_strategies(n_gpus, config, max_tp=mesh.gpus_per_node):
        static = (
            memory.static_bytes_per_gpu(strategy.dp, strategy.tp, strategy.pp) if trains else 0.0
        )
        params = config.param_count() / (strategy.tp * strategy.pp) * 2
        if static + params > memory_fraction * cluster.device_memory_bytes:
            continue
        # Prefer the largest DP degree, break ties with the smallest PP (less
        # bubble), then the smallest TP (less collective overhead).
        candidates.append((strategy.dp, -strategy.pp, -strategy.tp, strategy))
    if not candidates:
        raise InfeasiblePlanError(
            f"{config.name} does not fit on a mesh of {n_gpus} GPUs with any 3D strategy "
            f"under a {memory_fraction:.0%} memory budget"
        )
    candidates.sort(key=lambda item: (item[0], item[1], item[2]), reverse=True)
    strategy = candidates[0][3]
    mbs = pick_microbatches(
        config, call_type, workload, strategy, cluster, batch_size,
        memory_fraction=min(memory_fraction, DEFAULT_CALL_MEMORY_FRACTION),
    )
    return Allocation(mesh=mesh, parallel=strategy, n_microbatches=mbs)


MEMORY_FRACTION_SCHEDULE = (0.5, 0.3, 0.18, 0.1, 0.06)
"""Per-model memory budgets tried in turn when several LLMs share a mesh."""


def build_symmetric_plan_with_budget(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    mesh_of_call,
    plan_name: str,
) -> ExecutionPlan:
    """Build a symmetric Megatron-style plan, shrinking DP until memory fits.

    ``mesh_of_call`` maps a call to the device mesh it should run on.  Within
    each mesh a *single* 3D strategy is derived from the most demanding model
    placed there (the largest trainable one) and applied to every call on that
    mesh — this is exactly the "symmetric parallelization" of Figure 1 (top)
    and Tables 3/5, where all six function calls share the same TP/PP/DP.  The
    per-model memory budget is reduced step by step (pushing DP down and TP/PP
    up) until the whole plan's peak memory fits; if no budget works the
    workload is infeasible for this placement policy.
    """
    # Group calls by their target mesh and find the anchor model per mesh.
    calls_by_mesh: Dict[Tuple[int, ...], List] = {}
    for call in graph.calls:
        mesh = mesh_of_call(call)
        calls_by_mesh.setdefault(mesh.device_ids, []).append((call, mesh))

    def anchor_config(entries):
        trainable = [
            workload.model_config(c.model_name) for c, _ in entries if c.is_trainable
        ]
        if trainable:
            return max(trainable, key=lambda cfg: cfg.param_count())
        return max(
            (workload.model_config(c.model_name) for c, _ in entries),
            key=lambda cfg: cfg.param_count(),
        )

    last_error: Optional[Exception] = None
    for fraction in MEMORY_FRACTION_SCHEDULE:
        try:
            assignments: Dict[str, Allocation] = {}
            for entries in calls_by_mesh.values():
                mesh = entries[0][1]
                anchor = anchor_config(entries)
                anchor_call_type = (
                    FunctionCallType.TRAIN_STEP
                    if any(c.is_trainable for c, _ in entries)
                    else FunctionCallType.INFERENCE
                )
                anchor_alloc = megatron_heuristic_allocation(
                    anchor, anchor_call_type, workload, mesh, cluster,
                    batch_size=workload.batch_size, memory_fraction=fraction,
                )
                for call, _ in entries:
                    config = workload.model_config(call.model_name)
                    wl = workload.call_workload(call)
                    mbs = pick_microbatches(
                        config, call.call_type, workload, anchor_alloc.parallel, cluster,
                        batch_size=wl.batch_size,
                        memory_fraction=min(fraction, DEFAULT_CALL_MEMORY_FRACTION),
                    )
                    assignments[call.name] = Allocation(
                        mesh=mesh, parallel=anchor_alloc.parallel, n_microbatches=mbs
                    )
            plan = ExecutionPlan(assignments, name=plan_name)
        except InfeasiblePlanError as exc:
            last_error = exc
            continue
        estimator = RuntimeEstimator(graph, workload, cluster)
        if estimator.is_feasible(plan):
            return plan
    if last_error is not None:
        raise InfeasiblePlanError(str(last_error))
    raise InfeasiblePlanError(
        f"no symmetric 3D plan of {plan_name!r} fits in device memory for this workload"
    )


def split_cluster_into_groups(
    cluster: ClusterSpec, fractions: Sequence[float]
) -> List[DeviceMesh]:
    """Split the cluster into contiguous device meshes with given size ratios.

    When there are at least as many nodes as groups the split happens at node
    granularity; otherwise the GPUs are split into power-of-two blocks laid
    out in decreasing size so every block either covers whole nodes or a
    properly aligned slice of one node.  Used by the asymmetric baselines
    (OpenRLHF, NeMo-Aligner) that pin different models to disjoint GPU groups.
    """
    if abs(sum(fractions) - 1.0) > 1e-6:
        raise ValueError("group fractions must sum to 1")
    groups: List[DeviceMesh] = []
    if cluster.n_nodes >= len(fractions):
        counts = [max(1, round(f * cluster.n_nodes)) for f in fractions]
        # Fix rounding so the counts cover exactly all nodes.
        while sum(counts) > cluster.n_nodes:
            counts[counts.index(max(counts))] -= 1
        while sum(counts) < cluster.n_nodes:
            counts[counts.index(min(counts))] += 1
        start = 0
        for count in counts:
            groups.append(
                DeviceMesh(
                    cluster=cluster,
                    node_start=start,
                    n_nodes=count,
                    gpu_start=0,
                    gpus_per_node=cluster.gpus_per_node,
                )
            )
            start += count
        return groups

    # Fewer nodes than groups: partition at GPU granularity.
    total = cluster.n_gpus
    if len(fractions) > total:
        raise ValueError("more groups requested than GPUs in the cluster")
    sizes = sorted(_power_of_two_partition(total, fractions), reverse=True)
    offset = 0
    for size in sizes:
        node, local = divmod(offset, cluster.gpus_per_node)
        if size >= cluster.gpus_per_node:
            if local != 0 or size % cluster.gpus_per_node != 0:
                raise ValueError("cannot align a multi-node group to node boundaries")
            groups.append(
                DeviceMesh(
                    cluster=cluster,
                    node_start=node,
                    n_nodes=size // cluster.gpus_per_node,
                    gpu_start=0,
                    gpus_per_node=cluster.gpus_per_node,
                )
            )
        else:
            groups.append(
                DeviceMesh(
                    cluster=cluster,
                    node_start=node,
                    n_nodes=1,
                    gpu_start=local,
                    gpus_per_node=size,
                )
            )
        offset += size
    return groups


def _power_of_two_partition(width: int, fractions: Sequence[float]) -> List[int]:
    """Split ``width`` GPUs into power-of-two block sizes matching ``fractions``.

    Every block starts at size 1 and the remaining capacity is handed out by
    repeatedly doubling the block whose share is furthest below its target.
    """
    sizes = [1] * len(fractions)
    while sum(sizes) < width:
        deficits = [
            (fractions[i] * width - sizes[i], i)
            for i in range(len(sizes))
            if sum(sizes) + sizes[i] <= width
        ]
        if not deficits:
            break
        _, grow = max(deficits)
        sizes[grow] *= 2
    # Hand any leftover GPUs to the largest block (keeps blocks power-of-two).
    leftover = width - sum(sizes)
    if leftover:
        largest = sizes.index(max(sizes))
        if (sizes[largest] + leftover) & (sizes[largest] + leftover - 1) == 0:
            sizes[largest] += leftover
    return sizes
