"""NeMo-Aligner baseline: two GPU groups, actor generation colocated with training.

NeMo-Aligner (Shen et al., 2024) splits the cluster into two disjoint groups.
Unlike OpenRLHF it keeps actor training and generation on the same group
(TRT-LLM generation backend with resharding, Megatron-LM 3D training backend);
the critic, reward and reference models live on the second group.  Computation
is split into micro-batches and pipelined to reduce idle time, but the group
boundary still prevents the full cluster from working on any single call.
"""

from __future__ import annotations

from ..cluster.hardware import ClusterSpec
from ..core.dataflow import DataflowGraph
from ..core.plan import ExecutionPlan
from ..core.workload import RLHFWorkload
from .base import (
    BaselineSystem,
    InfeasiblePlanError,
    build_symmetric_plan_with_budget,
    split_cluster_into_groups,
)

__all__ = ["NeMoAlignerSystem"]


class NeMoAlignerSystem(BaselineSystem):
    """Strategy model of NeMo-Aligner v0.4.0 (TRT-LLM + Megatron-LM backends)."""

    name = "NeMo-Aligner"

    def build_plan(
        self, graph: DataflowGraph, workload: RLHFWorkload, cluster: ClusterSpec
    ) -> ExecutionPlan:
        if cluster.n_gpus < 2:
            raise InfeasiblePlanError("NeMo-Aligner needs at least 2 GPUs for its two groups")
        actor_group, critic_group = split_cluster_into_groups(cluster, (0.5, 0.5))
        group_of_model = {
            "actor": actor_group,
            "ref": critic_group,
            "critic": critic_group,
            "reward": critic_group,
        }
        return build_symmetric_plan_with_budget(
            graph,
            workload,
            cluster,
            mesh_of_call=lambda call: group_of_model.get(call.model_name, actor_group),
            plan_name="nemo-aligner",
        )
