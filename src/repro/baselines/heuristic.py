"""REAL-Heuristic: the pre-training-inspired symmetric 3D parallel baseline.

Section 8.1: "a pre-training-inspired approach that implements a symmetric 3D
parallelization across all models.  This strategy combines the intra-node TP
with the inter-node PP and DP, maximizing the DP degree within memory
constraints."  Every model function call runs on the full cluster with the
same strategy (chosen per model architecture); nothing runs concurrently and
no parameters are reallocated.
"""

from __future__ import annotations

from ..cluster.hardware import ClusterSpec
from ..cluster.topology import full_cluster_mesh
from ..core.dataflow import DataflowGraph
from ..core.plan import ExecutionPlan
from ..core.workload import RLHFWorkload
from .base import BaselineSystem, build_symmetric_plan_with_budget

__all__ = ["RealHeuristicSystem", "build_heuristic_plan"]


def build_heuristic_plan(
    graph: DataflowGraph, workload: RLHFWorkload, cluster: ClusterSpec
) -> ExecutionPlan:
    """Build the symmetric Megatron-style plan for any dataflow graph.

    Every call runs on the full cluster; the per-model memory budget shrinks
    (pushing DP down and TP/PP up) until the combined plan fits in device
    memory, mirroring how a practitioner tunes the pre-training recipe for
    RLHF's four co-located models.
    """
    mesh = full_cluster_mesh(cluster)
    return build_symmetric_plan_with_budget(
        graph, workload, cluster, mesh_of_call=lambda call: mesh, plan_name="real-heuristic"
    )


class RealHeuristicSystem(BaselineSystem):
    """The ReaL-Heuristic baseline of Figures 8, 9, 11 and 16."""

    name = "ReaL-Heuristic"

    def build_plan(
        self, graph: DataflowGraph, workload: RLHFWorkload, cluster: ClusterSpec
    ) -> ExecutionPlan:
        return build_heuristic_plan(graph, workload, cluster)
