"""ReaL itself, wrapped as a comparable system: MCMC-searched execution plans.

This adapter lets the benchmark harness evaluate ReaL with exactly the same
interface as the baselines: ``build_plan`` runs the execution plan generator
(profiling-assisted estimator + Metropolis-Hastings search) and returns the
best plan found within the configured budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster.hardware import ClusterSpec
from ..core.dataflow import DataflowGraph
from ..core.plan import ExecutionPlan
from ..core.search import MCMCSearcher, SearchConfig, SearchResult
from ..core.workload import RLHFWorkload
from .base import BaselineSystem

__all__ = ["RealSystem"]


@dataclass
class RealSystem(BaselineSystem):
    """ReaL: parameter reallocation with an MCMC-searched execution plan.

    The search starts from the best of its greedy plan and the Megatron
    heuristic plan (when that fits).
    """

    search_config: SearchConfig = field(default_factory=SearchConfig)
    name: str = "ReaL"
    last_result: Optional[SearchResult] = None

    def build_plan(
        self, graph: DataflowGraph, workload: RLHFWorkload, cluster: ClusterSpec
    ) -> ExecutionPlan:
        from .heuristic import build_heuristic_plan  # local import avoids a cycle
        from .base import InfeasiblePlanError

        seed_plans = []
        try:
            seed_plans.append(build_heuristic_plan(graph, workload, cluster))
        except InfeasiblePlanError:
            pass  # the search simply starts from the greedy plan
        searcher = MCMCSearcher(
            graph=graph,
            workload=workload,
            cluster=cluster,
            config=self.search_config,
            seed_plans=seed_plans,
        )
        self.last_result = searcher.search()
        return self.last_result.best_plan
