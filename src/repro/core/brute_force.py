"""Exhaustive execution-plan search for small clusters.

Figure 15 of the paper compares the MCMC search against the brute-force
optimum on an 8-GPU cluster.  Full enumeration is only tractable for small
search spaces, so the enumerator accepts an explicit option dictionary (for
example produced by an aggressive :class:`~repro.core.pruning.PruneConfig`)
and refuses to run when the plan count exceeds a safety limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster.hardware import ClusterSpec
from .dataflow import DataflowGraph
from .estimator import DEFAULT_OOM_PENALTY, RuntimeEstimator
from .plan import Allocation, ExecutionPlan
from .pruning import PruneConfig, allocation_options, search_space_size
from .workload import RLHFWorkload

__all__ = ["BruteForceResult", "brute_force_search"]


@dataclass
class BruteForceResult:
    """The optimal plan found by exhaustive enumeration."""

    best_plan: ExecutionPlan
    best_cost: float
    n_evaluated: int
    search_space: float


def brute_force_search(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    options: Optional[Dict[str, List[Allocation]]] = None,
    prune: PruneConfig = PruneConfig(),
    estimator: Optional[RuntimeEstimator] = None,
    oom_penalty: float = DEFAULT_OOM_PENALTY,
    max_plans: int = 2_000_000,
) -> BruteForceResult:
    """Enumerate every plan in the (pruned) search space and return the best.

    Raises ``ValueError`` when the space exceeds ``max_plans``; callers should
    shrink it (fewer micro-batch choices, larger ``mesh_stride``) rather than
    waiting forever.
    """
    estimator = estimator or RuntimeEstimator(graph, workload, cluster)
    options = options or allocation_options(graph, workload, cluster, prune)
    size = search_space_size(options)
    if size > max_plans:
        raise ValueError(
            f"search space of {size:.3g} plans exceeds the brute-force limit of {max_plans}; "
            "prune more aggressively"
        )

    call_names = graph.call_names
    choice_lists = [options[name] for name in call_names]
    best_plan: Optional[ExecutionPlan] = None
    best_cost = float("inf")
    n_evaluated = 0
    for combo in itertools.product(*choice_lists):
        plan = ExecutionPlan(dict(zip(call_names, combo)), name="brute-force")
        cost = estimator.cost(plan, oom_penalty)
        n_evaluated += 1
        if cost < best_cost:
            best_cost = cost
            best_plan = plan
    assert best_plan is not None
    return BruteForceResult(
        best_plan=best_plan,
        best_cost=best_cost,
        n_evaluated=n_evaluated,
        search_space=size,
    )
