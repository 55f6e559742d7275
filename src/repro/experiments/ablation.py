"""Progressive-optimization ablations (Figure 2 and Figure 9 of the paper).

Both figures apply ReaL's optimizations one at a time on top of the symmetric
3D-parallel heuristic and measure how much each contributes:

* Figure 9: CUDA-graph generation, then optimized generation parallelization,
  then training parallelization & concurrent execution, then inference
  parallelization & concurrent execution.
* Figure 2: optimized inference, then critic reallocation, then actor
  reallocation.

We implement this with *constrained searches*: the MCMC searcher is only
allowed to modify the allocations of the calls unlocked at each level, while
all other calls stay pinned to the heuristic plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines.heuristic import build_heuristic_plan
from ..cluster.hardware import ClusterSpec
from ..core.dataflow import DataflowGraph, FunctionCallType
from ..core.plan import ExecutionPlan
from ..core.pruning import allocation_options
from ..core.search import MCMCSearcher, SearchConfig
from ..core.workload import RLHFWorkload
from ..runtime.engine import RuntimeEngine

__all__ = ["OptimizationLevel", "progressive_optimization", "figure2_opportunity"]


@dataclass
class OptimizationLevel:
    """One bar of the progressive-optimization figures."""

    name: str
    plan: ExecutionPlan
    use_cuda_graph: bool
    seconds_per_iteration: float
    call_seconds: Dict[str, float]


def _constrained_search(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    base_plan: ExecutionPlan,
    free_calls: Sequence[str],
    search_config: SearchConfig,
) -> ExecutionPlan:
    """Search over plans where only ``free_calls`` may deviate from ``base_plan``."""
    options = allocation_options(graph, workload, cluster)
    for call_name in graph.call_names:
        if call_name not in free_calls:
            options[call_name] = [base_plan[call_name]]
    searcher = MCMCSearcher(
        graph=graph,
        workload=workload,
        cluster=cluster,
        options=options,
        config=search_config,
        seed_plans=[base_plan],
    )
    return searcher.search().best_plan


def _measure(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    plan: ExecutionPlan,
    name: str,
    use_cuda_graph: bool,
) -> OptimizationLevel:
    engine = RuntimeEngine(cluster, workload, use_cuda_graph=use_cuda_graph)
    trace = engine.run_iteration(graph, plan)
    return OptimizationLevel(
        name=name,
        plan=plan,
        use_cuda_graph=use_cuda_graph,
        seconds_per_iteration=trace.total_seconds,
        call_seconds=trace.call_seconds(),
    )


def progressive_optimization(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    search_config: Optional[SearchConfig] = None,
) -> List[OptimizationLevel]:
    """The Figure 9 ladder, from the heuristic to the full ReaL plan.

    Levels: heuristic without CUDA graphs, heuristic with CUDA graphs,
    optimized generation, optimized generation+training (concurrent), and
    optimized generation+training+inference (the full search space).
    """
    search_config = search_config or SearchConfig(max_iterations=1500, time_budget_s=3600.0)
    heuristic = build_heuristic_plan(graph, workload, cluster)

    generation_calls = [
        c.name for c in graph.calls if c.call_type is FunctionCallType.GENERATE
    ]
    training_calls = [
        c.name for c in graph.calls if c.call_type is FunctionCallType.TRAIN_STEP
    ]
    inference_calls = [
        c.name for c in graph.calls if c.call_type is FunctionCallType.INFERENCE
    ]

    levels = [
        _measure(graph, workload, cluster, heuristic, "heuristic (no CUDAGraph)", False),
        _measure(graph, workload, cluster, heuristic, "+ CUDAGraph generation", True),
    ]
    plan_gen = _constrained_search(
        graph, workload, cluster, heuristic, generation_calls, search_config
    )
    levels.append(_measure(graph, workload, cluster, plan_gen, "+ generation parallelization", True))
    plan_train = _constrained_search(
        graph, workload, cluster, plan_gen, generation_calls + training_calls, search_config
    )
    levels.append(
        _measure(graph, workload, cluster, plan_train, "+ training parallelization & concurrency", True)
    )
    plan_full = _constrained_search(
        graph,
        workload,
        cluster,
        plan_train,
        generation_calls + training_calls + inference_calls,
        search_config,
    )
    levels.append(
        _measure(graph, workload, cluster, plan_full, "+ inference parallelization & concurrency", True)
    )
    return levels


def figure2_opportunity(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    search_config: Optional[SearchConfig] = None,
) -> List[OptimizationLevel]:
    """The Figure 2 ladder: +Opt.Inf, +Critic reallocation, +Actor reallocation."""
    search_config = search_config or SearchConfig(max_iterations=1500, time_budget_s=3600.0)
    heuristic = build_heuristic_plan(graph, workload, cluster)

    inference_calls = [
        c.name for c in graph.calls if c.call_type is FunctionCallType.INFERENCE
    ]
    critic_calls = [c.name for c in graph.calls if c.model_name == "critic"]
    actor_calls = [c.name for c in graph.calls if c.model_name == "actor"]

    levels = [_measure(graph, workload, cluster, heuristic, "3D parallelism (heuristic)", True)]
    plan_inf = _constrained_search(
        graph, workload, cluster, heuristic, inference_calls, search_config
    )
    levels.append(_measure(graph, workload, cluster, plan_inf, "+ Opt. Inf.", True))
    plan_critic = _constrained_search(
        graph, workload, cluster, plan_inf, inference_calls + critic_calls, search_config
    )
    levels.append(_measure(graph, workload, cluster, plan_critic, "+ Critic Realloc.", True))
    plan_actor = _constrained_search(
        graph,
        workload,
        cluster,
        plan_critic,
        inference_calls + critic_calls + actor_calls,
        search_config,
    )
    levels.append(_measure(graph, workload, cluster, plan_actor, "+ Actor Realloc.", True))
    return levels
