"""ReaL's core: dataflow graphs, execution plans, estimator and MCMC search."""

from .api import (
    GENERATE,
    INFERENCE,
    TRAIN_STEP,
    ExperimentConfig,
    ModelFunctionCallDef,
    auto,
    build_graph_from_defs,
    find_execution_plan,
    run_iteration_trace,
    schedule_jobs,
)
from .brute_force import BruteForceResult, brute_force_search
from .call_cost import CallCostModel, CallCostTable, CostBreakdown
from .dataflow import DataflowGraph, FunctionCallType, ModelFunctionCall
from .estimator import (
    DEFAULT_OOM_PENALTY,
    EvalCacheStats,
    MemoryEstimate,
    RuntimeEstimator,
    TimeCostResult,
)
from .parallel import ParallelStrategy, enumerate_strategies, factorize_3d
from .plan import (
    Allocation,
    ExecutionPlan,
    ReallocationEdge,
    reallocation_edges,
    symmetric_plan,
)
from .profiler import (
    AnalyticalProvider,
    LayerTimeProvider,
    ProfiledProvider,
    Profiler,
    ProfileStats,
)
from .pruning import PruneConfig, allocation_options, search_space_size
from .search import (
    ChainState,
    MCMCSearcher,
    SearchConfig,
    SearchProblem,
    SearchResult,
    SearchSession,
    SessionProgress,
)
from .workload import CallWorkload, RLHFWorkload, instructgpt_workload

__all__ = [
    # dataflow
    "FunctionCallType",
    "ModelFunctionCall",
    "DataflowGraph",
    # workload
    "CallWorkload",
    "RLHFWorkload",
    "instructgpt_workload",
    # parallelism / plan
    "ParallelStrategy",
    "enumerate_strategies",
    "factorize_3d",
    "Allocation",
    "ExecutionPlan",
    "ReallocationEdge",
    "reallocation_edges",
    "symmetric_plan",
    # estimator
    "CallCostModel",
    "CallCostTable",
    "CostBreakdown",
    "RuntimeEstimator",
    "TimeCostResult",
    "MemoryEstimate",
    "EvalCacheStats",
    "DEFAULT_OOM_PENALTY",
    # profiler
    "Profiler",
    "ProfileStats",
    "LayerTimeProvider",
    "AnalyticalProvider",
    "ProfiledProvider",
    # search
    "PruneConfig",
    "allocation_options",
    "search_space_size",
    "SearchConfig",
    "SearchResult",
    "SearchProblem",
    "MCMCSearcher",
    "SearchSession",
    "SessionProgress",
    "ChainState",
    "BruteForceResult",
    "brute_force_search",
    # api
    "GENERATE",
    "INFERENCE",
    "TRAIN_STEP",
    "ModelFunctionCallDef",
    "ExperimentConfig",
    "auto",
    "build_graph_from_defs",
    "find_execution_plan",
    "run_iteration_trace",
    "schedule_jobs",
]
