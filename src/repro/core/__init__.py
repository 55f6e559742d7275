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
from .call_cost import CallCostModel, CostBreakdown
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
    DataTransferEdge,
    ExecutionPlan,
    ReallocationEdge,
    data_transfer_edges,
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
from .pruning import PruneConfig, allocation_options, enumerate_allocations, search_space_size
from .search import (
    ChainResult,
    ChainSpec,
    ChainState,
    MCMCSearcher,
    SearchConfig,
    SearchResult,
    SearchSession,
    SessionProgress,
    search_execution_plan,
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
    "DataTransferEdge",
    "reallocation_edges",
    "data_transfer_edges",
    "symmetric_plan",
    # estimator
    "CallCostModel",
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
    "enumerate_allocations",
    "allocation_options",
    "search_space_size",
    "SearchConfig",
    "SearchResult",
    "MCMCSearcher",
    "SearchSession",
    "SessionProgress",
    "search_execution_plan",
    "ChainSpec",
    "ChainResult",
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
