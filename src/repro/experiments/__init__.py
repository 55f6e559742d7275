"""Experiment harness: settings, metrics, runners and ablations for every figure."""

from .ablation import OptimizationLevel, figure2_opportunity, progressive_optimization
from .metrics import (
    ThroughputRecord,
    petaflops_per_second,
    static_memory_utilization,
)
from .reporting import format_table
from .runner import (
    default_search_config,
    evaluate_setting,
    run_comparison,
    run_heuristic_comparison,
    run_scheduler_comparison,
)
from .settings import (
    ExperimentSetting,
    algorithm_settings,
    figure8_settings,
    gpus_for_actor,
    strong_scaling_settings,
    weak_scaling_settings,
)

__all__ = [
    "ExperimentSetting",
    "weak_scaling_settings",
    "figure8_settings",
    "strong_scaling_settings",
    "algorithm_settings",
    "gpus_for_actor",
    "petaflops_per_second",
    "static_memory_utilization",
    "ThroughputRecord",
    "format_table",
    "default_search_config",
    "evaluate_setting",
    "run_comparison",
    "run_heuristic_comparison",
    "run_scheduler_comparison",
    "OptimizationLevel",
    "progressive_optimization",
    "figure2_opportunity",
]
