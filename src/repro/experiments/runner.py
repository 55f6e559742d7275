"""Experiment runner: evaluate systems on settings and collect records.

The benchmark files under ``benchmarks/`` are thin wrappers around this
module: each figure/table of the paper maps to one runner function that
returns the rows/series the paper reports.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from .. import knobs
from ..baselines import (
    DeepSpeedChatSystem,
    NeMoAlignerSystem,
    OpenRLHFSystem,
    RealHeuristicSystem,
    RealSystem,
    VeRLSystem,
)
from ..baselines.base import BaselineSystem
from ..core.estimator import RuntimeEstimator
from ..core.search import SearchConfig
from ..service.server import PlanService
from .metrics import ThroughputRecord, static_memory_utilization
from .settings import ExperimentSetting

__all__ = [
    "default_search_config",
    "default_systems",
    "evaluate_setting",
    "run_comparison",
    "run_heuristic_comparison",
    "run_scheduler_comparison",
]

def default_search_config() -> SearchConfig:
    """Search budget used by the benchmark harness.

    Benchmarks must finish in CI-friendly time, so the default budget is a few
    thousand proposals; set ``REPRO_SEARCH_BUDGET_SCALE`` to enlarge it for
    higher-fidelity runs.  The wall-clock budget is far above what those
    proposals take, so only ``max_iterations`` stops a search and a slow host
    cannot move the figures built on it.
    """
    scale = knobs.get("REPRO_SEARCH_BUDGET_SCALE")
    return SearchConfig(
        max_iterations=int(3000 * scale),
        time_budget_s=3600.0 * scale,
    )


def default_systems() -> List[BaselineSystem]:
    """The Figure 7 comparison set: the four baselines, ReaL-Heuristic and ReaL."""
    return [
        DeepSpeedChatSystem(),
        OpenRLHFSystem(),
        NeMoAlignerSystem(),
        VeRLSystem(),
        RealHeuristicSystem(),
        RealSystem(search_config=default_search_config()),
    ]


def evaluate_setting(setting: ExperimentSetting, system: BaselineSystem) -> ThroughputRecord:
    """Evaluate one system on one setting and return a throughput record."""
    graph = setting.graph()
    workload = setting.workload()
    cluster = setting.cluster()
    evaluation = system.evaluate(graph, workload, cluster)
    extra: Dict[str, float] = {}
    if evaluation.feasible and evaluation.plan is not None:
        estimator = RuntimeEstimator(graph, workload, cluster)
        memory = estimator.max_memory(evaluation.plan)
        extra["static_mem_util"] = static_memory_utilization(
            memory, cluster.device_memory_bytes
        )
    return ThroughputRecord(
        setting=setting.name,
        system=evaluation.system,
        feasible=evaluation.feasible,
        seconds_per_iteration=evaluation.seconds_per_iteration,
        petaflops=evaluation.petaflops,
        extra=extra or None,
    )


def run_comparison(
    settings: Sequence[ExperimentSetting],
    systems: Optional[Sequence[BaselineSystem]] = None,
) -> List[ThroughputRecord]:
    """Evaluate every system on every setting (the Figure 7 grid)."""
    systems = list(systems) if systems is not None else default_systems()
    return [evaluate_setting(setting, system) for setting in settings for system in systems]


def run_heuristic_comparison(settings: Sequence[ExperimentSetting]) -> List[ThroughputRecord]:
    """ReaL vs ReaL-Heuristic only (Figures 8 and 16)."""
    return run_comparison(
        settings, [RealHeuristicSystem(), RealSystem(search_config=default_search_config())]
    )


def run_scheduler_comparison(
    cluster,
    jobs,
    policies: Sequence[object] = ("first_fit", "best_throughput", "priority"),
    config=None,
    plan_service: Optional[PlanService] = None,
    failures: Sequence[object] = (),
    trace_dir: Optional[str] = None,
):
    """Run one job trace under several scheduling policies.

    ``policies`` mixes policy names and instances (e.g. a configured
    :class:`~repro.sched.policies.StaticEqualPolicy` baseline).  When
    ``plan_service`` is given all runs share one plan cache, so policies
    after the first mostly re-score cached (job, shape) candidates — the
    comparison then measures scheduling quality, not repeated search cost.
    ``trace_dir`` exports one merged Chrome trace per policy
    (``schedule_<policy>.json`` — cluster events plus every job's
    engine-profiled iteration phases).  Returns one
    :class:`~repro.sched.metrics.ScheduleReport` per policy, in order.
    """
    from ..sched.policies import get_policy  # local import avoids a cycle
    from ..sched.scheduler import schedule_trace

    reports = []
    for policy in policies:
        trace_path = None
        if trace_dir is not None:
            trace_path = os.path.join(
                trace_dir, f"schedule_{get_policy(policy).name}.json"
            )
        reports.append(
            schedule_trace(
                cluster=cluster,
                jobs=jobs,
                policy=policy,
                config=config,
                service=plan_service,
                failures=failures,
                trace_path=trace_path,
            )
        )
    return reports
