"""Throughput and utilisation metrics used by the evaluation figures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.dataflow import DataflowGraph
from ..core.estimator import MemoryEstimate
from ..core.workload import RLHFWorkload

__all__ = ["petaflops_per_second", "static_memory_utilization", "ThroughputRecord"]


def petaflops_per_second(
    workload: RLHFWorkload, graph: DataflowGraph, seconds_per_iteration: float
) -> float:
    """The paper's throughput metric: total iteration FLOPs over wall time."""
    if seconds_per_iteration <= 0:
        raise ValueError("seconds_per_iteration must be positive")
    return workload.iteration_flops(graph.calls) / seconds_per_iteration / 1e15


def static_memory_utilization(memory: MemoryEstimate, device_memory_bytes: float) -> float:
    """Fraction of device memory occupied by static (gradient/optimizer) state.

    The paper recommends this as the heuristic for picking the cluster size:
    utilisation below ~60% signals diminishing returns from more GPUs
    (Figure 17, right).
    """
    if device_memory_bytes <= 0:
        raise ValueError("device_memory_bytes must be positive")
    if not memory.static_per_gpu:
        return 0.0
    mean_static = sum(memory.static_per_gpu.values()) / len(memory.static_per_gpu)
    return mean_static / device_memory_bytes


@dataclass
class ThroughputRecord:
    """One measured point of a throughput figure."""

    setting: str
    system: str
    feasible: bool
    seconds_per_iteration: float
    petaflops: float
    extra: Dict[str, float] | None = None

    def as_row(self) -> Dict[str, object]:
        """Flatten into a printable dict."""
        row: Dict[str, object] = {
            "setting": self.setting,
            "system": self.system,
            "feasible": self.feasible,
            "s/iter": round(self.seconds_per_iteration, 2) if self.feasible else "OOM",
            "PFLOP/s": round(self.petaflops, 2) if self.feasible else 0.0,
        }
        if self.extra:
            row.update({k: round(v, 4) for k, v in self.extra.items()})
        return row
