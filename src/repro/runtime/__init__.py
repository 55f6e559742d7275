"""Runtime engine: list-scheduled execution of execution plans on GPU timelines."""

from .data_transfer import (
    DataTransferPlan,
    DataTransferStep,
    data_transfer_time,
    plan_data_transfer,
)
from .engine import IterationTrace, RuntimeEngine, ThroughputResult

__all__ = [
    "RuntimeEngine",
    "IterationTrace",
    "ThroughputResult",
    "DataTransferPlan",
    "DataTransferStep",
    "plan_data_transfer",
    "data_transfer_time",
]
