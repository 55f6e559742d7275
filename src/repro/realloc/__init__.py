"""Parameter reallocation: layouts, broadcast remapping and costs."""

from .cost import ReallocCost, ReallocCostModel
from .layout import EMBEDDING_BLOCK, HEAD_BLOCK, ParamLayout, layer_assignment
from .remap import BroadcastStep, ReallocationPlan, plan_reallocation, reallocation_time

__all__ = [
    "ParamLayout",
    "layer_assignment",
    "EMBEDDING_BLOCK",
    "HEAD_BLOCK",
    "BroadcastStep",
    "ReallocationPlan",
    "plan_reallocation",
    "reallocation_time",
    "ReallocCost",
    "ReallocCostModel",
]
