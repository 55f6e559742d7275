"""Parameter layouts: which GPU holds which slice of which layer.

Given a model configuration, a device mesh and a 3D parallelization strategy,
:class:`ParamLayout` describes the placement of every parameter block of the
model: transformer layers are grouped into pipeline stages, sharded across
the tensor-parallel ranks of the stage and replicated across its data-parallel
ranks.  The reallocation planner in :mod:`repro.realloc.remap` operates on two
such layouts (source and destination) to derive the broadcast schedule of
Figure 6 of the paper.

Parameter blocks are identified by integer ids: ``0 .. n_layers-1`` for the
transformer layers, :data:`EMBEDDING_BLOCK` for the input embedding (placed on
the first pipeline stage) and :data:`HEAD_BLOCK` for the output head (placed on
the last stage).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from ..cluster.topology import DeviceMesh
from ..core.parallel import ParallelStrategy
from ..model.config import ModelConfig
from ..model.memory import PARAM_BYTES

__all__ = [
    "EMBEDDING_BLOCK",
    "HEAD_BLOCK",
    "Interval",
    "ParamLayout",
    "layer_assignment",
]

EMBEDDING_BLOCK = -1
"""Parameter block id of the input token embedding."""

HEAD_BLOCK = -2
"""Parameter block id of the output head (LM head or value head)."""


Interval = Tuple[float, float]
"""A half-open fractional byte range ``[lo, hi)`` within a parameter block."""


def layer_assignment(n_layers: int, pp: int) -> List[range]:
    """Split ``n_layers`` layers into ``pp`` contiguous pipeline stages.

    Layers are distributed as evenly as possible; earlier stages receive the
    remainder, matching Megatron-LM's default balanced partition.
    """
    if pp < 1:
        raise ValueError("pp must be >= 1")
    if pp > n_layers:
        raise ValueError(f"cannot split {n_layers} layers into {pp} pipeline stages")
    base = n_layers // pp
    remainder = n_layers % pp
    stages: List[range] = []
    start = 0
    for stage in range(pp):
        size = base + (1 if stage < remainder else 0)
        stages.append(range(start, start + size))
        start += size
    return stages


@dataclass(frozen=True)
class ParamLayout:
    """Placement of a model's parameters under ``(mesh, parallel)``.

    Rank order follows the Megatron convention with TP innermost, then DP,
    then PP: global rank ``r`` maps to ``tp_rank = r % tp``,
    ``dp_rank = (r // tp) % dp`` and ``pp_rank = r // (tp * dp)``.  Ranks map
    to GPUs through the mesh's row-major device order, so TP groups stay
    within a node whenever ``tp`` does not exceed the mesh's node width.
    """

    config: ModelConfig
    mesh: DeviceMesh
    parallel: ParallelStrategy

    def __post_init__(self) -> None:
        if self.parallel.world_size != self.mesh.n_gpus:
            raise ValueError(
                f"strategy {self.parallel} does not match mesh of {self.mesh.n_gpus} GPUs"
            )
        if self.parallel.pp > self.config.n_layers:
            raise ValueError("pipeline degree exceeds the number of layers")

    # ------------------------------------------------------------------ #
    # Rank geometry
    # ------------------------------------------------------------------ #
    @cached_property
    def stages(self) -> List[range]:
        """Layer ranges of each pipeline stage (computed once per layout)."""
        return layer_assignment(self.config.n_layers, self.parallel.pp)

    def rank_of_coords(self, pp_rank: int, dp_rank: int, tp_rank: int) -> int:
        """Global rank of a ``(pp, dp, tp)`` coordinate."""
        tp, dp = self.parallel.tp, self.parallel.dp
        return pp_rank * dp * tp + dp_rank * tp + tp_rank

    def gpu_of_rank(self, rank: int) -> int:
        """Global GPU id running the given rank."""
        return self.mesh.device_ids[rank]

    def gpu_of_coords(self, pp_rank: int, dp_rank: int, tp_rank: int) -> int:
        """Global GPU id of a ``(pp, dp, tp)`` coordinate."""
        return self.gpu_of_rank(self.rank_of_coords(pp_rank, dp_rank, tp_rank))

    # ------------------------------------------------------------------ #
    # Block placement
    # ------------------------------------------------------------------ #
    def block_ids(self) -> List[int]:
        """All parameter block ids of the model."""
        return [EMBEDDING_BLOCK, HEAD_BLOCK] + list(range(self.config.n_layers))

    def block_bytes(self, block_id: int) -> float:
        """Total bytes of a parameter block (across all shards)."""
        if block_id == EMBEDDING_BLOCK:
            return self.config.embedding_params() * PARAM_BYTES
        if block_id == HEAD_BLOCK:
            return self.config.output_head_params() * PARAM_BYTES
        if not (0 <= block_id < self.config.n_layers):
            raise ValueError(f"unknown parameter block {block_id}")
        return self.config.layer_params() * PARAM_BYTES

    def stage_of_block(self, block_id: int) -> int:
        """Pipeline stage holding a parameter block."""
        if block_id == EMBEDDING_BLOCK:
            return 0
        if block_id == HEAD_BLOCK:
            return self.parallel.pp - 1
        for stage, layers in enumerate(self.stages):
            if block_id in layers:
                return stage
        raise ValueError(f"unknown parameter block {block_id}")

    def shard_interval(self, tp_rank: int) -> Interval:
        """Fractional byte range of a block held by ``tp_rank``."""
        tp = self.parallel.tp
        if not (0 <= tp_rank < tp):
            raise ValueError(f"tp_rank {tp_rank} out of range for tp={tp}")
        return (tp_rank / tp, (tp_rank + 1) / tp)

    def holder_intervals(self, block_id: int) -> Dict[int, Interval]:
        """Mapping ``gpu_id -> fractional interval`` for one parameter block."""
        return self.stage_holders(self.stage_of_block(block_id))

    def stage_holders(self, stage: int) -> Dict[int, Interval]:
        """Mapping ``gpu_id -> fractional interval`` shared by every block of ``stage``."""
        out: Dict[int, Interval] = {}
        for tp_rank in range(self.parallel.tp):
            interval = self.shard_interval(tp_rank)
            for dp_rank in range(self.parallel.dp):
                out[self.gpu_of_coords(stage, dp_rank, tp_rank)] = interval
        return out
