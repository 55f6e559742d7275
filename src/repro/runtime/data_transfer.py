"""Data transfer between function calls with different layouts.

Model function calls produce data partitioned along the data-parallel
dimension and replicated along the tensor-parallel dimension (Section 6).
Moving that data to the next call's mesh and DP/TP layout mirrors the
broadcast-based parameter-reallocation algorithm with the TP and DP roles
swapped, which is exactly how we model it: the producer's DP shards are
broadcast to the consumer ranks that need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..cluster.comm import CommModel
from ..cluster.hardware import ClusterSpec
from ..core.plan import Allocation
from ..core.workload import CallWorkload

__all__ = ["DataTransferStep", "DataTransferPlan", "plan_data_transfer", "data_transfer_time"]

BYTES_PER_TOKEN = 16.0
"""Payload per sequence token: token id, log-prob, reward/value scalars."""


@dataclass(frozen=True)
class DataTransferStep:
    """One broadcast of a DP shard of the batch to consumer GPUs."""

    dp_rank: int
    src_gpu: int
    dst_gpus: Tuple[int, ...]
    nbytes: float


@dataclass
class DataTransferPlan:
    """All broadcasts needed to move one call's output to the next call."""

    steps: List[DataTransferStep]

    def is_empty(self) -> bool:
        return not self.steps


def _dp_shard_owners(alloc: Allocation) -> List[Tuple[int, List[int]]]:
    """For each DP rank of an allocation, the GPUs holding that data shard.

    Data is replicated across TP (and across pipeline stages only the last
    stage holds outputs, but we conservatively use the first TP group of each
    DP rank as the owner set).
    """
    dp, tp = alloc.parallel.dp, alloc.parallel.tp
    devices = alloc.mesh.device_ids
    owners: List[Tuple[int, List[int]]] = []
    for dp_rank in range(dp):
        base = dp_rank * tp
        owners.append((dp_rank, list(devices[base : base + tp])))
    return owners


def plan_data_transfer(
    src: Allocation, dst: Allocation, workload: CallWorkload
) -> DataTransferPlan:
    """Plan the broadcasts moving a batch from ``src``'s layout to ``dst``'s.

    Each source DP shard is broadcast from one of its owners to the
    destination GPUs that consume it; destinations already holding the shard
    (same GPU) receive nothing.
    """
    if (
        src.mesh == dst.mesh
        and src.parallel.dp == dst.parallel.dp
        and src.parallel.tp == dst.parallel.tp
    ):
        return DataTransferPlan(steps=[])
    total_bytes = workload.batch_size * workload.seqlen * BYTES_PER_TOKEN
    src_owners = _dp_shard_owners(src)
    dst_owners = _dp_shard_owners(dst)
    shard_bytes = total_bytes / max(1, len(src_owners))

    steps: List[DataTransferStep] = []
    for dp_rank, holders in src_owners:
        # Destination DP ranks whose data range overlaps this source shard.
        src_lo = dp_rank / len(src_owners)
        src_hi = (dp_rank + 1) / len(src_owners)
        receivers: List[int] = []
        for dst_rank, dst_gpus in dst_owners:
            dst_lo = dst_rank / len(dst_owners)
            dst_hi = (dst_rank + 1) / len(dst_owners)
            if min(src_hi, dst_hi) - max(src_lo, dst_lo) > 1e-12:
                receivers.extend(dst_gpus)
        src_gpu = holders[0]
        dst_gpus = tuple(sorted(set(g for g in receivers if g != src_gpu)))
        if not dst_gpus:
            continue
        steps.append(
            DataTransferStep(dp_rank=dp_rank, src_gpu=src_gpu, dst_gpus=dst_gpus, nbytes=shard_bytes)
        )
    return DataTransferPlan(steps=steps)


def data_transfer_time(plan: DataTransferPlan, cluster: ClusterSpec) -> float:
    """Wall time of a data-transfer plan (parallel broadcasts per source)."""
    if plan.is_empty():
        return 0.0
    comm = CommModel(cluster)
    per_source: dict[int, float] = {}
    for step in plan.steps:
        t = comm.broadcast_group_time(step.nbytes, step.src_gpu, step.dst_gpus)
        per_source[step.src_gpu] = per_source.get(step.src_gpu, 0.0) + t
    return max(per_source.values(), default=0.0)
