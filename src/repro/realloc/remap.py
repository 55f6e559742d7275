"""Parameter reallocation: remapping a model between two 3D layouts.

This implements the hierarchical procedure of Figure 6 in the paper.  The
outer loop walks pairs of (source, destination) pipeline stages and finds the
parameter blocks they have in common; the inner loop remaps each block from
the source stage's DP x TP mesh to the destination stage's DP x TP mesh.  For
every byte range a destination GPU needs, the planner greedily picks the
source GPU with the lowest communication cost (itself, then a GPU on the same
node, then a remote GPU); sources then broadcast their ranges to all assigned
destinations in parallel.

Every transformer layer of one (source stage, destination stage) pair has
the same holders and the same bytes, so within one call the greedy runs once
per such block pattern and its steps are replayed for each block with the
block's own id.  :func:`reallocation_time` times each distinct broadcast once
but still adds every step's time per GPU in step order, so a price is
bit-identical to planning and timing every block on its own.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..cluster.comm import CommModel
from ..cluster.hardware import ClusterSpec
from .layout import Interval, ParamLayout

__all__ = ["BroadcastStep", "ReallocationPlan", "plan_reallocation", "reallocation_time"]


@dataclass(frozen=True)
class BroadcastStep:
    """One broadcast of a contiguous shard range from a source GPU.

    Attributes
    ----------
    block_id:
        Parameter block being transferred (layer index, embedding or head).
    interval:
        Fractional byte range of the block carried by this broadcast.
    src_gpu:
        The GPU broadcasting the data.
    dst_gpus:
        The GPUs receiving it (never includes ``src_gpu``).
    nbytes:
        Payload size in bytes.
    """

    block_id: int
    interval: Interval
    src_gpu: int
    dst_gpus: Tuple[int, ...]
    nbytes: float


@dataclass
class ReallocationPlan:
    """The full set of broadcasts needed to remap one model's parameters."""

    steps: List[BroadcastStep] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        """Total payload bytes sent on the network (each broadcast counted once)."""
        return sum(step.nbytes for step in self.steps)

    @property
    def total_received_bytes(self) -> float:
        """Total bytes received across all destination GPUs."""
        return sum(step.nbytes * len(step.dst_gpus) for step in self.steps)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def is_empty(self) -> bool:
        """True when no communication is required (layouts already match)."""
        return not self.steps

    def bytes_received_by(self, gpu_id: int) -> float:
        """Bytes received by one destination GPU."""
        return sum(step.nbytes for step in self.steps if gpu_id in step.dst_gpus)

    def bytes_sent_by(self, gpu_id: int) -> float:
        """Bytes broadcast by one source GPU."""
        return sum(step.nbytes for step in self.steps if step.src_gpu == gpu_id)


def _interval_intersection(a: Interval, b: Interval) -> Interval | None:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if hi <= lo + 1e-12:
        return None
    return (lo, hi)


def _subtract_interval(needed: Interval, held: Interval | None) -> List[Interval]:
    """Byte ranges of ``needed`` not covered by ``held``."""
    if held is None:
        return [needed]
    overlap = _interval_intersection(needed, held)
    if overlap is None:
        return [needed]
    pieces: List[Interval] = []
    if needed[0] < overlap[0]:
        pieces.append((needed[0], overlap[0]))
    if overlap[1] < needed[1]:
        pieces.append((overlap[1], needed[1]))
    return pieces


def _source_cost(cluster: ClusterSpec, src_gpu: int, dst_gpu: int) -> int:
    """Greedy preference key: local GPU < same node < remote node."""
    if src_gpu == dst_gpu:
        return 0
    if cluster.same_node(src_gpu, dst_gpu):
        return 1
    return 2


BlockSteps = Tuple[Tuple[Interval, int, Tuple[int, ...], float], ...]
"""One block's broadcasts as ``(interval, src_gpu, receivers, nbytes)``, in plan order."""


def _plan_block(
    src_holders: Dict[int, Interval],
    dst_needs: Dict[int, Interval],
    block_bytes: float,
    cluster: ClusterSpec,
    block_id: int,
) -> BlockSteps:
    """The greedy broadcasts remapping one block from its holders to its needers.

    The result depends only on the two holder maps, ``block_bytes`` and the
    cluster (``block_id`` only names the block in errors), which is what lets
    :func:`plan_reallocation` reuse it for every block of the same pattern.
    """
    # Split every destination's needed range along the source TP partition
    # boundaries so each piece is held in full by some set of source GPUs.
    boundaries = sorted({b for iv in src_holders.values() for b in iv} | {0.0, 1.0})
    segments: List[Interval] = [
        (lo, hi) for lo, hi in zip(boundaries[:-1], boundaries[1:]) if hi > lo + 1e-12
    ]

    # segment -> list of destination GPUs that still need it.
    pending: Dict[Interval, List[int]] = defaultdict(list)
    for dst_gpu, needed in dst_needs.items():
        already_held = src_holders.get(dst_gpu)
        missing = _subtract_interval(needed, already_held)
        for miss in missing:
            for seg in segments:
                piece = _interval_intersection(miss, seg)
                if piece is not None:
                    pending[piece].append(dst_gpu)

    steps = []
    for piece, dst_gpus in sorted(pending.items()):
        # Source candidates: GPUs whose held interval covers the piece.
        candidates = [
            gpu
            for gpu, held in src_holders.items()
            if held[0] <= piece[0] + 1e-12 and held[1] >= piece[1] - 1e-12
        ]
        if not candidates:
            raise RuntimeError(
                f"no source GPU holds range {piece} of block {block_id}; "
                "source layout is inconsistent"
            )
        # Greedy: pick the candidate with the lowest total cost to the
        # destination set (prefer local / same-node sources).
        best_src = min(
            candidates,
            key=lambda g: (sum(_source_cost(cluster, g, d) for d in dst_gpus), g),
        )
        receivers = tuple(sorted(d for d in dst_gpus if d != best_src))
        if receivers:
            steps.append((piece, best_src, receivers, block_bytes * (piece[1] - piece[0])))
    return tuple(steps)


def plan_reallocation(src: ParamLayout, dst: ParamLayout) -> ReallocationPlan:
    """Derive the broadcast schedule remapping parameters from ``src`` to ``dst``.

    The returned plan satisfies the coverage invariant: for every destination
    GPU and every parameter block it must hold under ``dst``, the union of the
    ranges it already holds under ``src`` and the ranges it receives equals the
    required range (verified by property-based tests).

    The holders are taken once per pipeline stage, and the greedy runs once
    per ``(source stage, destination stage, block bytes)`` pattern: every
    block of a pattern gets the same steps, in the same order, under its own
    ``block_id``.
    """
    if src.config.name != dst.config.name:
        raise ValueError(
            f"cannot reallocate between different models ({src.config.name} vs {dst.config.name})"
        )
    cluster = src.mesh.cluster
    src_holders = [src.stage_holders(stage) for stage in range(src.parallel.pp)]
    dst_needs = [dst.stage_holders(stage) for stage in range(dst.parallel.pp)]
    patterns: Dict[Tuple[int, int, float], BlockSteps] = {}
    plan = ReallocationPlan()
    for block_id in dst.block_ids():
        src_stage = src.stage_of_block(block_id)
        dst_stage = dst.stage_of_block(block_id)
        block_bytes = dst.block_bytes(block_id)
        pattern = (src_stage, dst_stage, block_bytes)
        block_steps = patterns.get(pattern)
        if block_steps is None:
            block_steps = patterns[pattern] = _plan_block(
                src_holders[src_stage], dst_needs[dst_stage], block_bytes, cluster, block_id
            )
        for interval, src_gpu, receivers, nbytes in block_steps:
            plan.steps.append(
                BroadcastStep(
                    block_id=block_id,
                    interval=interval,
                    src_gpu=src_gpu,
                    dst_gpus=receivers,
                    nbytes=nbytes,
                )
            )
    return plan


def reallocation_time(plan: ReallocationPlan, cluster: ClusterSpec) -> float:
    """Estimate the wall time of executing a reallocation plan.

    Broadcasts from distinct source GPUs proceed in parallel; broadcasts from
    the same source are serialized.  The result is the maximum over GPUs of
    the time each spends sending or receiving, mirroring the paper's
    simulation of the Section 6 algorithm (data size over link bandwidth, no
    real NCCL call).
    """
    if plan.is_empty():
        return 0.0
    comm = CommModel(cluster)
    times: Dict[Tuple[float, int, Tuple[int, ...]], float] = {}
    send_time: Dict[int, float] = defaultdict(float)
    recv_time: Dict[int, float] = defaultdict(float)
    for step in plan.steps:
        # Every layer of a block pattern repeats the same broadcasts: time
        # each distinct one once, but add it per step, in step order.
        broadcast = (step.nbytes, step.src_gpu, step.dst_gpus)
        t = times.get(broadcast)
        if t is None:
            t = times[broadcast] = comm.broadcast_group_time(*broadcast)
        send_time[step.src_gpu] += t
        for dst in step.dst_gpus:
            recv_time[dst] += t
    busiest_sender = max(send_time.values(), default=0.0)
    busiest_receiver = max(recv_time.values(), default=0.0)
    return max(busiest_sender, busiest_receiver)
