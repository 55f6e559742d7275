"""Mesh-shaped partitions of a shared cluster, and free-space tracking.

A :class:`Partition` is a located, mesh-shaped region of the shared cluster
(a :class:`~repro.cluster.topology.DeviceMesh` over the *parent* cluster)
together with the dedicated-looking :class:`~repro.cluster.hardware.ClusterSpec`
it carves out via :meth:`ClusterSpec.sub_cluster`.  Because the carved spec
carries no location, two partitions of the same shape pose byte-identical
planning problems — which is exactly what lets the scheduler score hundreds
of (job, partition) candidates through the plan service's exact-key cache.

The :class:`PartitionManager` tracks which GPUs are free, allocated or failed
and finds, per distinct shape, the lowest-located valid free partition (the
shapes the paper admits for device meshes: whole consecutive hosts, or
aligned sub-node slices).  Free space is recorded once, as one bitmask per
node, so shape queries generate valid placements *algebraically* from the
masks instead of filtering a pre-enumerated mesh list — on a 2,048-GPU
cluster that turns each query from a pass over ~36k meshes (building a
``device_id_set`` for every one) into a scan of 256 small integers, which is
what makes fleet-scale replay feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..cluster.hardware import ClusterSpec
from ..cluster.topology import DeviceMesh

__all__ = ["Partition", "PartitionManager", "equal_node_partitions"]


@dataclass(frozen=True)
class Partition:
    """A located mesh-shaped slice of the shared cluster."""

    region: DeviceMesh

    @property
    def cluster(self) -> ClusterSpec:
        """The parent (shared) cluster the partition is carved from."""
        return self.region.cluster

    @property
    def n_gpus(self) -> int:
        return self.region.n_gpus

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_nodes, gpus_per_node)`` shape of the partition."""
        return self.region.shape

    @property
    def device_ids(self) -> Tuple[int, ...]:
        """Global GPU ids (within the parent cluster) covered."""
        return self.region.device_ids

    @property
    def device_id_set(self) -> FrozenSet[int]:
        return self.region.device_id_set

    @property
    def spec(self) -> ClusterSpec:
        """The partition as a dedicated-looking cluster (location erased)."""
        return self.cluster.sub_cluster(self.region.n_nodes, self.region.gpus_per_node)

    def describe(self) -> str:
        """Human readable location string, e.g. ``trainer[01-04]``."""
        return f"{self.region.describe()} ({self.n_gpus} GPUs)"


def equal_node_partitions(cluster: ClusterSpec, n_slots: int) -> List[Partition]:
    """Carve the cluster into ``n_slots`` equal whole-node partitions.

    This is the naive static baseline the scheduler benchmark compares
    against: every slot gets ``n_nodes // n_slots`` consecutive hosts and the
    carving never changes.  ``n_slots`` must not exceed the node count.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    if n_slots > cluster.n_nodes:
        raise ValueError(
            f"cannot carve {cluster.n_nodes} nodes into {n_slots} equal node slots"
        )
    span = cluster.n_nodes // n_slots
    return [
        Partition(
            DeviceMesh(
                cluster=cluster,
                node_start=slot * span,
                n_nodes=span,
                gpu_start=0,
                gpus_per_node=cluster.gpus_per_node,
            )
        )
        for slot in range(n_slots)
    ]


class PartitionManager:
    """Free/allocated/failed GPU bookkeeping over one shared cluster.

    Free space is one bitmask per node (bit ``g`` of node ``n``'s mask set
    when GPU ``n * gpus_per_node + g`` is free); every query, :meth:`is_free`
    and :attr:`n_free` included, reads the masks.  Allocations are kept per
    owner and failures as a GPU-id set.
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        self._allocated: Dict[int, FrozenSet[int]] = {}
        self._failed: set = set()
        gpn = cluster.gpus_per_node
        self._widths = [w for w in range(1, gpn + 1) if gpn % w == 0]
        self._full_mask = (1 << gpn) - 1
        self._node_mask: List[int] = [self._full_mask] * cluster.n_nodes

    # ------------------------------------------------------------------ #
    # Free-mask maintenance
    # ------------------------------------------------------------------ #
    def _clear_free_bits(self, ids: Iterable[int]) -> None:
        gpn = self.cluster.gpus_per_node
        masks = self._node_mask
        for gid in ids:
            masks[gid // gpn] &= ~(1 << (gid % gpn))

    def _set_free_bits(self, ids: Iterable[int]) -> None:
        gpn = self.cluster.gpus_per_node
        masks = self._node_mask
        for gid in ids:
            masks[gid // gpn] |= 1 << (gid % gpn)

    def _masks_with(self, extra_free: FrozenSet[int]) -> List[int]:
        """Node masks under the hypothesis that ``extra_free`` is also free."""
        if not extra_free:
            return self._node_mask
        gpn = self.cluster.gpus_per_node
        masks = list(self._node_mask)
        for gid in extra_free:
            masks[gid // gpn] |= 1 << (gid % gpn)
        return masks

    def _full_node_runs(self, masks: List[int]) -> List[Tuple[int, int]]:
        """Maximal runs of entirely-free nodes as ``(start, length)`` pairs."""
        runs: List[Tuple[int, int]] = []
        full = self._full_mask
        run_start: Optional[int] = None
        for node, mask in enumerate(masks):
            if mask == full:
                if run_start is None:
                    run_start = node
            elif run_start is not None:
                runs.append((run_start, node - run_start))
                run_start = None
        if run_start is not None:
            runs.append((run_start, len(masks) - run_start))
        return runs

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def is_free(self, partition: Partition) -> bool:
        """Whether every GPU of ``partition`` is free."""
        region = partition.region
        window = ((1 << region.gpus_per_node) - 1) << region.gpu_start
        masks = self._node_mask
        return all(
            masks[node] & window == window
            for node in range(region.node_start, region.node_start + region.n_nodes)
        )

    @property
    def failed_ids(self) -> FrozenSet[int]:
        return frozenset(self._failed)

    @property
    def n_free(self) -> int:
        return sum(map(int.bit_count, self._node_mask))

    @property
    def n_available(self) -> int:
        """GPUs not lost to failures (free or allocated)."""
        return self.cluster.n_gpus - len(self._failed)

    def distinct_shapes(
        self,
        min_gpus: int = 1,
        max_gpus: Optional[float] = None,
        extra_free: FrozenSet[int] = frozenset(),
    ) -> List[Partition]:
        """One representative candidate per distinct partition shape.

        Same-shaped partitions pose identical planning problems, so costing
        one representative per shape is enough to score them all.  The
        representative is the shape's placement with the lowest node, then
        the lowest first GPU, found directly from the node masks; this is the
        scheduler's per-decision hot query.  Shapes come smallest first.
        ``extra_free`` asks a hypothetical question ("what could I place if
        these GPUs were also free?"), as preemption and elastic-resize
        decisions do.
        """
        cluster = self.cluster
        gpn = cluster.gpus_per_node
        # Clamp before integer arithmetic: gpu_ceiling may be infinite.
        limit = cluster.n_gpus if max_gpus is None else min(max_gpus, cluster.n_gpus)
        masks = self._masks_with(extra_free)
        out: List[Partition] = []
        for width in self._widths:
            if width < min_gpus or width > limit:
                continue
            window = (1 << width) - 1
            found = False
            for node, mask in enumerate(masks):
                if not mask:
                    continue
                for start in range(0, gpn, width):
                    if (mask >> start) & window == window:
                        out.append(
                            Partition(
                                DeviceMesh(
                                    cluster=cluster,
                                    node_start=node,
                                    n_nodes=1,
                                    gpu_start=start,
                                    gpus_per_node=width,
                                )
                            )
                        )
                        found = True
                        break
                if found:
                    break
        max_span = min(cluster.n_nodes, int(limit // gpn))
        if max_span >= 2:
            runs = self._full_node_runs(masks)
            for span in range(2, max_span + 1):
                if span * gpn < min_gpus:
                    continue
                for run_start, run_len in runs:
                    if run_len >= span:
                        out.append(
                            Partition(
                                DeviceMesh(
                                    cluster=cluster,
                                    node_start=run_start,
                                    n_nodes=span,
                                    gpu_start=0,
                                    gpus_per_node=gpn,
                                )
                            )
                        )
                        break
        return out

    # perfbench's layer tracer patches this name (perfbench/layer_trace.py);
    # it goes when that patch target does.  Nothing calls it.
    candidates = distinct_shapes

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def allocate(self, partition: Partition, owner: int) -> None:
        """Hand the partition's GPUs to ``owner`` (a job uid)."""
        ids = partition.device_id_set
        if not self.is_free(partition):
            gpn = self.cluster.gpus_per_node
            masks = self._node_mask
            missing = sorted(gid for gid in ids if not masks[gid // gpn] >> (gid % gpn) & 1)
            raise ValueError(f"partition GPUs not free: {missing}")
        self._clear_free_bits(ids)
        self._allocated[owner] = ids

    def release(self, owner: int) -> None:
        """Return an owner's GPUs to the free pool (failed ones stay out)."""
        ids = self._allocated.pop(owner, frozenset())
        self._set_free_bits(ids - self._failed)

    def fail_node(self, node: int) -> FrozenSet[int]:
        """Mark a whole node failed; returns the affected GPU ids."""
        if not (0 <= node < self.cluster.n_nodes):
            raise ValueError(f"node {node} out of range")
        ids = frozenset(
            range(
                node * self.cluster.gpus_per_node,
                (node + 1) * self.cluster.gpus_per_node,
            )
        )
        self._failed |= ids
        self._node_mask[node] = 0
        return ids

    def restore_node(self, node: int) -> FrozenSet[int]:
        """Bring a failed node back; its GPUs rejoin the free pool."""
        if not (0 <= node < self.cluster.n_nodes):
            raise ValueError(f"node {node} out of range")
        ids = frozenset(
            range(
                node * self.cluster.gpus_per_node,
                (node + 1) * self.cluster.gpus_per_node,
            )
        )
        recovered = ids & self._failed
        self._failed -= recovered
        allocated = set().union(*self._allocated.values()) if self._allocated else set()
        self._set_free_bits(recovered - allocated)
        return recovered

    def owner_ids(self, owner: int) -> FrozenSet[int]:
        """GPUs currently held by ``owner`` (empty when none)."""
        return frozenset(self._allocated.get(owner, frozenset()))
