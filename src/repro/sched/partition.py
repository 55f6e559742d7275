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
aligned sub-node slices).  Free space is one bitmask per node plus an
incremental index over it: per sub-node width, one bitset over nodes whose
bit ``n`` is set when node ``n`` has an aligned free window of that width
(the full width's bitset marks the entirely-free nodes).  A mutation
refreshes only the nodes it touches, so a shape query does constant work
per shape — the lowest node of a width is the bitset's lowest set bit, and
the lowest ``k``-node run is the lowest set bit of ``k`` shifted copies of
the full-node bitset ANDed together — instead of scanning every node.  That
is what makes the scheduler's per-decision query cheap at fleet scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..cluster.hardware import ClusterSpec
from ..cluster.topology import DeviceMesh

__all__ = ["Partition", "PartitionManager"]


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
    def device_id_set(self) -> FrozenSet[int]:
        return self.region.device_id_set

    @property
    def spec(self) -> ClusterSpec:
        """The partition as a dedicated-looking cluster (location erased)."""
        return self.cluster.sub_cluster(self.region.n_nodes, self.region.gpus_per_node)

    def describe(self) -> str:
        """Human readable location string, e.g. ``trainer[01-04]``."""
        return f"{self.region.describe()} ({self.n_gpus} GPUs)"


class _WindowTable(dict):
    """Node-mask value -> ``(starts, fits)`` for one ``gpus_per_node``.

    ``starts[i]`` is the lowest aligned start of a free window of the ``i``-th
    width in the mask (``-1`` when none fits) and bit ``i`` of ``fits`` is set
    when one does.  Entries are filled on first sight of a mask value.
    """

    def __init__(self, gpus_per_node: int) -> None:
        super().__init__()
        self.gpus_per_node = gpus_per_node
        self.widths = [w for w in range(1, gpus_per_node + 1) if gpus_per_node % w == 0]

    def __missing__(self, mask: int) -> Tuple[Tuple[int, ...], int]:
        starts = []
        fits = 0
        for i, width in enumerate(self.widths):
            window = (1 << width) - 1
            start = next(
                (s for s in range(0, self.gpus_per_node, width) if (mask >> s) & window == window),
                -1,
            )
            starts.append(start)
            if start >= 0:
                fits |= 1 << i
        entry = self[mask] = (tuple(starts), fits)
        return entry


_WINDOW_TABLES: Dict[int, _WindowTable] = {}


class PartitionManager:
    """Free/allocated/failed GPU bookkeeping over one shared cluster.

    Free space is one bitmask per node (bit ``g`` of node ``n``'s mask set
    when GPU ``n * gpus_per_node + g`` is free) and, per sub-node width, one
    bitset over nodes (``_free_nodes``; bit ``n`` set when node ``n`` has an
    aligned free window of that width, the last width being the whole
    node).  Every mutation keeps both in step node by node.  Allocations are
    kept per owner as regions and failures per node (failures take whole
    nodes).
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        gpn = cluster.gpus_per_node
        table = _WINDOW_TABLES.get(gpn)
        if table is None:
            table = _WINDOW_TABLES[gpn] = _WindowTable(gpn)
        self._table = table
        self._widths = table.widths
        self._allocated: Dict[int, DeviceMesh] = {}
        self._failed_nodes: set = set()
        self._full_mask = (1 << gpn) - 1
        self._node_mask: List[int] = [self._full_mask] * cluster.n_nodes
        self._free_nodes: List[int] = [(1 << cluster.n_nodes) - 1] * len(self._widths)
        self._n_free = cluster.n_gpus

    # ------------------------------------------------------------------ #
    # Free-space maintenance
    # ------------------------------------------------------------------ #
    def _retag(self, free_nodes: List[int], node: int, old: int, new: int) -> None:
        """Move ``node`` between the width bitsets as its mask goes ``old`` -> ``new``."""
        table = self._table
        flips = table[old][1] ^ table[new][1]
        bit = 1 << node
        i = 0
        while flips:
            if flips & 1:
                free_nodes[i] ^= bit
            flips >>= 1
            i += 1

    def _set_mask(self, node: int, mask: int) -> None:
        old = self._node_mask[node]
        self._node_mask[node] = mask
        self._n_free += mask.bit_count() - old.bit_count()
        self._retag(self._free_nodes, node, old, mask)

    def _mark(self, region: DeviceMesh, free: bool) -> None:
        """Set (``free``) or clear the region's window on each of its nodes;
        failed nodes stay empty."""
        window = ((1 << region.gpus_per_node) - 1) << region.gpu_start
        masks = self._node_mask
        failed = self._failed_nodes
        for node in range(region.node_start, region.node_start + region.n_nodes):
            if free:
                if node not in failed:
                    self._set_mask(node, masks[node] | window)
            else:
                self._set_mask(node, masks[node] & ~window)

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
        gpn = self.cluster.gpus_per_node
        return frozenset(
            gid for node in self._failed_nodes for gid in range(node * gpn, (node + 1) * gpn)
        )

    @property
    def n_free(self) -> int:
        return self._n_free

    @property
    def n_available(self) -> int:
        """GPUs not lost to failures (free or allocated)."""
        return self.cluster.n_gpus - len(self._failed_nodes) * self.cluster.gpus_per_node

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
        the lowest first GPU, read off the free-space index; this is the
        scheduler's per-decision hot query.  Shapes come smallest first.
        ``extra_free`` asks a hypothetical question ("what could I place if
        these GPUs were also free?"), as preemption and elastic-resize
        decisions do; it is answered from a copy of the index with the
        touched nodes refreshed.
        """
        cluster = self.cluster
        gpn = cluster.gpus_per_node
        # Clamp before integer arithmetic: gpu_ceiling may be infinite.
        limit = cluster.n_gpus if max_gpus is None else min(max_gpus, cluster.n_gpus)
        masks = self._node_mask
        free_nodes = self._free_nodes
        if extra_free:
            masks = list(masks)
            free_nodes = list(free_nodes)
            for gid in extra_free:
                node = gid // gpn
                old = masks[node]
                masks[node] = old | 1 << (gid % gpn)
                self._retag(free_nodes, node, old, masks[node])
        table = self._table
        out: List[Partition] = []
        for i, width in enumerate(self._widths):
            nodes = free_nodes[i]
            if width < min_gpus or width > limit or not nodes:
                continue
            node = (nodes & -nodes).bit_length() - 1
            out.append(
                Partition(
                    DeviceMesh(
                        cluster=cluster,
                        node_start=node,
                        n_nodes=1,
                        gpu_start=table[masks[node]][0][i],
                        gpus_per_node=width,
                    )
                )
            )
        max_span = min(cluster.n_nodes, int(limit // gpn))
        full = free_nodes[-1]
        runs = full
        for span in range(2, max_span + 1):
            # Bit n of runs: nodes n .. n + span - 1 are all entirely free.
            runs &= full >> (span - 1)
            if not runs:
                break
            if span * gpn < min_gpus:
                continue
            out.append(
                Partition(
                    DeviceMesh(
                        cluster=cluster,
                        node_start=(runs & -runs).bit_length() - 1,
                        n_nodes=span,
                        gpu_start=0,
                        gpus_per_node=gpn,
                    )
                )
            )
        return out

    # perfbench's layer tracer patches this name (perfbench/layer_trace.py);
    # it goes when that patch target does.  Nothing calls it.
    candidates = distinct_shapes

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def allocate(self, partition: Partition, owner: int) -> None:
        """Hand the partition's GPUs to ``owner`` (a job uid)."""
        if not self.is_free(partition):
            gpn = self.cluster.gpus_per_node
            masks = self._node_mask
            missing = [
                gid for gid in partition.region.device_ids
                if not masks[gid // gpn] >> (gid % gpn) & 1
            ]
            raise ValueError(f"partition GPUs not free: {sorted(missing)}")
        self._mark(partition.region, free=False)
        self._allocated[owner] = partition.region

    def release(self, owner: int) -> None:
        """Return an owner's GPUs to the free pool (failed ones stay out)."""
        region = self._allocated.pop(owner, None)
        if region is not None:
            self._mark(region, free=True)

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.cluster.n_nodes):
            raise ValueError(f"node {node} out of range")

    def _node_ids(self, node: int) -> FrozenSet[int]:
        gpn = self.cluster.gpus_per_node
        return frozenset(range(node * gpn, (node + 1) * gpn))

    def fail_node(self, node: int) -> FrozenSet[int]:
        """Mark a whole node failed; returns the affected GPU ids."""
        self._check_node(node)
        self._failed_nodes.add(node)
        self._set_mask(node, 0)
        return self._node_ids(node)

    def restore_node(self, node: int) -> FrozenSet[int]:
        """Bring a failed node back; its GPUs rejoin the free pool."""
        self._check_node(node)
        if node not in self._failed_nodes:
            return frozenset()
        self._failed_nodes.discard(node)
        held = 0
        for region in self._allocated.values():
            if region.node_start <= node < region.node_start + region.n_nodes:
                held |= ((1 << region.gpus_per_node) - 1) << region.gpu_start
        self._set_mask(node, self._full_mask & ~held)
        return self._node_ids(node)

    def owner_ids(self, owner: int) -> FrozenSet[int]:
        """GPUs currently held by ``owner`` (empty when none)."""
        region = self._allocated.get(owner)
        return frozenset() if region is None else region.device_id_set
