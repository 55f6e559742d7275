"""Device meshes: rectangular slices of the cluster assigned to function calls.

The paper (Section 4) defines a device mesh ``D`` as a two-dimensional grid of
GPUs of shape ``(N, M)``.  Valid meshes either

* cover one or more *entire* hosts, i.e. shape ``(k, gpus_per_node)``, or
* cover a consecutive portion of a single host whose size divides the number
  of GPUs on that host, e.g. shapes ``(1, 1)``, ``(1, 2)``, ``(1, 4)`` on an
  8-GPU node.

This guarantees that multiple meshes can tile the cluster exactly, which the
paper relies on to avoid execution plans with permanently idle GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Sequence, Tuple

from .hardware import ClusterSpec

__all__ = [
    "DeviceMesh",
    "enumerate_device_meshes",
    "full_cluster_mesh",
    "meshes_tile_cluster",
]


@dataclass(frozen=True, slots=True)
class DeviceMesh:
    """A rectangular group of GPUs within a :class:`ClusterSpec`.

    Attributes
    ----------
    cluster:
        The cluster this mesh is carved out of.
    node_start:
        Index of the first node covered by the mesh.
    n_nodes:
        Number of consecutive nodes covered.
    gpu_start:
        Within-node index of the first GPU covered (must be 0 for
        multi-node meshes).
    gpus_per_node:
        Number of consecutive GPUs covered on each node.
    """

    cluster: ClusterSpec
    node_start: int
    n_nodes: int
    gpu_start: int
    gpus_per_node: int

    def __post_init__(self) -> None:
        c = self.cluster
        if self.n_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("mesh must contain at least one GPU")
        if self.node_start < 0 or self.node_start + self.n_nodes > c.n_nodes:
            raise ValueError(
                f"mesh nodes [{self.node_start}, {self.node_start + self.n_nodes}) "
                f"exceed cluster of {c.n_nodes} nodes"
            )
        if self.gpus_per_node > c.gpus_per_node:
            raise ValueError("mesh is wider than the node")
        if self.n_nodes > 1:
            if self.gpus_per_node != c.gpus_per_node or self.gpu_start != 0:
                raise ValueError("multi-node meshes must cover entire hosts")
        else:
            if c.gpus_per_node % self.gpus_per_node != 0:
                raise ValueError(
                    "sub-node mesh width must divide the number of GPUs per node"
                )
            if self.gpu_start % self.gpus_per_node != 0:
                raise ValueError("sub-node mesh must be aligned to its width")
            if self.gpu_start + self.gpus_per_node > c.gpus_per_node:
                raise ValueError("sub-node mesh exceeds the node")

    # ------------------------------------------------------------------ #
    # Basic geometry
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """The ``(N, M)`` shape used in the paper's notation."""
        return (self.n_nodes, self.gpus_per_node)

    @property
    def n_gpus(self) -> int:
        """Number of GPUs in the mesh."""
        return self.n_nodes * self.gpus_per_node

    @property
    def spans_nodes(self) -> bool:
        """Whether the mesh covers more than one node."""
        return self.n_nodes > 1

    @property
    def is_sub_node(self) -> bool:
        """Whether the mesh covers only part of a single node."""
        return self.n_nodes == 1 and self.gpus_per_node < self.cluster.gpus_per_node

    @property
    def device_ids(self) -> Tuple[int, ...]:
        """Global GPU indices covered by the mesh, in row-major order."""
        ids: List[int] = []
        for node in range(self.node_start, self.node_start + self.n_nodes):
            base = node * self.cluster.gpus_per_node + self.gpu_start
            ids.extend(range(base, base + self.gpus_per_node))
        return tuple(ids)

    @property
    def device_id_set(self) -> FrozenSet[int]:
        """Global GPU indices as a frozen set (for overlap queries)."""
        return frozenset(self.device_ids)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """Node indices covered by the mesh."""
        return tuple(range(self.node_start, self.node_start + self.n_nodes))

    # ------------------------------------------------------------------ #
    # Relations between meshes
    # ------------------------------------------------------------------ #
    def overlaps(self, other: "DeviceMesh") -> bool:
        """Whether this mesh shares at least one GPU with ``other``."""
        return bool(self.device_id_set & other.device_id_set)

    def contains(self, other: "DeviceMesh") -> bool:
        """Whether every GPU of ``other`` is also part of this mesh."""
        return other.device_id_set <= self.device_id_set

    def is_full_cluster(self) -> bool:
        """Whether the mesh covers the entire cluster."""
        return self.n_gpus == self.cluster.n_gpus

    def describe(self) -> str:
        """Return a SLURM-style node list string, e.g. ``trainer[01-04]``."""
        first = self.node_start + 1
        last = self.node_start + self.n_nodes
        if self.is_sub_node:
            return (
                f"trainer{first:02d}"
                f"[gpu{self.gpu_start}-{self.gpu_start + self.gpus_per_node - 1}]"
            )
        if first == last:
            return f"trainer{first:02d}"
        return f"trainer[{first:02d}-{last:02d}]"


def full_cluster_mesh(cluster: ClusterSpec) -> DeviceMesh:
    """The device mesh covering every GPU of ``cluster``."""
    return DeviceMesh(
        cluster=cluster,
        node_start=0,
        n_nodes=cluster.n_nodes,
        gpu_start=0,
        gpus_per_node=cluster.gpus_per_node,
    )


def _sub_node_widths(gpus_per_node: int) -> Iterator[int]:
    """Yield all widths that divide ``gpus_per_node`` (including itself)."""
    for width in range(1, gpus_per_node + 1):
        if gpus_per_node % width == 0:
            yield width


def enumerate_device_meshes(
    cluster: ClusterSpec,
    min_gpus: int = 1,
    max_gpus: int | None = None,
) -> List[DeviceMesh]:
    """Enumerate every valid device mesh in ``cluster``.

    Valid meshes are sub-node slices whose width divides the node size plus
    all multi-node meshes covering consecutive whole hosts, as described in
    Section 4 of the paper.  ``min_gpus``/``max_gpus`` optionally restrict the
    mesh size.
    """
    if max_gpus is None:
        max_gpus = cluster.n_gpus
    meshes: List[DeviceMesh] = []
    # Sub-node and single full-node meshes.
    for width in _sub_node_widths(cluster.gpus_per_node):
        if not (min_gpus <= width <= max_gpus):
            continue
        for node in range(cluster.n_nodes):
            for start in range(0, cluster.gpus_per_node, width):
                meshes.append(
                    DeviceMesh(
                        cluster=cluster,
                        node_start=node,
                        n_nodes=1,
                        gpu_start=start,
                        gpus_per_node=width,
                    )
                )
    # Multi-node meshes covering whole hosts.
    for span in range(2, cluster.n_nodes + 1):
        size = span * cluster.gpus_per_node
        if not (min_gpus <= size <= max_gpus):
            continue
        for node in range(cluster.n_nodes - span + 1):
            meshes.append(
                DeviceMesh(
                    cluster=cluster,
                    node_start=node,
                    n_nodes=span,
                    gpu_start=0,
                    gpus_per_node=cluster.gpus_per_node,
                )
            )
    return meshes


def meshes_tile_cluster(meshes: Sequence[DeviceMesh], cluster: ClusterSpec) -> bool:
    """Whether ``meshes`` are pairwise disjoint and together cover ``cluster``."""
    covered: set[int] = set()
    for mesh in meshes:
        ids = mesh.device_id_set
        if covered & ids:
            return False
        covered |= ids
    return len(covered) == cluster.n_gpus
