"""Analytical cost models for collective and point-to-point communication.

These are the classical alpha-beta (latency + bandwidth) models used by
Megatron-LM- and Alpa-style planners.  The estimator in
:mod:`repro.core.estimator` and the runtime engine in
:mod:`repro.runtime.engine` both consume this module, so the relative weight
of tensor-parallel all-reduces, pipeline point-to-point sends, data-parallel
gradient reductions and parameter-reallocation broadcasts is consistent
throughout the reproduction.
"""

from __future__ import annotations

from typing import Sequence

from .hardware import ClusterSpec

__all__ = ["CommModel"]


class CommModel:
    """Alpha-beta communication cost model over a :class:`ClusterSpec`.

    Every method returns time in seconds.  Operations spanning multiple nodes
    are charged against the (slower) inter-node bandwidth, operations within a
    node against the NVLink bandwidth; a transfer between a GPU and itself is
    free.
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        self._ic = cluster.interconnect

    # ------------------------------------------------------------------ #
    # Link primitives
    # ------------------------------------------------------------------ #
    def link_bandwidth(self, cross_node: bool) -> float:
        """Point-to-point bandwidth (bytes/s) of a single link."""
        if cross_node:
            # The node NIC is shared by all GPUs on the node; a single p2p
            # stream typically cannot saturate it, so we charge the per-GPU
            # share of the node bandwidth.
            return self._ic.inter_node_bandwidth / self.cluster.gpus_per_node
        return self._ic.intra_node_bandwidth

    def link_latency(self, cross_node: bool) -> float:
        """Base latency (seconds) of a single point-to-point transfer."""
        return self._ic.inter_node_latency_s if cross_node else self._ic.intra_node_latency_s

    def _group_bandwidth(self, n: int, cross_node: bool) -> float:
        """Per-rank bandwidth available to an ``n``-way collective."""
        if cross_node:
            # Ring collectives across nodes are bottlenecked by the per-node
            # NIC, which every participating GPU on the node shares.
            return self._ic.inter_node_bandwidth / self.cluster.gpus_per_node
        return self._ic.intra_node_bandwidth

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #
    def p2p_time_cross(self, nbytes: float, cross_node: bool) -> float:
        """P2P time when only the intra/inter-node distinction is known."""
        if nbytes <= 0:
            return 0.0
        return self.link_latency(cross_node) + nbytes / self.link_bandwidth(cross_node)

    # ------------------------------------------------------------------ #
    # Collectives (ring algorithms)
    # ------------------------------------------------------------------ #
    def allreduce_time(self, nbytes: float, n: int, cross_node: bool) -> float:
        """Ring all-reduce of an ``nbytes`` buffer across ``n`` ranks."""
        if n <= 1 or nbytes <= 0:
            return 0.0
        bw = self._group_bandwidth(n, cross_node)
        steps = 2 * (n - 1)
        return (
            self._ic.collective_latency_s
            + steps * self.link_latency(cross_node)
            + 2.0 * (n - 1) / n * nbytes / bw
        )

    def reduce_scatter_time(self, nbytes: float, n: int, cross_node: bool) -> float:
        """Ring reduce-scatter of an ``nbytes`` buffer across ``n`` ranks."""
        if n <= 1 or nbytes <= 0:
            return 0.0
        bw = self._group_bandwidth(n, cross_node)
        return (
            self._ic.collective_latency_s
            + (n - 1) * self.link_latency(cross_node)
            + (n - 1) / n * nbytes / bw
        )

    def allgather_time(self, nbytes: float, n: int, cross_node: bool) -> float:
        """Ring all-gather producing an ``nbytes`` buffer on every rank."""
        return self.reduce_scatter_time(nbytes, n, cross_node)

    def broadcast_time(self, nbytes: float, n_dst: int, cross_node: bool) -> float:
        """Broadcast ``nbytes`` from one rank to ``n_dst`` destination ranks."""
        if n_dst <= 0 or nbytes <= 0:
            return 0.0
        bw = self._group_bandwidth(n_dst + 1, cross_node)
        return (
            self._ic.collective_latency_s
            + self.link_latency(cross_node)
            + nbytes / bw
        )

    # ------------------------------------------------------------------ #
    # Explicit destination sets
    # ------------------------------------------------------------------ #
    def broadcast_group_time(
        self,
        nbytes: float,
        src_gpu: int,
        dst_gpus: Sequence[int],
    ) -> float:
        """Broadcast ``nbytes`` from ``src_gpu`` to an explicit destination set.

        Destinations identical to the source are free.  Used by the parameter
        reallocation planner (Figure 6 in the paper).
        """
        real_dsts = [g for g in dst_gpus if g != src_gpu]
        if not real_dsts or nbytes <= 0:
            return 0.0
        cross = any(not self.cluster.same_node(src_gpu, d) for d in real_dsts)
        return self.broadcast_time(nbytes, len(real_dsts), cross)
