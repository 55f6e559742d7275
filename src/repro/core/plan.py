"""Execution plans: per-function-call device meshes and parallel strategies.

An execution plan (Section 4 of the paper) assigns every model function call
of a dataflow graph a device mesh :math:`D_i`, a 3D parallelization strategy
:math:`S_i` and a number of micro-batches.  The *augmented* graph
:math:`G_p` additionally contains parameter-reallocation, data-transfer and
offload nodes.  Here reallocations are annotated edges
(:func:`reallocation_edges`) priced by :mod:`repro.realloc`, data transfers
are priced per graph edge by :mod:`repro.runtime.data_transfer`, and
offloading is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..cluster.hardware import ClusterSpec
from ..cluster.topology import DeviceMesh, full_cluster_mesh
from .dataflow import DataflowGraph
from .parallel import ParallelStrategy

__all__ = [
    "Allocation",
    "ExecutionPlan",
    "ReallocationEdge",
    "reallocation_edges",
    "symmetric_plan",
]


@dataclass(frozen=True, slots=True)
class Allocation:
    """Resources assigned to a single model function call.

    ``zero3`` marks DeepSpeed ZeRO-3 style data parallelism, where parameters,
    gradients and optimizer states are additionally sharded across the DP
    group at the cost of per-layer parameter all-gathers.  It is used by the
    DeepSpeed-Chat and OpenRLHF baseline models; ReaL's own plans use the
    Megatron 3D layout (``zero3=False``).

    ``key`` is the allocation's identity within its cluster, built once:
    ``(node_start, n_nodes, gpu_start, gpus_per_node, dp, tp, pp,
    n_microbatches, zero3)``.  Every allocation memo reads it or a slice of
    it, mostly these prefixes: ``key[:2]`` the nodes (a move between
    different ones crosses nodes), ``key[:4]`` the mesh, ``key[:6]`` the
    data-transfer layout (mesh, DP and TP) and ``key[:7]`` the parameter
    layout (mesh and strategy).  It stays out of ``==``, ``hash``, ``repr``
    and :meth:`to_dict`.
    """

    mesh: DeviceMesh
    parallel: ParallelStrategy
    n_microbatches: int = 1
    zero3: bool = False
    key: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_microbatches < 1:
            raise ValueError("n_microbatches must be >= 1")
        if self.parallel.world_size != self.mesh.n_gpus:
            raise ValueError(
                f"strategy {self.parallel} needs {self.parallel.world_size} GPUs "
                f"but mesh has {self.mesh.n_gpus}"
            )
        mesh, parallel = self.mesh, self.parallel
        object.__setattr__(self, "key", (
            mesh.node_start,
            mesh.n_nodes,
            mesh.gpu_start,
            mesh.gpus_per_node,
            parallel.dp,
            parallel.tp,
            parallel.pp,
            self.n_microbatches,
            self.zero3,
        ))

    def describe(self) -> str:
        """Human readable one-line summary of the allocation."""
        suffix = " zero3" if self.zero3 else ""
        return (
            f"{self.mesh.describe()}  {self.parallel.describe()}  "
            f"mbs={self.n_microbatches}{suffix}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (cluster shape is stored separately).

        The mesh is stored by its coordinates within its cluster.
        """
        return {
            "mesh": {
                "node_start": self.mesh.node_start,
                "n_nodes": self.mesh.n_nodes,
                "gpu_start": self.mesh.gpu_start,
                "gpus_per_node": self.mesh.gpus_per_node,
            },
            "parallel": {
                "dp": self.parallel.dp,
                "tp": self.parallel.tp,
                "pp": self.parallel.pp,
            },
            "n_microbatches": self.n_microbatches,
            "zero3": self.zero3,
        }


@dataclass(frozen=True)
class ReallocationEdge:
    """A parameter redistribution between two calls of the same model."""

    model_name: str
    src_call: str
    dst_call: str
    src: Allocation
    dst: Allocation

    @property
    def is_noop(self) -> bool:
        """True when source and destination layouts are identical."""
        return self.src.mesh == self.dst.mesh and self.src.parallel == self.dst.parallel


class ExecutionPlan:
    """Mapping from every call of a dataflow graph to an :class:`Allocation`."""

    def __init__(self, assignments: Mapping[str, Allocation], name: str = "plan") -> None:
        self.assignments: Dict[str, Allocation] = dict(assignments)
        self.name = name

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __getitem__(self, call_name: str) -> Allocation:
        return self.assignments[call_name]

    def __contains__(self, call_name: str) -> bool:
        return call_name in self.assignments

    def items(self) -> Iterable[Tuple[str, Allocation]]:
        """Iterate over ``(call_name, allocation)`` pairs."""
        return self.assignments.items()

    def with_assignment(self, call_name: str, allocation: Allocation) -> "ExecutionPlan":
        """Return a copy of the plan with one call reassigned."""
        new = dict(self.assignments)
        new[call_name] = allocation
        return ExecutionPlan(new, name=self.name)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, graph: DataflowGraph, cluster: ClusterSpec) -> None:
        """Check that the plan covers the graph and fits the cluster.

        Raises ``ValueError`` on any inconsistency: missing/extra calls,
        strategy/mesh mismatches or meshes outside the cluster.
        """
        missing = set(graph.call_names) - set(self.assignments)
        if missing:
            raise ValueError(f"plan misses allocations for calls: {sorted(missing)}")
        extra = set(self.assignments) - set(graph.call_names)
        if extra:
            raise ValueError(f"plan has allocations for unknown calls: {sorted(extra)}")
        for call_name, alloc in self.assignments.items():
            mesh_cluster = alloc.mesh.cluster
            if (mesh_cluster.n_nodes, mesh_cluster.gpus_per_node) != (
                cluster.n_nodes,
                cluster.gpus_per_node,
            ):
                raise ValueError(
                    f"allocation of {call_name!r} targets a cluster of shape "
                    f"({mesh_cluster.n_nodes}, {mesh_cluster.gpus_per_node}), "
                    f"expected ({cluster.n_nodes}, {cluster.gpus_per_node})"
                )

    def describe(self, graph: Optional[DataflowGraph] = None) -> str:
        """Multi-line table of the plan, similar to Tables 2--5 of the paper."""
        lines = [f"ExecutionPlan {self.name!r}:"]
        names = graph.topological_order() if graph is not None else sorted(self.assignments)
        for call_name in names:
            alloc = self.assignments[call_name]
            lines.append(f"  {call_name:<20s} {alloc.describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation of the plan.

        The originating cluster's shape is recorded next to the assignments,
        whose meshes are stored by coordinates, not by the full hardware
        spec.
        """
        clusters = {a.mesh.cluster for a in self.assignments.values()}
        shape: Optional[Tuple[int, int]] = None
        if clusters:
            any_cluster = next(iter(clusters))
            shape = (any_cluster.n_nodes, any_cluster.gpus_per_node)
        return {
            "name": self.name,
            "cluster_shape": list(shape) if shape is not None else None,
            "assignments": {
                call_name: alloc.to_dict()
                for call_name, alloc in sorted(self.assignments.items())
            },
        }


# ---------------------------------------------------------------------- #
# Augmentation helpers (parameter reallocation and data transfer edges)
# ---------------------------------------------------------------------- #
def reallocation_edges(graph: DataflowGraph, plan: ExecutionPlan) -> List[ReallocationEdge]:
    """Parameter reallocations implied by ``plan``.

    For every model, consecutive calls (in topological order) that use
    different meshes or strategies require redistributing the model's
    parameters between the two layouts.  The final call of the iteration also
    reallocates back to the first call's layout for the next iteration, which
    we represent as a wrap-around edge (the paper's parameter-version edge
    between iterations).
    """
    edges: List[ReallocationEdge] = []
    for model_name in graph.model_names():
        calls = graph.calls_of_model(model_name)
        if len(calls) < 2:
            continue
        sequence = calls + [calls[0]]  # wrap around to the next iteration
        for src_call, dst_call in zip(sequence[:-1], sequence[1:]):
            src = plan[src_call.name]
            dst = plan[dst_call.name]
            edge = ReallocationEdge(
                model_name=model_name,
                src_call=src_call.name,
                dst_call=dst_call.name,
                src=src,
                dst=dst,
            )
            if not edge.is_noop:
                edges.append(edge)
    return edges


def symmetric_plan(
    graph: DataflowGraph,
    cluster: ClusterSpec,
    strategy: ParallelStrategy,
    n_microbatches: int = 1,
    per_call_microbatches: Optional[Mapping[str, int]] = None,
    name: str = "symmetric",
) -> ExecutionPlan:
    """Build a plan that runs every call on the full cluster with one strategy.

    This is the "symmetric parallelization" configuration of Figure 1 (top)
    and the basis of the REAL-Heuristic baseline.
    """
    mesh = full_cluster_mesh(cluster)
    if strategy.world_size != mesh.n_gpus:
        raise ValueError(
            f"strategy {strategy.describe()} does not occupy the full cluster of {mesh.n_gpus} GPUs"
        )
    assignments: Dict[str, Allocation] = {}
    for call in graph.calls:
        mbs = n_microbatches
        if per_call_microbatches and call.name in per_call_microbatches:
            mbs = per_call_microbatches[call.name]
        assignments[call.name] = Allocation(mesh=mesh, parallel=strategy, n_microbatches=mbs)
    return ExecutionPlan(assignments, name=name)
