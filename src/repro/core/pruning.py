"""Search-space construction and pruning for execution plans.

The number of execution plans grows exponentially with the cluster size
(Section 5.2: more than :math:`10^{16}` plans on 64 GPUs, :math:`10^{24}` on
1000+ GPUs).  This module enumerates the per-call allocation options and
implements the pruning heuristics of Section 8.2: tensor parallelism never
exceeds the node width (inter-node TP is bandwidth-bound), strategies must
fully occupy their device mesh, obviously-OOM allocations are discarded, and
the micro-batch count is restricted to a small set of powers of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cluster.hardware import ClusterSpec
from ..cluster.topology import DeviceMesh, enumerate_device_meshes
from ..model.config import ModelConfig
from ..model.memory import PARAM_BYTES, MemoryModel
from .dataflow import DataflowGraph, FunctionCallType, ModelFunctionCall
from .parallel import ParallelStrategy, enumerate_strategies
from .plan import Allocation
from .workload import RLHFWorkload

__all__ = ["PruneConfig", "enumerate_allocations", "allocation_options", "search_space_size"]

DEFAULT_MICROBATCH_CHOICES = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class PruneConfig:
    """Knobs controlling how aggressively the search space is pruned.

    Attributes
    ----------
    max_tp_per_node:
        Discard strategies whose TP degree exceeds the number of GPUs per
        node (the paper's main pruning rule).
    prune_static_oom:
        Discard allocations whose static + parameter memory already exceeds
        the device capacity (cheap necessary condition for feasibility).
    microbatch_choices:
        Allowed numbers of micro-batches.
    min_mesh_gpus / max_mesh_gpus:
        Restrict the size of candidate device meshes (1 = no restriction).
    mesh_stride:
        Keep only every ``mesh_stride``-th mesh of each size class; a crude
        way to emulate coarser pruning levels for the Figure 14 ablation.
    """

    max_tp_per_node: bool = True
    prune_static_oom: bool = True
    microbatch_choices: Sequence[int] = DEFAULT_MICROBATCH_CHOICES
    min_mesh_gpus: int = 1
    max_mesh_gpus: Optional[int] = None
    mesh_stride: int = 1
    power_of_two_meshes: bool = True
    """Keep only multi-node meshes whose node count is a power of two and whose
    start is aligned to that count, so candidate meshes tile the cluster."""
    sub_node_mesh_gpu_limit: int = 32
    """Sub-node meshes (fractions of one host) are only considered on clusters
    of at most this many GPUs; on larger clusters a per-call mesh smaller than
    one node is never worthwhile and only inflates the search space."""

    def restrict(self, **changes) -> "PruneConfig":
        """Return a modified copy (dataclasses.replace wrapper)."""
        import dataclasses

        return dataclasses.replace(self, **changes)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _candidate_meshes(cluster: ClusterSpec, prune: PruneConfig) -> List[DeviceMesh]:
    meshes = enumerate_device_meshes(
        cluster,
        min_gpus=prune.min_mesh_gpus,
        max_gpus=prune.max_mesh_gpus or cluster.n_gpus,
    )
    if prune.power_of_two_meshes:
        kept: List[DeviceMesh] = []
        for mesh in meshes:
            if mesh.is_sub_node:
                if cluster.n_gpus > prune.sub_node_mesh_gpu_limit:
                    continue
                kept.append(mesh)
            elif mesh.is_full_cluster():
                kept.append(mesh)
            elif _is_power_of_two(mesh.n_nodes) and mesh.node_start % mesh.n_nodes == 0:
                kept.append(mesh)
        meshes = kept
    if prune.mesh_stride > 1:
        # Keep every stride-th mesh within each size class so that all sizes
        # stay represented.
        by_size: Dict[int, List[DeviceMesh]] = {}
        for mesh in meshes:
            by_size.setdefault(mesh.n_gpus, []).append(mesh)
        meshes = []
        for size in sorted(by_size):
            meshes.extend(by_size[size][:: prune.mesh_stride])
    return meshes


_MeshKey = Tuple[int, int, int, int]
_Layouts = FrozenSet[Tuple[int, int, int]]


def _mesh_key(mesh: DeviceMesh) -> _MeshKey:
    """Position and shape of a device mesh, as a hashable key."""
    return (mesh.node_start, mesh.n_nodes, mesh.gpu_start, mesh.gpus_per_node)


class _CallOptions:
    """One call's option list, compiled once into what a search reads of it.

    ``options``
        The allocation options in enumeration order (the order
        :meth:`~repro.core.search.MCMCSearcher._propose` indexes into with
        its RNG).
    ``by_mesh``
        :func:`_mesh_key` of each mesh → ``(span, layouts)``: ``span`` is the
        ``range`` of indexes its options occupy in ``options`` (they must be
        contiguous; a list that splits a mesh raises ``ValueError``) and
        ``layouts`` the ``(dp, tp, pp)`` strategies they use.  Meshes with
        equal strategy sets share one frozenset.
    ``representatives``
        The first option of each distinct (mesh shape, strategy,
        micro-batches, ZeRO-3) price, in list order.  A call's time depends
        on nothing else of an allocation, so the first representative with
        the least time is the option ``min(options, key=call_time)`` picks.
    """

    __slots__ = ("options", "by_mesh", "representatives")

    def __init__(self, options: List[Allocation]) -> None:
        by_mesh: Dict[_MeshKey, Tuple[range, _Layouts]] = {}
        layout_sets: Dict[_Layouts, _Layouts] = {}
        priced_by_shape: Dict[Tuple[int, int], set] = {}
        representatives: List[Allocation] = []
        start, n_options = 0, len(options)
        while start < n_options:
            mesh = options[start].mesh
            key = _mesh_key(mesh)
            end = start + 1
            while end < n_options and (
                options[end].mesh is mesh or _mesh_key(options[end].mesh) == key
            ):
                end += 1
            if key in by_mesh:
                raise ValueError(f"the options of mesh {key} are not contiguous")
            priced = priced_by_shape.setdefault((mesh.n_nodes, mesh.gpus_per_node), set())
            layouts = set()
            parallel = None
            for alloc in options[start:end]:
                # Options of one strategy are adjacent (micro-batch counts
                # vary fastest), so its layout is built once per run.
                if alloc.parallel is not parallel:
                    parallel = alloc.parallel
                    layout = (parallel.dp, parallel.tp, parallel.pp)
                    layouts.add(layout)
                price = (layout, alloc.n_microbatches, alloc.zero3)
                if price not in priced:
                    priced.add(price)
                    representatives.append(alloc)
            frozen = frozenset(layouts)
            by_mesh[key] = (range(start, end), layout_sets.setdefault(frozen, frozen))
            start = end
        self.options = options
        self.by_mesh = by_mesh
        self.representatives = representatives


class _OptionTable:
    """Compiled allocation options of one (cluster, prune) pair.

    Holds the candidate meshes, the pruned strategies of each mesh size
    (enumerated once, not once per mesh), every :class:`Allocation` built so
    far, interned on integer keys ``(mesh index, strategy index,
    micro-batches)`` so that value-equal options of different calls are one
    object, and each call's :class:`_CallOptions`, memoised by what pruning
    reads of a call: whether it trains, its model config and its batch size.
    Problems that pose calls of equal content on one table therefore share
    option lists, indexes and greedy candidates; a
    :class:`~repro.service.server.PlanService` keeps one table per
    (cluster, prune) content for its lifetime.
    """

    def __init__(self, cluster: ClusterSpec, prune: PruneConfig) -> None:
        self.cluster = cluster
        self.prune = prune
        self.meshes = _candidate_meshes(cluster, prune)
        self._max_tp = cluster.gpus_per_node if prune.max_tp_per_node else None
        self._strategies: Dict[int, List[ParallelStrategy]] = {}
        self._allocations: Dict[Tuple[int, int, int], Allocation] = {}
        self._compiled: Dict[Tuple[bool, ModelConfig, int], _CallOptions] = {}

    def _admissible(
        self, n_gpus: int, trains: bool, config: ModelConfig, batch_size: int
    ) -> List[Tuple[int, ParallelStrategy, List[int]]]:
        """``(strategy index, strategy, micro-batch counts)`` a call admits on
        any mesh of ``n_gpus`` GPUs, in enumeration order."""
        strategies = self._strategies.get(n_gpus)
        if strategies is None:
            strategies = enumerate_strategies(n_gpus, max_tp=self._max_tp)
            self._strategies[n_gpus] = strategies
        prune = self.prune
        memory = MemoryModel(config)
        param_count = config.param_count()
        rows: List[Tuple[int, ParallelStrategy, List[int]]] = []
        for index, strategy in enumerate(strategies):
            if not strategy.is_compatible_with_model(config):
                continue
            if strategy.dp > batch_size:
                continue
            if prune.prune_static_oom:
                param_bytes = param_count / (strategy.tp * strategy.pp) * PARAM_BYTES
                static = 0.0
                if trains:
                    static = memory.static_bytes_per_gpu(strategy.dp, strategy.tp, strategy.pp)
                if param_bytes + static > self.cluster.device_memory_bytes:
                    continue
            # Ceiling division: the runtime shards ceil(batch / dp) sequences
            # onto each DP rank, so a micro-batch count up to that ceiling is
            # admissible even when dp does not divide the batch size.
            per_dp_batch = -(-batch_size // strategy.dp)
            rows.append(
                (index, strategy, [m for m in prune.microbatch_choices if m <= per_dp_batch])
            )
        return rows

    def compile(
        self, call: ModelFunctionCall, config: ModelConfig, workload: RLHFWorkload
    ) -> _CallOptions:
        """The call's compiled options, built on first request of its content."""
        key = (
            call.call_type is FunctionCallType.TRAIN_STEP,
            config,
            workload.call_workload(call).batch_size,
        )
        compiled = self._compiled.get(key)
        if compiled is None:
            options = self._enumerate(*key)
            if not options:
                raise ValueError(
                    f"pruning left no feasible allocation for call {call.name!r}; "
                    "relax the PruneConfig"
                )
            compiled = self._compiled[key] = _CallOptions(options)
        return compiled

    def _enumerate(self, trains: bool, config: ModelConfig, batch_size: int) -> List[Allocation]:
        """All pruned allocation options of one call content, in enumeration
        order (mesh, then strategy, then micro-batch count)."""
        interned = self._allocations
        by_size: Dict[int, List[Tuple[int, ParallelStrategy, List[int]]]] = {}
        options: List[Allocation] = []
        for mesh_index, mesh in enumerate(self.meshes):
            rows = by_size.get(mesh.n_gpus)
            if rows is None:
                rows = by_size[mesh.n_gpus] = self._admissible(
                    mesh.n_gpus, trains, config, batch_size
                )
            for strategy_index, strategy, microbatches in rows:
                for mbs in microbatches:
                    key = (mesh_index, strategy_index, mbs)
                    alloc = interned.get(key)
                    if alloc is None:
                        alloc = interned[key] = Allocation(
                            mesh=mesh, parallel=strategy, n_microbatches=mbs
                        )
                    options.append(alloc)
        return options


def enumerate_allocations(
    call: ModelFunctionCall,
    config: ModelConfig,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    prune: PruneConfig = PruneConfig(),
) -> List[Allocation]:
    """All pruned allocation options for one model function call."""
    return list(_OptionTable(cluster, prune).compile(call, config, workload).options)


def allocation_options(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    prune: PruneConfig = PruneConfig(),
) -> Dict[str, List[Allocation]]:
    """Per-call allocation options for every call of the graph.

    Calls share one option table, so an allocation that several calls admit
    is a single object in all of their lists.  Each list is the caller's
    own copy.
    """
    table = _OptionTable(cluster, prune)
    return {
        call.name: list(
            table.compile(call, workload.model_config(call.model_name), workload).options
        )
        for call in graph.calls
    }


def search_space_size(options: Dict[str, List[Allocation]]) -> float:
    """Number of execution plans in the (pruned) search space."""
    size = 1.0
    for choices in options.values():
        size *= max(1, len(choices))
    return size
