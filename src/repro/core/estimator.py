"""The lightweight runtime estimator: TimeCost(Gp), MaxMem(Gp) and cost(Gp).

Given a dataflow graph, a workload and an execution plan, the estimator
predicts the plan's iteration time with the priority-queue simulation of
Algorithm 1 (Appendix C of the paper), its peak per-device memory, and the
search cost that penalises out-of-memory plans:

.. math::

   cost(G_p) = \\mathbb{1}[MaxMem < mem_d] \\cdot TimeCost
             + (1 - \\mathbb{1}[MaxMem < mem_d]) \\cdot \\alpha \\cdot TimeCost

Evaluating one plan takes a fraction of a millisecond, which is what makes
the MCMC search over :math:`10^{16}`-sized spaces feasible.  To get there,
the estimator memoises every expensive per-component quantity — per-call
:class:`CostBreakdown` totals by call content and shape (position-free, in a
:class:`~repro.core.call_cost.CallCostTable` that estimators may share),
reallocation-edge costs by ``(model, src layout, dst layout)``,
data-transfer times by edge and layout pair, and per-call memory
contributions — and offers an incremental
:meth:`RuntimeEstimator.cost_delta` path that re-evaluates a plan after a
single-call move by recomputing only what that move can affect (the moved
call's duration, its model's reallocation edges, its incident data-transfer
edges and its memory contribution) before re-running the cheap scheduling
simulation.  All caches are exact memoisations of pure functions, so the
fast path is bit-for-bit consistent with a full recompute; set
``cross_check=True`` to verify that invariant on every evaluation (used by
the test suite).
"""

from __future__ import annotations

import heapq
from array import array
from bisect import insort, bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..cluster.comm import CommModel
from ..cluster.hardware import ClusterSpec
from ..cluster.topology import DeviceMesh
from ..model.memory import PARAM_BYTES
from ..realloc.cost import ReallocCostModel
from .call_cost import CallCostModel, CallCostTable, CostBreakdown
from .dataflow import DataflowGraph
from .plan import Allocation, ExecutionPlan
from .profiler import AnalyticalProvider, LayerTimeProvider, ProfileStats, ProfiledProvider
from .workload import RLHFWorkload

__all__ = [
    "TimeCostResult",
    "MemoryEstimate",
    "EvalCacheStats",
    "RuntimeEstimator",
    "DEFAULT_OOM_PENALTY",
]

DEFAULT_OOM_PENALTY = 100.0
"""The large integer alpha multiplying the time cost of OOM-ing plans."""

_MAX_PLAN_STATES = 32
"""How many per-plan component states the estimator keeps around (LRU)."""

_MAX_PLAN_EVALS = 16384
"""Default LRU capacity of the signature-keyed (TimeCost, MaxMem) eval cache."""

_MAX_INTERNED_ALLOCS = 65536
"""How many allocation objects to keep in the key-interning identity map."""


@dataclass(slots=True)
class EvalCacheStats:
    """Counters of the signature-keyed eval cache (hits/misses/evictions).

    Long-lived estimators (e.g. inside a :class:`~repro.service.server.PlanService`)
    used to grow this cache without bound; it is now a capped LRU and these
    counters make its behaviour observable.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass(slots=True)
class TimeCostResult:
    """Result of the Algorithm-1 simulation of one RLHF iteration."""

    total_seconds: float
    spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    call_seconds: Dict[str, float] = field(default_factory=dict)
    realloc_seconds: float = 0.0
    data_transfer_seconds: float = 0.0
    breakdowns: Dict[str, CostBreakdown] = field(default_factory=dict)


@dataclass(slots=True)
class MemoryEstimate:
    """Peak memory usage per GPU and in aggregate."""

    per_gpu: Dict[int, float]
    static_per_gpu: Dict[int, float]

    @property
    def max_bytes(self) -> float:
        """Peak bytes on the most loaded GPU."""
        return max(self.per_gpu.values(), default=0.0)

    @property
    def max_static_bytes(self) -> float:
        """Peak static (gradient + optimizer) bytes on the most loaded GPU."""
        return max(self.static_per_gpu.values(), default=0.0)


@dataclass(slots=True)
class _PlanState:
    """Memoised per-component state of one concrete plan.

    Everything the scheduling simulation and the memory aggregation need,
    with the expensive per-call/per-edge quantities already resolved.  All
    fields are flat lists indexed by call id (or edge id), so a single-call
    move is a handful of C-speed ``list.copy()`` calls plus point updates.
    ``__slots__`` keeps the per-state footprint flat: the MCMC chain creates
    one of these per proposal.
    """

    durations: List[float]
    """Wall time of each call under its allocation (by call id)."""
    realloc_in: List[float]
    """Reallocation seconds charged to each call (by call id).  Every call
    has at most one incoming reallocation edge — the one from its
    predecessor in its model's reallocation cycle."""
    transfers: List[float]
    """Data-transfer seconds per graph edge (by edge id)."""
    mesh_spans: List[Tuple[int, int]]
    """Per call: half-open global GPU id range ``[lo, hi)`` of its mesh
    (device meshes always cover a contiguous run of global GPU ids)."""
    mem: List[Tuple[float, float, float]]
    """Per call: (static bytes, parameter-shard bytes, active bytes)."""


class RuntimeEstimator:
    """Profiling-assisted analytical estimator for execution plans.

    Parameters
    ----------
    graph, workload, cluster:
        The experiment being planned.
    profiles:
        Optional per-model :class:`ProfileStats`.  When given, layer times are
        interpolated from the profiled power-of-two samples (the paper's
        estimator); otherwise the exact analytical model is used.
    use_cuda_graph:
        Whether generation decoding benefits from CUDA-graph capture.
    use_cache:
        Memoise per-call, per-edge and per-plan quantities (the fast path).
        Disable to reproduce the from-scratch evaluation cost; results are
        identical either way.
    cross_check:
        Verify every fast-path evaluation against a full recompute and raise
        ``RuntimeError`` on any mismatch.  Slow; meant for tests.
    eval_cache_size:
        LRU capacity of the signature-keyed (TimeCost, MaxMem) eval cache.
        Bounded so long-lived estimators (e.g. held by a plan service) cannot
        grow without limit; ``eval_cache_stats`` exposes hit/miss/eviction
        counters.
    call_costs:
        The :class:`~repro.core.call_cost.CallCostTable` that memoises call
        times, shared with every other estimator given the same table (a
        plan service passes one to all its estimators).  Without one the
        estimator builds a private table.  Estimators built from
        ``profiles`` always use a private table: profiled timings are not a
        function of the table's content key.

    The memo caches are plain dicts holding values of pure functions, so
    concurrent use from several threads (e.g. a plan service shared by
    several client threads) is safe under the GIL: racing writes store
    identical values.
    """

    def __init__(
        self,
        graph: DataflowGraph,
        workload: RLHFWorkload,
        cluster: ClusterSpec,
        profiles: Optional[Mapping[str, ProfileStats]] = None,
        use_cuda_graph: bool = True,
        use_cache: bool = True,
        cross_check: bool = False,
        eval_cache_size: int = _MAX_PLAN_EVALS,
        call_costs: Optional[CallCostTable] = None,
    ) -> None:
        if eval_cache_size < 1:
            raise ValueError(f"eval_cache_size must be >= 1, got {eval_cache_size}")
        self.graph = graph
        self.workload = workload
        self.cluster = cluster
        self.use_cache = use_cache
        self.cross_check = cross_check
        self.comm = CommModel(cluster)
        self.realloc_model = ReallocCostModel(cluster)
        self._cost_models: Dict[str, CallCostModel] = {}
        for model_name in graph.model_names():
            config = workload.model_config(model_name)
            provider: LayerTimeProvider
            if profiles is not None and model_name in profiles:
                provider = ProfiledProvider(config, cluster, profiles[model_name])
            else:
                provider = AnalyticalProvider(config, cluster)
            self._cost_models[model_name] = CallCostModel(
                config, cluster, provider, use_cuda_graph=use_cuda_graph
            )
        # Graph structure is immutable for the estimator's lifetime: resolve
        # the adjacency maps, the edge list and the per-model call sequences
        # once instead of per evaluation.  Calls and edges get dense integer
        # ids so per-plan state lives in flat lists.
        self._call_names: List[str] = list(graph.call_names)
        self._call_index: Dict[str, int] = {n: i for i, n in enumerate(self._call_names)}
        self._call_model: Dict[str, str] = {c.name: c.model_name for c in graph.calls}
        self._model_by_id: List[str] = [self._call_model[n] for n in self._call_names]
        self._parents: Dict[str, List[str]] = graph.parents_map()
        self._children: Dict[str, List[str]] = graph.children_map()
        self._edges: List[Tuple[str, str]] = list(graph.edges)
        # Outgoing adjacency in CSR form (array-backed): the children and edge
        # ids of call ``i`` live at positions [_out_ptr[i], _out_ptr[i+1]) of
        # the flat ``_out_child``/``_out_edge`` arrays — no per-call tuple
        # lists to chase in the simulation's inner loop.  Per call we also
        # keep the edge ids the call participates in (what a move can
        # invalidate).
        out_pairs: List[List[Tuple[int, int]]] = [[] for _ in self._call_names]
        incident: List[List[int]] = [[] for _ in self._call_names]
        for edge_id, (src, dst) in enumerate(self._edges):
            src_id, dst_id = self._call_index[src], self._call_index[dst]
            out_pairs[src_id].append((dst_id, edge_id))
            incident[src_id].append(edge_id)
            if dst_id != src_id:
                incident[dst_id].append(edge_id)
        self._out_ptr = array("l", [0] * (len(self._call_names) + 1))
        out_child: List[int] = []
        out_edge: List[int] = []
        for call_id, pairs in enumerate(out_pairs):
            for child_id, edge_id in pairs:
                out_child.append(child_id)
                out_edge.append(edge_id)
            self._out_ptr[call_id + 1] = len(out_child)
        self._out_child = array("l", out_child)
        self._out_edge = array("l", out_edge)
        self._incident_edge_ids: List[Tuple[int, ...]] = [
            tuple(edge_ids) for edge_ids in incident
        ]
        self._model_calls: Dict[str, List[str]] = {
            m: [c.name for c in graph.calls_of_model(m)] for m in graph.model_names()
        }
        # Predecessor/successor of each call in its model's reallocation cycle
        # (None when the model has a single call and thus no realloc edges).
        self._realloc_neighbors: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        for calls in self._model_calls.values():
            if len(calls) < 2:
                for name in calls:
                    self._realloc_neighbors[name] = (None, None)
            else:
                n = len(calls)
                for i, name in enumerate(calls):
                    self._realloc_neighbors[name] = (calls[i - 1], calls[(i + 1) % n])
        self._call_workloads = {c.name: workload.call_workload(c) for c in graph.calls}
        if call_costs is None or profiles is not None:
            call_costs = CallCostTable()
        self._call_costs = call_costs
        # Content token of each call: the call-time memo is keyed on it, so
        # calls that pose the same pricing problem share entries.
        self._call_token: Dict[str, int] = {
            c.name: call_costs.token(
                c.call_type,
                workload.model_config(c.model_name),
                self._call_workloads[c.name],
                cluster,
                use_cuda_graph,
            )
            for c in graph.calls
        }
        # Memo caches (exact values of pure functions of their keys).
        self._call_time_cache: Dict[Tuple, float] = call_costs.times
        self._breakdown_cache: Dict[Tuple, CostBreakdown] = {}
        self._realloc_cache: Dict[Tuple, float] = {}
        self._transfer_cache: Dict[Tuple, float] = {}
        self._mem_cache: Dict[Tuple, Tuple[float, float, float]] = {}
        self._states: "OrderedDict[Tuple, _PlanState]" = OrderedDict()
        self._sig_memo: Tuple[Optional[ExecutionPlan], Tuple] = (None, ())
        self._eval_cache: "OrderedDict[Tuple, Tuple[float, float]]" = OrderedDict()
        self._eval_cache_size = int(eval_cache_size)
        self.eval_cache_stats = EvalCacheStats()
        # Allocation-key interning: option tables hold a fixed population of
        # Allocation objects that get keyed millions of times per search, so
        # the key of each *object* (by id) is remembered and value-equal keys
        # collapse onto one shared tuple.  Each entry stores ``(alloc, key)``
        # together: the stored reference pins the object so its id cannot be
        # recycled while its memo entry lives, and keeping pin and key in one
        # dict value means a concurrent overflow ``clear()`` can only drop
        # whole entries (forcing a recompute), never leave a key behind for a
        # recycled id.
        self._alloc_key_by_id: Dict[int, Tuple[Allocation, Tuple]] = {}
        self._key_intern: Dict[Tuple, Tuple] = {}
        # Simulation constants: indegrees and the initial ready heap.  Heap
        # entries carry the call's alphabetical rank so equal-ready-time ties
        # resolve exactly as they would with ``(time, name)`` keys.
        self._parent_counts = array(
            "l", [len(self._parents[name]) for name in self._call_names]
        )
        rank_order = sorted(range(len(self._call_names)), key=self._call_names.__getitem__)
        self._rank_to_id = array("l", rank_order)
        self._rank_of = array("l", [0] * len(rank_order))
        for rank, call_id in enumerate(rank_order):
            self._rank_of[call_id] = rank
        self._root_heap: List[Tuple[float, int]] = sorted(
            (0.0, self._rank_of[i])
            for i, count in enumerate(self._parent_counts)
            if count == 0
        )

    # ------------------------------------------------------------------ #
    # Cache keys (flat int tuples: cheap to build, hash and compare)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _alloc_key(alloc: Allocation) -> Tuple:
        mesh, parallel = alloc.mesh, alloc.parallel
        return (
            mesh.node_start,
            mesh.n_nodes,
            mesh.gpu_start,
            mesh.gpus_per_node,
            parallel.dp,
            parallel.tp,
            parallel.pp,
            alloc.n_microbatches,
            alloc.zero3,
        )

    def _shape_key(self, call_name: str, alloc: Allocation) -> Tuple:
        """Position-free identity of a call under an allocation.

        :class:`CallCostModel` never reads where a mesh sits (``node_start``,
        ``gpu_start``), so every allocation of one shape shares a breakdown,
        and the call enters only through its content token, so every call
        with the same content does too.  Built from the attributes rather
        than :meth:`_key_for`, so sweeping every option (greedy
        initialisation) interns none of them.
        """
        mesh, parallel = alloc.mesh, alloc.parallel
        return (
            self._call_token[call_name],
            mesh.n_nodes,
            mesh.gpus_per_node,
            parallel.dp,
            parallel.tp,
            parallel.pp,
            alloc.n_microbatches,
            alloc.zero3,
        )

    @staticmethod
    def _layout_key(alloc: Allocation) -> Tuple:
        """Identity of an allocation as far as parameter layout is concerned."""
        mesh, parallel = alloc.mesh, alloc.parallel
        return (
            mesh.node_start,
            mesh.n_nodes,
            mesh.gpu_start,
            mesh.gpus_per_node,
            parallel.dp,
            parallel.tp,
            parallel.pp,
        )

    @staticmethod
    def _transfer_key(alloc: Allocation) -> Tuple:
        """Identity of an allocation as far as data movement is concerned."""
        mesh, parallel = alloc.mesh, alloc.parallel
        return (
            mesh.node_start,
            mesh.n_nodes,
            mesh.gpu_start,
            mesh.gpus_per_node,
            parallel.dp,
            parallel.tp,
        )

    def _key_for(self, alloc: Allocation) -> Tuple:
        """Interned allocation key: one shared tuple per distinct allocation.

        Plans reference the fixed Allocation population of the searcher's
        option table, so keying by object identity turns the 9-attribute
        tuple build into a single dict lookup on the hot path.  The memo is
        bounded; overflowing it (pathological churn of fresh Allocation
        objects) just resets the identity map, never the interned values.
        """
        entry = self._alloc_key_by_id.get(id(alloc))
        if entry is not None:
            return entry[1]
        raw = self._alloc_key(alloc)
        key = self._key_intern.setdefault(raw, raw)
        if len(self._alloc_key_by_id) >= _MAX_INTERNED_ALLOCS:
            self._alloc_key_by_id.clear()
        self._alloc_key_by_id[id(alloc)] = (alloc, key)
        return key

    def _plan_signature(self, plan: ExecutionPlan) -> Tuple:
        # The same plan object is typically queried many times in a row (the
        # MCMC chain's current plan); memoise the last signature by identity.
        memo_plan, memo_sig = self._sig_memo
        if plan is memo_plan:
            return memo_sig
        key_for = self._key_for
        signature = tuple(key_for(plan[name]) for name in self._call_names)
        self._sig_memo = (plan, signature)
        return signature

    # ------------------------------------------------------------------ #
    # Per-call costs
    # ------------------------------------------------------------------ #
    def cost_model(self, model_name: str) -> CallCostModel:
        """The per-call cost model of one LLM."""
        return self._cost_models[model_name]

    def _compute_breakdown(self, call_name: str, alloc: Allocation) -> CostBreakdown:
        call = self.graph.get(call_name)
        wl = self._call_workloads[call_name]
        return self._cost_models[call.model_name].breakdown(call, wl, alloc)

    def call_breakdown(self, call_name: str, alloc: Allocation) -> CostBreakdown:
        """Cost breakdown of one call under an allocation.

        Memoised by call content and shape (:meth:`_shape_key`): allocations
        that differ only in mesh position share one entry.  Returns a fresh
        copy so callers may mutate the breakdown without corrupting the cache.
        """
        if not self.use_cache:
            return self._compute_breakdown(call_name, alloc)
        key = self._shape_key(call_name, alloc)
        cached = self._breakdown_cache.get(key)
        if cached is None:
            cached = self._compute_breakdown(call_name, alloc)
            self._breakdown_cache[key] = cached
        return cached.scaled(1.0)

    def call_time(self, call_name: str, alloc: Allocation) -> float:
        """Wall time of one call under an allocation, memoised by call
        content and shape in the estimator's :class:`CallCostTable`."""
        if not self.use_cache:
            return self._compute_breakdown(call_name, alloc).total
        key = self._shape_key(call_name, alloc)
        cached = self._call_time_cache.get(key)
        if cached is not None:
            return cached
        value = self._compute_breakdown(call_name, alloc).total
        self._call_costs.store(key, value)
        return value

    # ------------------------------------------------------------------ #
    # Reallocation cost along parameter edges
    # ------------------------------------------------------------------ #
    def _realloc_seconds(self, model_name: str, src: Allocation, dst: Allocation) -> float:
        """Seconds to remap ``model_name``'s parameters from ``src`` to ``dst``.

        The approximate reallocation model (the default for plan search)
        depends only on the destination's TP/PP sharding and on whether the
        move crosses nodes, so its memo key collapses to that; the exact
        broadcast-schedule model keys on the full (src, dst) layout pair.
        """
        if self.realloc_model.exact:
            key = (model_name, self._layout_key(src), self._layout_key(dst))
        else:
            cross = (src.mesh.node_start, src.mesh.n_nodes) != (
                dst.mesh.node_start,
                dst.mesh.n_nodes,
            )
            key = (model_name, dst.parallel.tp, dst.parallel.pp, cross)
        cached = self._realloc_cache.get(key) if self.use_cache else None
        if cached is not None:
            return cached
        config = self.workload.model_config(model_name)
        value = self.realloc_model.cost(config, src, dst).seconds
        if self.use_cache:
            self._realloc_cache[key] = value
        return value

    def _realloc_in_list(self, alloc_of: Callable[[str], Allocation]) -> List[float]:
        """Reallocation seconds charged to each call (by call id).

        Mirrors :func:`~repro.core.plan.reallocation_edges`: consecutive calls
        of a model (plus the wrap-around to the next iteration) whose layouts
        differ pay a reallocation on the destination call; every call is the
        destination of at most one such edge.
        """
        realloc_in = [0.0] * len(self._call_names)
        for model_name, calls in self._model_calls.items():
            if len(calls) < 2:
                continue
            sequence = calls + [calls[0]]
            for src_call, dst_call in zip(sequence[:-1], sequence[1:]):
                src, dst = alloc_of(src_call), alloc_of(dst_call)
                if self._layout_key(src) == self._layout_key(dst):
                    continue
                realloc_in[self._call_index[dst_call]] = self._realloc_seconds(
                    model_name, src, dst
                )
        return realloc_in

    # ------------------------------------------------------------------ #
    # Data transfer cost along graph edges
    # ------------------------------------------------------------------ #
    def _edge_transfer_time(
        self, src_name: str, dst_name: str, src_alloc: Allocation, dst_alloc: Allocation
    ) -> float:
        """Time to move the producer's output to the consumer's layout.

        Data is partitioned along DP and replicated along TP; moving it to a
        different mesh/strategy is a broadcast-style redistribution whose
        volume is the per-token hidden states and scalar outputs of the batch.
        """
        if (
            src_alloc.mesh == dst_alloc.mesh
            and src_alloc.parallel.dp == dst_alloc.parallel.dp
            and src_alloc.parallel.tp == dst_alloc.parallel.tp
        ):
            return 0.0
        cross = src_alloc.mesh.node_ids != dst_alloc.mesh.node_ids
        return self._transfer_seconds(dst_name, cross)

    def _transfer_seconds(self, dst_name: str, cross: bool) -> float:
        """Redistribution time of a non-local edge into ``dst_name``.

        The payload is fixed by the destination call's workload, so the only
        layout-dependent bit is whether the move crosses node boundaries.
        """
        key = (dst_name, cross)
        cached = self._transfer_cache.get(key) if self.use_cache else None
        if cached is not None:
            return cached
        wl = self._call_workloads[dst_name]
        # Transferred payload: token ids, log-probs, rewards and values are a
        # few scalars per token; we charge 16 bytes per token of the batch.
        nbytes = wl.batch_size * wl.seqlen * 16.0
        value = self.comm.p2p_time_cross(nbytes, cross)
        if self.use_cache:
            self._transfer_cache[key] = value
        return value

    def _edge_transfer_cached(
        self, src_name: str, dst_name: str, src_alloc: Allocation, dst_alloc: Allocation
    ) -> float:
        src_key = self._transfer_key(src_alloc)
        dst_key = self._transfer_key(dst_alloc)
        if src_key == dst_key:
            # Same mesh and same DP/TP layout: the data is already in place.
            return 0.0
        cross = src_key[:2] != dst_key[:2]
        return self._transfer_seconds(dst_name, cross)

    # ------------------------------------------------------------------ #
    # Per-call memory contributions
    # ------------------------------------------------------------------ #
    def _compute_mem_contrib(
        self, call_name: str, alloc: Allocation
    ) -> Tuple[float, float, float]:
        call = self.graph.get(call_name)
        cm = self._cost_models[call.model_name]
        wl = self._call_workloads[call_name]
        shard_params = self.workload.model_config(call.model_name).param_count() / (
            alloc.parallel.tp * alloc.parallel.pp
        )
        if alloc.zero3:
            shard_params /= alloc.parallel.dp
        param_bytes = shard_params * PARAM_BYTES
        call_static = cm.static_memory(call, alloc)
        call_active = max(cm.active_memory(call, wl, alloc) - param_bytes, 0.0)
        return (call_static, param_bytes, call_active)

    def _mem_contrib(self, call_name: str, alloc: Allocation) -> Tuple[float, float, float]:
        """Per-call memory contribution (static, param-shard, active bytes).

        None of the components depend on the mesh position, so the memo key
        is (call, strategy, micro-batches, zero3).
        """
        if not self.use_cache:
            return self._compute_mem_contrib(call_name, alloc)
        parallel = alloc.parallel
        key = (
            call_name,
            parallel.dp,
            parallel.tp,
            parallel.pp,
            alloc.n_microbatches,
            alloc.zero3,
        )
        cached = self._mem_cache.get(key)
        if cached is None:
            cached = self._compute_mem_contrib(call_name, alloc)
            self._mem_cache[key] = cached
        return cached

    def _mesh_span(self, mesh: DeviceMesh) -> Tuple[int, int]:
        """Half-open global GPU id range ``[lo, hi)`` covered by the mesh.

        Meshes always cover contiguous global ids: multi-node meshes span
        whole hosts, sub-node meshes a contiguous run within one host.
        """
        lo = mesh.node_start * self.cluster.gpus_per_node + mesh.gpu_start
        return (lo, lo + mesh.n_gpus)

    # ------------------------------------------------------------------ #
    # Plan states (fast path)
    # ------------------------------------------------------------------ #
    def _build_state(self, plan: ExecutionPlan) -> _PlanState:
        durations = [self.call_time(name, plan[name]) for name in self._call_names]
        realloc_in = self._realloc_in_list(plan.__getitem__)
        # The uncached path keeps the mesh-equality reference implementation,
        # so cross-check compares two independent transfer computations.
        transfer = self._edge_transfer_cached if self.use_cache else self._edge_transfer_time
        transfers = [
            transfer(src, dst, plan[src], plan[dst]) for src, dst in self._edges
        ]
        mesh_spans = [self._mesh_span(plan[name].mesh) for name in self._call_names]
        mem = [self._mem_contrib(name, plan[name]) for name in self._call_names]
        return _PlanState(
            durations=durations,
            realloc_in=realloc_in,
            transfers=transfers,
            mesh_spans=mesh_spans,
            mem=mem,
        )

    def _state_for(self, plan: ExecutionPlan) -> _PlanState:
        signature = self._plan_signature(plan)
        state = self._states.get(signature)
        if state is not None:
            try:
                self._states.move_to_end(signature)
            except KeyError:
                # A concurrent _remember_state evicted the entry between the
                # get and the LRU touch; the state itself remains valid.
                pass
            return state
        state = self._build_state(plan)
        self._remember_state(signature, state)
        return state

    def _remember_state(self, signature: Tuple, state: _PlanState) -> None:
        self._states[signature] = state
        while len(self._states) > _MAX_PLAN_STATES:
            try:
                self._states.popitem(last=False)
            except KeyError:
                # Another thread emptied the LRU past us; nothing to evict.
                break

    def _moved_state(
        self,
        base: _PlanState,
        plan: ExecutionPlan,
        call_name: str,
        new_alloc: Allocation,
        signature: Tuple,
        new_key: Tuple,
    ) -> _PlanState:
        """State of ``plan`` with one call moved, updating only what changed:
        the moved call's duration, its model's reallocation edges, its
        incident data-transfer edges, its mesh and its memory contribution.

        ``signature`` is the base plan's signature and ``new_key`` the moved
        allocation's key; layout/transfer identities are tuple slices of
        those, so no dataclass attribute walking happens on this path.
        """
        call_index = self._call_index
        call_id = call_index[call_name]

        def key_of(name: str) -> Tuple:
            return new_key if name == call_name else signature[call_index[name]]

        def alloc_of(name: str) -> Allocation:
            return new_alloc if name == call_name else plan[name]

        durations = base.durations.copy()
        durations[call_id] = self.call_time(call_name, new_alloc)
        realloc_in = base.realloc_in
        prev_call, next_call = self._realloc_neighbors[call_name]
        if prev_call is not None:
            # Only the two reallocation edges adjacent to the moved call can
            # change; every destination has exactly one incoming edge.
            model = self._call_model[call_name]
            realloc_in = realloc_in.copy()
            for src_call, dst_call in ((prev_call, call_name), (call_name, next_call)):
                src_key, dst_key = key_of(src_call), key_of(dst_call)
                dst_id = call_index[dst_call]
                if src_key[:7] == dst_key[:7]:
                    realloc_in[dst_id] = 0.0
                else:
                    realloc_in[dst_id] = self._realloc_seconds(
                        model, alloc_of(src_call), alloc_of(dst_call)
                    )
        transfers = base.transfers.copy()
        edges = self._edges
        for edge_id in self._incident_edge_ids[call_id]:
            src, dst = edges[edge_id]
            src_key, dst_key = key_of(src), key_of(dst)
            if src_key[:6] == dst_key[:6]:
                transfers[edge_id] = 0.0
            else:
                transfers[edge_id] = self._transfer_seconds(
                    dst, src_key[:2] != dst_key[:2]
                )
        mesh_spans = base.mesh_spans.copy()
        mesh_spans[call_id] = self._mesh_span(new_alloc.mesh)
        mem = base.mem.copy()
        mem[call_id] = self._mem_contrib(call_name, new_alloc)
        return _PlanState(
            durations=durations,
            realloc_in=realloc_in,
            transfers=transfers,
            mesh_spans=mesh_spans,
            mem=mem,
        )

    # ------------------------------------------------------------------ #
    # TimeCost(Gp): Algorithm 1
    # ------------------------------------------------------------------ #
    def _simulate(
        self, state: _PlanState, collect_spans: bool = False
    ) -> Tuple[float, Dict[str, Tuple[float, float]]]:
        """Priority-queue simulation (Algorithm 1) over resolved components.

        Nodes become ready when all their parents completed (plus data
        transfer time); a ready node starts as soon as every GPU of its device
        mesh is free.  Parameter reallocations are charged to the destination
        call and additionally occupy the source mesh.
        """
        durations, realloc_in = state.durations, state.realloc_in
        transfers, mesh_spans = state.transfers, state.mesh_spans
        rpc_overhead = self.cluster.rpc_overhead_s
        n_calls = len(durations)
        ready_time: List[float] = [0.0] * n_calls
        remaining_parents = self._parent_counts[:]
        gpu_free: List[float] = [0.0] * self.cluster.n_gpus
        spans: Dict[str, Tuple[float, float]] = {}
        done: List[bool] = [False] * n_calls
        n_done = 0
        total = 0.0
        rank_to_id, rank_of = self._rank_to_id, self._rank_of
        out_ptr, out_child, out_edge = self._out_ptr, self._out_child, self._out_edge
        heappop, heappush = heapq.heappop, heapq.heappush
        heap: List[Tuple[float, int]] = self._root_heap.copy()

        while heap:
            rt, rank = heappop(heap)
            call_id = rank_to_id[rank]
            if done[call_id]:
                continue
            lo, hi = mesh_spans[call_id]
            mesh_free = max(gpu_free[lo:hi])
            start = rt if rt >= mesh_free else mesh_free
            end = start + durations[call_id] + realloc_in[call_id] + rpc_overhead
            if collect_spans:
                spans[self._call_names[call_id]] = (start, end)
            if end > total:
                total = end
            done[call_id] = True
            n_done += 1
            gpu_free[lo:hi] = [end] * (hi - lo)
            for k in range(out_ptr[call_id], out_ptr[call_id + 1]):
                child_id = out_child[k]
                ready = end + transfers[out_edge[k]]
                if ready > ready_time[child_id]:
                    ready_time[child_id] = ready
                remaining = remaining_parents[child_id] - 1
                remaining_parents[child_id] = remaining
                if remaining == 0:
                    heappush(heap, (ready_time[child_id], rank_of[child_id]))

        if n_done != n_calls:
            raise RuntimeError("scheduling simulation did not complete all calls")
        return total, spans

    def time_cost(self, plan: ExecutionPlan) -> TimeCostResult:
        """Simulate one iteration of the plan and return its wall time.

        An empty dataflow graph has nothing to schedule and costs nothing.
        """
        if not self._call_names:
            return TimeCostResult(total_seconds=0.0)
        breakdowns = {
            name: self.call_breakdown(name, plan[name]) for name in self._call_names
        }
        state = self._state_for(plan) if self.use_cache else self._build_state(plan)
        total, spans = self._simulate(state, collect_spans=True)
        return TimeCostResult(
            total_seconds=total,
            spans=spans,
            call_seconds={
                name: state.durations[i] for i, name in enumerate(self._call_names)
            },
            realloc_seconds=sum(state.realloc_in),
            data_transfer_seconds=sum(state.transfers),
            breakdowns=breakdowns,
        )

    # ------------------------------------------------------------------ #
    # MaxMem(Gp)
    # ------------------------------------------------------------------ #
    def _aggregate_memory(self, state: _PlanState) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Per-GPU (total, static) bytes from the per-call contributions.

        Static memory (gradients + optimizer states of trainable models) is
        pinned to the GPUs of the training allocation for the whole
        experiment.  Parameters are reallocatable but must reside wherever a
        call of the model executes; we conservatively keep, per GPU, the
        largest parameter shard any call places there.  Active memory is the
        largest activation/KV footprint among the calls running on the GPU.
        """
        static: Dict[int, float] = {}
        params: Dict[Tuple[int, str], float] = {}
        active: Dict[int, float] = {}
        for call_id in range(len(self._call_names)):
            call_static, param_bytes, call_active = state.mem[call_id]
            model = self._model_by_id[call_id]
            lo, hi = state.mesh_spans[call_id]
            for g in range(lo, hi):
                static[g] = static.get(g, 0.0) + call_static
                key = (g, model)
                if params.get(key, -1.0) < param_bytes:
                    params[key] = param_bytes
                if active.get(g, -1.0) < call_active:
                    active[g] = call_active
        params_per_gpu: Dict[int, float] = {g: 0.0 for g in static}
        for (g, _model), nbytes in params.items():
            params_per_gpu[g] += nbytes
        per_gpu = {g: static[g] + params_per_gpu[g] + active[g] for g in static}
        return per_gpu, static

    def _max_bytes_sweep(self, state: _PlanState) -> float:
        """Peak per-GPU bytes via an event sweep over mesh-span boundaries.

        Every GPU inside one elementary segment (between two consecutive
        mesh boundaries) hosts exactly the same set of calls, so evaluating
        one representative GPU per segment gives the cluster-wide peak.
        Spans enter/leave a sorted *active set* at their boundary events, so
        each segment only touches the calls actually covering it —
        ``O(n log n)`` for the event queue plus the covering-call totals,
        instead of re-scanning all ``n`` calls per boundary (the previous
        ``O(calls^2)`` sweep).  The active set is kept in ascending call-id
        order and contributions are combined exactly as
        :meth:`_aggregate_memory` combines them (ascending call id), so the
        result is bit-for-bit identical to ``max(per_gpu)``.
        """
        spans = state.mesh_spans
        mem = state.mem
        model_by_id = self._model_by_id
        starts: Dict[int, List[int]] = {}
        stops: Dict[int, List[int]] = {}
        for call_id, (lo, hi) in enumerate(spans):
            starts.setdefault(lo, []).append(call_id)
            stops.setdefault(hi, []).append(call_id)
        bounds = sorted(starts.keys() | stops.keys())
        active_ids: List[int] = []
        max_bytes = 0.0
        for boundary in bounds[:-1]:
            for call_id in stops.get(boundary, ()):
                del active_ids[bisect_left(active_ids, call_id)]
            for call_id in starts.get(boundary, ()):
                insort(active_ids, call_id)
            static = 0.0
            active = 0.0
            params: Dict[str, float] = {}
            for call_id in active_ids:
                call_static, param_bytes, call_active = mem[call_id]
                static += call_static
                model = model_by_id[call_id]
                if params.get(model, -1.0) < param_bytes:
                    params[model] = param_bytes
                if call_active > active:
                    active = call_active
            param_sum = 0.0
            for nbytes in params.values():
                param_sum += nbytes
            total = static + param_sum + active
            if total > max_bytes:
                max_bytes = total
        return max_bytes

    def max_memory(self, plan: ExecutionPlan) -> MemoryEstimate:
        """Estimate the peak memory per GPU under the plan."""
        state = self._state_for(plan) if self.use_cache else self._build_state(plan)
        per_gpu, static = self._aggregate_memory(state)
        # Report every cluster GPU, including idle ones, like the runtime does.
        full_static = {g: static.get(g, 0.0) for g in range(self.cluster.n_gpus)}
        full_per_gpu = {g: per_gpu.get(g, 0.0) for g in range(self.cluster.n_gpus)}
        return MemoryEstimate(per_gpu=full_per_gpu, static_per_gpu=full_static)

    # ------------------------------------------------------------------ #
    # cost(Gp)
    # ------------------------------------------------------------------ #
    def _cost_of_state(self, state: _PlanState, oom_penalty: float) -> float:
        total, _ = self._simulate(state)
        if self._max_bytes_sweep(state) < self.cluster.device_memory_bytes:
            return total
        return oom_penalty * total

    def _evaluate_signature(
        self, signature: Tuple, state_fn: Callable[[], _PlanState]
    ) -> Tuple[float, float]:
        """Memoised ``(TimeCost, MaxMem)`` of a plan identified by signature.

        The MCMC chain re-proposes the same neighbouring plans many times;
        a signature hit skips the state construction and simulation outright.
        The cache is a capped LRU (``eval_cache_size``) with hit/miss/
        eviction counters in :attr:`eval_cache_stats`, so a long-lived
        estimator cannot grow without bound.
        """
        stats = self.eval_cache_stats
        cached = self._eval_cache.get(signature)
        if cached is not None:
            stats.hits += 1
            try:
                self._eval_cache.move_to_end(signature)
            except KeyError:
                # A concurrent insert evicted the entry between the get and
                # the LRU touch; the cached value remains valid.
                pass
            return cached
        stats.misses += 1
        state = state_fn()
        total, _ = self._simulate(state)
        max_bytes = self._max_bytes_sweep(state)
        self._eval_cache[signature] = (total, max_bytes)
        while len(self._eval_cache) > self._eval_cache_size:
            try:
                self._eval_cache.popitem(last=False)
                stats.evictions += 1
            except KeyError:
                # Another thread emptied the LRU past us; nothing to evict.
                break
        return total, max_bytes

    def _exact_cost(self, plan: ExecutionPlan, oom_penalty: float) -> float:
        """Full from-scratch recompute, bypassing every memo cache.

        Also aggregates memory per GPU instead of per mesh segment, so the
        cross-check exercises an independent implementation of MaxMem.
        """
        saved, self.use_cache = self.use_cache, False
        try:
            state = self._build_state(plan)
        finally:
            self.use_cache = saved
        total, _ = self._simulate(state)
        per_gpu, _static = self._aggregate_memory(state)
        if max(per_gpu.values(), default=0.0) < self.cluster.device_memory_bytes:
            return total
        return oom_penalty * total

    def cost(self, plan: ExecutionPlan, oom_penalty: float = DEFAULT_OOM_PENALTY) -> float:
        """Search cost: time cost with a multiplicative OOM penalty."""
        if not self._call_names:
            return 0.0
        if not self.use_cache:
            return self._cost_of_state(self._build_state(plan), oom_penalty)
        signature = self._plan_signature(plan)
        total, max_bytes = self._evaluate_signature(
            signature, lambda: self._state_for(plan)
        )
        value = total if max_bytes < self.cluster.device_memory_bytes else oom_penalty * total
        if self.cross_check:
            self._verify(value, plan, oom_penalty, context="cost")
        return value

    def cost_delta(
        self,
        plan: ExecutionPlan,
        call_name: str,
        new_alloc: Allocation,
        oom_penalty: float = DEFAULT_OOM_PENALTY,
    ) -> float:
        """Cost of ``plan`` with ``call_name`` moved to ``new_alloc``.

        The incremental path reuses the base plan's resolved components and
        recomputes only what a single-call move can affect before re-running
        the scheduling simulation.  Falls back to an exact full recompute when
        caching is disabled or the call is unknown; either way the returned
        value equals ``cost(plan.with_assignment(call_name, new_alloc))``.
        """
        if not self.use_cache or call_name not in self.graph:
            return self.cost(plan.with_assignment(call_name, new_alloc), oom_penalty)
        signature = self._plan_signature(plan)
        index = self._call_index[call_name]
        new_key = self._key_for(new_alloc)
        moved_signature = signature[:index] + (new_key,) + signature[index + 1 :]

        def build() -> _PlanState:
            base = self._state_for(plan)
            state = self._moved_state(
                base, plan, call_name, new_alloc, signature, new_key
            )
            self._remember_state(moved_signature, state)
            return state

        total, max_bytes = self._evaluate_signature(moved_signature, build)
        value = total if max_bytes < self.cluster.device_memory_bytes else oom_penalty * total
        if self.cross_check:
            self._verify(
                value,
                plan.with_assignment(call_name, new_alloc),
                oom_penalty,
                context=f"cost_delta({call_name})",
            )
        return value

    def _verify(
        self, fast: float, plan: ExecutionPlan, oom_penalty: float, context: str
    ) -> None:
        exact = self._exact_cost(plan, oom_penalty)
        if fast != exact:
            raise RuntimeError(
                f"estimator cross-check failed in {context}: "
                f"fast path {fast!r} != full recompute {exact!r}"
            )

    def is_feasible(self, plan: ExecutionPlan) -> bool:
        """Whether the plan fits in device memory."""
        return self.max_memory(plan).max_bytes < self.cluster.device_memory_bytes
