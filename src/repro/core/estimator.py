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
the estimator memoises every expensive per-component quantity, keyed by
each allocation's :attr:`~repro.core.plan.Allocation.key` or a part of it —
per-call :class:`CostBreakdown` totals by call content and shape
(position-free, in a :class:`~repro.core.call_cost.CallCostTable` that
estimators may share), reallocation-edge costs by model, destination
TP/PP and whether the move crosses nodes, data-transfer times by
destination call and node crossing, per-call memory contributions by
strategy, and whole-plan evaluations by the tuple of the plan's keys —
and offers an incremental
:meth:`RuntimeEstimator.cost_delta` path that re-evaluates a plan after a
single-call move by recomputing only what that move can affect (the moved
call's duration, its model's reallocation edges, its incident data-transfer
edges and its memory contribution) before re-running the cheap scheduling
simulation.  :meth:`RuntimeEstimator.cost` and ``cost_delta`` share one
eval-cached scoring routine.  All caches are exact memoisations of pure
functions, so it is bit-for-bit consistent with a full recompute; set
``cross_check=True`` to compare every value against
:meth:`RuntimeEstimator._exact_cost`, which rebuilds the plan from the pure
component functions without touching a memo (used by the test suite).

An MCMC step only needs a proposal's exact cost when the proposal might be
accepted.  ``cost_delta(..., reject_above=)`` therefore prices an eval-cache
miss in stages, each paying only for what it decides: two lower bounds on
TimeCost, the critical path of the plan's dependency chain (the simulation
without mesh waits) and the busiest GPU's summed work, come before the
memory.  When the tighter bound (or, for an OOM plan, the penalised bound)
already exceeds the caller's rejection threshold, the proposal is rejected
without the simulation — and, on the time bounds alone, without pricing its
memory.  This is early rejection in Metropolis-Hastings (Solonen et al.,
Bayesian Analysis 2012); the bound is remembered in the eval cache so a
revisit re-tests it instead of rebuilding the plan's state.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import insort, bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

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

_LOAD_MARGIN = 1e-9
"""Relative slack of :meth:`RuntimeEstimator._load_bound`.  It dwarfs the
few ulps per call by which the bound's sweep and the simulation's end times
round apart, so the bound stays ``<=`` TimeCost bit for bit."""

_MAX_PLAN_EVALS = 16384
"""LRU capacity of the signature-keyed (TimeCost, MaxMem) eval cache, read
when an estimator is built.  Bounded so long-lived estimators (e.g. held by a
plan service) cannot grow without limit."""


@dataclass(slots=True)
class EvalCacheStats:
    """Counters of the signature-keyed eval cache.

    The cache is an LRU capped at ``_MAX_PLAN_EVALS`` entries, so
    long-lived estimators (e.g. inside a
    :class:`~repro.service.server.PlanService`) stay bounded; these counters
    make its behaviour observable.

    A lookup is a *hit* when the cache answers it without building the
    plan's state: an exact entry, or a bound entry (a plan rejected on its
    lower bound, see :meth:`RuntimeEstimator.cost_delta`) whose bound still
    rejects under the new threshold.  Every other lookup is a *miss*, a
    bound entry that no longer rejects included (it is then replaced by the
    exact value).  ``bound_rejections`` counts the proposals rejected on a
    bound, fresh or stored, without a simulation.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bound_rejections: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass(slots=True)
class TimeCostResult:
    """Result of the Algorithm-1 simulation of one RLHF iteration."""

    total_seconds: float
    spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    call_seconds: Dict[str, float] = field(default_factory=dict)
    realloc_seconds: float = 0.0
    data_transfer_seconds: float = 0.0


@dataclass(slots=True)
class MemoryEstimate:
    """Peak memory usage per GPU and in aggregate."""

    per_gpu: Dict[int, float]
    static_per_gpu: Dict[int, float]

    @property
    def max_bytes(self) -> float:
        """Peak bytes on the most loaded GPU."""
        return max(self.per_gpu.values(), default=0.0)


@dataclass(slots=True)
class _PlanState:
    """Memoised per-component state of one concrete plan.

    Everything the scheduling simulation and the memory aggregation need,
    with the expensive per-call/per-edge quantities already resolved.  All
    fields are flat lists indexed by call id (or edge id), so a single-call
    move is a handful of C-speed ``list.copy()`` calls plus point updates.
    ``__slots__`` keeps the per-state footprint flat: the MCMC chain creates
    one of these per proposal, and prices its memory only on demand.
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
    mem: Optional[List[Tuple[float, float, float]]]
    """Per call: (static bytes, parameter-shard bytes, active bytes); read it
    through :meth:`RuntimeEstimator._mem_of`, which fills it from ``pending``:
    the base state and the move (call id, call name, allocation) on it."""
    pending: Optional[Tuple[_PlanState, int, str, Allocation]] = None


class _BoundEntry:
    """Eval-cache entry of a plan rejected on a lower bound of its cost.

    ``seconds`` is the plan's tightest lower bound on TimeCost: its critical
    path, or its per-GPU load bound when that is larger; ``max_bytes`` its
    exact MaxMem when the memory sweep ran, ``None`` when a time bound alone
    rejected.  Exact entries are plain ``(TimeCost, MaxMem)`` tuples.
    """

    __slots__ = ("seconds", "max_bytes")

    def __init__(self, seconds: float, max_bytes: Optional[float]) -> None:
        self.seconds = seconds
        self.max_bytes = max_bytes


_EvalEntry = Union[Tuple[float, float], _BoundEntry]


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
    cross_check:
        Verify every :meth:`cost`/:meth:`cost_delta` value against
        :meth:`_exact_cost`, a from-scratch recompute that bypasses every
        estimator memo, and raise ``RuntimeError`` on any mismatch.  Slow;
        meant for tests.
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
    identical values (or, in the eval cache, an exact entry and a bound
    entry of the same plan, each true of it).
    """

    def __init__(
        self,
        graph: DataflowGraph,
        workload: RLHFWorkload,
        cluster: ClusterSpec,
        profiles: Optional[Mapping[str, ProfileStats]] = None,
        use_cuda_graph: bool = True,
        cross_check: bool = False,
        call_costs: Optional[CallCostTable] = None,
    ) -> None:
        self.graph = graph
        self.workload = workload
        self.cluster = cluster
        self.cross_check = cross_check
        self._capacity = cluster.device_memory_bytes
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
        self._realloc_cache: Dict[Tuple, float] = {}
        self._transfer_cache: Dict[Tuple, float] = {}
        self._mem_cache: Dict[Tuple, Tuple[float, float, float]] = {}
        self._states: "OrderedDict[Tuple, _PlanState]" = OrderedDict()
        self._sig_memo: Tuple[Optional[ExecutionPlan], Tuple] = (None, ())
        self._eval_cache: "OrderedDict[Tuple, _EvalEntry]" = OrderedDict()
        self._eval_cache_size = _MAX_PLAN_EVALS
        self.eval_cache_stats = EvalCacheStats()
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
        self._topo_ids = array(
            "l", [self._call_index[name] for name in graph.topological_order()]
        )

    # ------------------------------------------------------------------ #
    # Cache keys (flat int tuples: cheap to build, hash and compare)
    # ------------------------------------------------------------------ #
    def _shape_key(self, call_name: str, alloc: Allocation) -> Tuple:
        """Position-free identity of a call under an allocation.

        :class:`CallCostModel` never reads where a mesh sits (``node_start``,
        ``gpu_start``), so every allocation of one shape shares a breakdown,
        and the call enters only through its content token, so every call
        with the same content does too.  It is the allocation's
        :attr:`~repro.core.plan.Allocation.key` without the two position
        entries, behind the call's token.
        """
        key = alloc.key
        return (self._call_token[call_name], key[1]) + key[3:]

    def _plan_signature(self, plan: ExecutionPlan) -> Tuple:
        # The same plan object is typically queried many times in a row (the
        # MCMC chain's current plan); memoise the last signature by identity.
        memo_plan, memo_sig = self._sig_memo
        if plan is memo_plan:
            return memo_sig
        assignments = plan.assignments
        signature = tuple([assignments[name].key for name in self._call_names])
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

    def call_time(self, call_name: str, alloc: Allocation) -> float:
        """Wall time of one call under an allocation, memoised by call
        content and shape in the estimator's :class:`CallCostTable`."""
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
    def _compute_realloc_seconds(
        self, model_name: str, src: Allocation, dst: Allocation
    ) -> float:
        """Seconds to remap ``model_name``'s parameters from ``src`` to ``dst``."""
        config = self.workload.model_config(model_name)
        return self.realloc_model.cost(config, src, dst).seconds

    def _realloc_seconds(self, model_name: str, src: Allocation, dst: Allocation) -> float:
        """:meth:`_compute_realloc_seconds`, memoised.

        The estimator's reallocation model is the approximate one, which
        depends only on the destination's TP/PP sharding and on whether the
        move crosses nodes, so its memo key collapses to that.
        """
        cross = src.key[:2] != dst.key[:2]
        key = (model_name, dst.parallel.tp, dst.parallel.pp, cross)
        cached = self._realloc_cache.get(key)
        if cached is None:
            cached = self._compute_realloc_seconds(model_name, src, dst)
            self._realloc_cache[key] = cached
        return cached

    def _realloc_in_list(
        self,
        alloc_of: Callable[[str], Allocation],
        realloc_seconds: Callable[[str, Allocation, Allocation], float],
    ) -> List[float]:
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
                if src.key[:7] == dst.key[:7]:
                    continue
                realloc_in[self._call_index[dst_call]] = realloc_seconds(
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
        return self._compute_transfer_seconds(dst_name, cross)

    def _compute_transfer_seconds(self, dst_name: str, cross: bool) -> float:
        """Redistribution time of a non-local edge into ``dst_name``.

        The payload is fixed by the destination call's workload, so the only
        layout-dependent bit is whether the move crosses node boundaries.
        """
        wl = self._call_workloads[dst_name]
        # Transferred payload: token ids, log-probs, rewards and values are a
        # few scalars per token; we charge 16 bytes per token of the batch.
        nbytes = wl.batch_size * wl.seqlen * 16.0
        return self.comm.p2p_time_cross(nbytes, cross)

    def _transfer_seconds(self, dst_name: str, cross: bool) -> float:
        """:meth:`_compute_transfer_seconds`, memoised."""
        key = (dst_name, cross)
        cached = self._transfer_cache.get(key)
        if cached is None:
            cached = self._compute_transfer_seconds(dst_name, cross)
            self._transfer_cache[key] = cached
        return cached

    def _edge_transfer_cached(
        self, src_name: str, dst_name: str, src_alloc: Allocation, dst_alloc: Allocation
    ) -> float:
        src_key, dst_key = src_alloc.key, dst_alloc.key
        if src_key[:6] == dst_key[:6]:
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
        key = (call_name,) + alloc.key[4:]
        cached = self._mem_cache.get(key)
        if cached is None:
            cached = self._compute_mem_contrib(call_name, alloc)
            self._mem_cache[key] = cached
        return cached

    def _mem_of(self, state: _PlanState) -> List[Tuple[float, float, float]]:
        """The state's per-call memory contributions, priced on first read.
        ``mem`` is written before ``pending`` is cleared, so racing readers
        agree."""
        pending = state.pending
        if pending is not None:
            base, call_id, call_name, alloc = pending
            mem = self._mem_of(base).copy()
            mem[call_id] = self._mem_contrib(call_name, alloc)
            state.mem = mem
            state.pending = None
        return state.mem

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
    def _build_state(
        self,
        plan: ExecutionPlan,
        call_time: Callable[[str, Allocation], float],
        realloc_seconds: Callable[[str, Allocation, Allocation], float],
        edge_transfer: Callable[[str, str, Allocation, Allocation], float],
        mem_contrib: Callable[[str, Allocation], Tuple[float, float, float]],
    ) -> _PlanState:
        """The state of ``plan`` from the given per-component functions."""
        names = self._call_names
        return _PlanState(
            durations=[call_time(name, plan[name]) for name in names],
            realloc_in=self._realloc_in_list(plan.__getitem__, realloc_seconds),
            transfers=[
                edge_transfer(src, dst, plan[src], plan[dst]) for src, dst in self._edges
            ],
            mesh_spans=[self._mesh_span(plan[name].mesh) for name in names],
            mem=[mem_contrib(name, plan[name]) for name in names],
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
        state = self._build_state(
            plan,
            self.call_time,
            self._realloc_seconds,
            self._edge_transfer_cached,
            self._mem_contrib,
        )
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
    ) -> _PlanState:
        """State of ``plan`` with one call moved, updating only what changed:
        the moved call's duration, its model's reallocation edges, its
        incident data-transfer edges and its mesh.  Its memory contribution
        is left pending on ``base`` until a stage reads it (:meth:`_mem_of`).

        Layout and transfer identities are prefixes of the allocations'
        :attr:`~repro.core.plan.Allocation.key`, so no dataclass attribute
        walking happens on this path.
        """
        call_index = self._call_index
        call_id = call_index[call_name]
        assignments = plan.assignments

        def alloc_of(name: str) -> Allocation:
            return new_alloc if name == call_name else assignments[name]

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
                src, dst = alloc_of(src_call), alloc_of(dst_call)
                dst_id = call_index[dst_call]
                if src.key[:7] == dst.key[:7]:
                    realloc_in[dst_id] = 0.0
                else:
                    realloc_in[dst_id] = self._realloc_seconds(model, src, dst)
        transfers = base.transfers.copy()
        edges = self._edges
        for edge_id in self._incident_edge_ids[call_id]:
            src, dst = edges[edge_id]
            src_key, dst_key = alloc_of(src).key, alloc_of(dst).key
            if src_key[:6] == dst_key[:6]:
                transfers[edge_id] = 0.0
            else:
                transfers[edge_id] = self._transfer_seconds(
                    dst, src_key[:2] != dst_key[:2]
                )
        mesh_spans = base.mesh_spans.copy()
        mesh_spans[call_id] = self._mesh_span(new_alloc.mesh)
        return _PlanState(
            durations=durations,
            realloc_in=realloc_in,
            transfers=transfers,
            mesh_spans=mesh_spans,
            mem=None,
            pending=(base, call_id, call_name, new_alloc),
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
        mesh is free, and then occupies its mesh for its duration plus its
        incoming parameter reallocation and the RPC overhead.  Reallocations
        are charged to the destination call only; the source mesh is not
        held for them.
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

    def _critical_path(self, state: _PlanState) -> float:
        """Lower bound on :meth:`_simulate`'s total: its walk without mesh waits.

        Each call starts when its last parent's output arrives, and every
        end and arrival time is the same float expression as in the
        simulation (``start + duration + realloc + rpc``, ``end +
        transfer``).  The simulation only ever starts a call later (it also
        waits for the call's mesh), and adding the same addends to a smaller
        float never gives a larger sum, so the bound is ``<=`` TimeCost bit
        for bit.  Any topological order gives the same longest path.
        """
        durations, realloc_in, transfers = state.durations, state.realloc_in, state.transfers
        rpc_overhead = self.cluster.rpc_overhead_s
        out_ptr, out_child, out_edge = self._out_ptr, self._out_child, self._out_edge
        ready_time: List[float] = [0.0] * len(durations)
        total = 0.0
        for call_id in self._topo_ids:
            end = ready_time[call_id] + durations[call_id] + realloc_in[call_id] + rpc_overhead
            if end > total:
                total = end
            for k in range(out_ptr[call_id], out_ptr[call_id + 1]):
                child_id = out_child[k]
                ready = end + transfers[out_edge[k]]
                if ready > ready_time[child_id]:
                    ready_time[child_id] = ready
        return total

    def _load_bound(self, state: _PlanState) -> float:
        """Lower bound on :meth:`_simulate`'s total: the busiest GPU's work.

        The simulation runs the calls sharing a GPU one after another, each
        holding it for ``duration + realloc + rpc``, so TimeCost is at least
        the largest per-GPU sum of those, which a sweep over the mesh-span
        boundaries finds.  It adds in another order than the simulation, so
        it is lowered by :data:`_LOAD_MARGIN` to stay ``<=`` TimeCost.
        """
        rpc = self.cluster.rpc_overhead_s
        steps: Dict[int, float] = {}
        for (lo, hi), duration, realloc in zip(state.mesh_spans, state.durations, state.realloc_in):
            seconds = duration + realloc + rpc
            steps[lo] = steps.get(lo, 0.0) + seconds
            steps[hi] = steps.get(hi, 0.0) - seconds
        best = load = 0.0
        for boundary in sorted(steps):
            load += steps[boundary]
            if load > best:
                best = load
        return best * (1.0 - _LOAD_MARGIN)

    def time_cost(self, plan: ExecutionPlan) -> TimeCostResult:
        """Simulate one iteration of the plan and return its wall time.

        An empty dataflow graph has nothing to schedule and costs nothing.
        """
        if not self._call_names:
            return TimeCostResult(total_seconds=0.0)
        state = self._state_for(plan)
        total, spans = self._simulate(state, collect_spans=True)
        return TimeCostResult(
            total_seconds=total,
            spans=spans,
            call_seconds={
                name: state.durations[i] for i, name in enumerate(self._call_names)
            },
            realloc_seconds=sum(state.realloc_in),
            data_transfer_seconds=sum(state.transfers),
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
        mem = self._mem_of(state)
        static: Dict[int, float] = {}
        params: Dict[Tuple[int, str], float] = {}
        active: Dict[int, float] = {}
        for call_id in range(len(self._call_names)):
            call_static, param_bytes, call_active = mem[call_id]
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
        each segment only touches the calls actually covering it:
        ``O(n log n)`` for the event queue plus the covering-call totals.
        The active set is kept in ascending call-id
        order and contributions are combined exactly as
        :meth:`_aggregate_memory` combines them (ascending call id), so the
        result is bit-for-bit identical to ``max(per_gpu)``.
        """
        spans = state.mesh_spans
        mem = self._mem_of(state)
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
        state = self._state_for(plan)
        per_gpu, static = self._aggregate_memory(state)
        # Report every cluster GPU, including idle ones, like the runtime does.
        full_static = {g: static.get(g, 0.0) for g in range(self.cluster.n_gpus)}
        full_per_gpu = {g: per_gpu.get(g, 0.0) for g in range(self.cluster.n_gpus)}
        return MemoryEstimate(per_gpu=full_per_gpu, static_per_gpu=full_static)

    # ------------------------------------------------------------------ #
    # cost(Gp)
    # ------------------------------------------------------------------ #
    def _lookup(self, signature: Tuple) -> Optional[_EvalEntry]:
        """The eval-cache entry of a signature, touched as most recently used."""
        entry = self._eval_cache.get(signature)
        if entry is not None:
            try:
                self._eval_cache.move_to_end(signature)
            except KeyError:
                # A concurrent insert evicted the entry between the get and
                # the LRU touch; the entry itself remains valid.
                pass
        return entry

    def _store(self, signature: Tuple, entry: _EvalEntry) -> None:
        """Insert or overwrite an eval-cache entry, evicting past capacity."""
        self._eval_cache[signature] = entry
        while len(self._eval_cache) > self._eval_cache_size:
            try:
                self._eval_cache.popitem(last=False)
                self.eval_cache_stats.evictions += 1
            except KeyError:
                # Another thread emptied the LRU past us; nothing to evict.
                break

    def _exact_state(self, plan: ExecutionPlan) -> _PlanState:
        """The plan's state from the pure per-component functions, with the
        mesh-equality transfer rule (:meth:`_edge_transfer_time`) in place of
        the memoised key-prefix one.  Nothing is written to the estimator;
        layer timings still come from the providers' memos, which hold the
        values of pure functions (see :mod:`repro.core.profiler`)."""
        return self._build_state(
            plan,
            lambda name, alloc: self._compute_breakdown(name, alloc).total,
            self._compute_realloc_seconds,
            self._edge_transfer_time,
            self._compute_mem_contrib,
        )

    def _exact_cost(self, plan: ExecutionPlan, oom_penalty: float) -> float:
        """Full from-scratch recompute, bypassing every estimator memo.

        Builds the :meth:`_exact_state` and aggregates memory per GPU instead
        of per mesh segment, so the cross-check exercises independent
        implementations of the transfer rule and of MaxMem.
        """
        state = self._exact_state(plan)
        total, _ = self._simulate(state)
        per_gpu, _static = self._aggregate_memory(state)
        if max(per_gpu.values(), default=0.0) < self.cluster.device_memory_bytes:
            return total
        return oom_penalty * total

    def cost(self, plan: ExecutionPlan, oom_penalty: float = DEFAULT_OOM_PENALTY) -> float:
        """Search cost: time cost with a multiplicative OOM penalty.

        Memoised in the eval cache by the plan's signature (see
        :meth:`_score`); a capped LRU (``_MAX_PLAN_EVALS``) with counters in
        :attr:`eval_cache_stats`, so a long-lived estimator cannot grow
        without bound.
        """
        if not self._call_names:
            return 0.0
        value = self._score(
            plan, self._plan_signature(plan), None, None, oom_penalty, math.inf
        )
        if self.cross_check:
            self._verify(value, plan, oom_penalty, context="cost")
        return value  # never None: an infinite threshold rejects nothing

    def cost_delta(
        self,
        plan: ExecutionPlan,
        call_name: str,
        new_alloc: Allocation,
        oom_penalty: float = DEFAULT_OOM_PENALTY,
        reject_above: float = math.inf,
    ) -> Optional[float]:
        """Cost of ``plan`` with ``call_name`` moved to ``new_alloc``, or
        ``None`` when that cost is proven to be above ``reject_above``.

        The incremental path reuses the base plan's resolved components and
        recomputes only what a single-call move can affect, then scores the
        moved plan bound first (see :meth:`_score`).  Returns ``None`` only
        for a cost above ``reject_above`` (the default never rejects); any
        returned value equals ``cost(plan.with_assignment(call_name,
        new_alloc))``; for an unknown call it is that call.
        """
        if call_name not in self.graph:
            return self.cost(plan.with_assignment(call_name, new_alloc), oom_penalty)
        signature = self._plan_signature(plan)
        index = self._call_index[call_name]
        moved_signature = signature[:index] + (new_alloc.key,) + signature[index + 1 :]
        value = self._score(
            plan, moved_signature, call_name, new_alloc, oom_penalty, reject_above
        )
        if self.cross_check:
            self._verify(
                value,
                plan.with_assignment(call_name, new_alloc),
                oom_penalty,
                context=f"cost_delta({call_name})",
                reject_above=reject_above,
            )
        return value

    def _score(
        self,
        plan: ExecutionPlan,
        signature: Tuple,
        call_name: Optional[str],
        new_alloc: Optional[Allocation],
        oom_penalty: float,
        reject_above: float,
    ) -> Optional[float]:
        """Eval-cached, bound-first cost of the plan ``signature`` names:
        ``plan`` itself when ``call_name`` is ``None``, else ``plan`` with
        ``call_name`` moved to ``new_alloc``; ``None`` when that cost is
        proven to be above ``reject_above``.

        An exact entry answers outright.  On a miss the plan's state is
        built (a moved plan's memory unpriced), and each stage below runs
        only when the ones before it did not reject:

        1. the critical path of the plan (:meth:`_critical_path`, the
           simulation without mesh waits) is a lower bound on its TimeCost,
           bit for bit, and its cost is at least that (``oom_penalty >= 1``):
           a bound above ``reject_above`` rejects;
        2. so is the per-GPU load bound (:meth:`_load_bound`); the larger
           of the two is the bound, and may reject.  No memory is priced;
        3. the exact memory sweep runs; an OOM plan costs at least
           ``oom_penalty`` times the bound, which may reject it;
        4. only then is the plan simulated, and a moved plan's state is
           remembered for the moves that start from it.

        A rejection is stored as a bound entry; a revisit re-tests the bound
        against its own threshold and replaces the entry by the exact value
        once the bound no longer rejects.  Under an infinite threshold
        nothing can be rejected, so no bound is computed.
        """
        stats = self.eval_cache_stats
        capacity = self._capacity
        entry = self._lookup(signature)
        bound: Optional[float] = None
        max_bytes: Optional[float] = None
        if entry.__class__ is _BoundEntry:
            bound, max_bytes = entry.seconds, entry.max_bytes
            if self._bound_rejects(bound, max_bytes, oom_penalty, reject_above):
                stats.hits += 1
                stats.bound_rejections += 1
                return None
        elif entry is not None:
            stats.hits += 1
            total, max_bytes = entry
            return total if max_bytes < capacity else oom_penalty * total
        stats.misses += 1
        if call_name is None:
            state = self._state_for(plan)
        else:
            state = self._moved_state(self._state_for(plan), plan, call_name, new_alloc)
        if bound is None:
            bound = self._critical_path(state) if reject_above < math.inf else 0.0
        if not bound > reject_above and reject_above < math.inf:
            load = self._load_bound(state)
            if load > bound:
                bound = load
        if max_bytes is None and not bound > reject_above:
            max_bytes = self._max_bytes_sweep(state)
        if self._bound_rejects(bound, max_bytes, oom_penalty, reject_above):
            stats.bound_rejections += 1
            self._store(signature, _BoundEntry(bound, max_bytes))
            return None
        total, _ = self._simulate(state)
        if call_name is not None:
            self._remember_state(signature, state)
        self._store(signature, (total, max_bytes))
        return total if max_bytes < capacity else oom_penalty * total

    def _bound_rejects(
        self,
        bound: float,
        max_bytes: Optional[float],
        oom_penalty: float,
        reject_above: float,
    ) -> bool:
        """Whether a plan whose TimeCost is at least ``bound`` (and whose
        MaxMem is ``max_bytes``, when known) must cost more than
        ``reject_above``."""
        if bound > reject_above:
            return True
        return (
            max_bytes is not None
            and max_bytes >= self._capacity
            and oom_penalty * bound > reject_above
        )

    def _verify(
        self,
        fast: Optional[float],
        plan: ExecutionPlan,
        oom_penalty: float,
        context: str,
        reject_above: float = math.inf,
    ) -> None:
        exact = self._exact_cost(plan, oom_penalty)
        if fast is None:
            if not exact > reject_above:
                raise RuntimeError(
                    f"estimator cross-check failed in {context}: a bound rejected "
                    f"the plan, but its full recompute {exact!r} is not above "
                    f"{reject_above!r}"
                )
        elif fast != exact:
            raise RuntimeError(
                f"estimator cross-check failed in {context}: "
                f"fast path {fast!r} != full recompute {exact!r}"
            )

    def is_feasible(self, plan: ExecutionPlan) -> bool:
        """Whether the plan fits in device memory."""
        return self.max_memory(plan).max_bytes < self.cluster.device_memory_bytes
