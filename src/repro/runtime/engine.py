"""The runtime engine: list-scheduled execution of an execution plan.

This is the reproduction's stand-in for ReaL's worker-based runtime
(Section 6), where a master worker resolves dependencies and dispatches
requests to model workers that execute them FIFO on their GPUs.  Here that
is one greedy list-scheduling loop: each step takes the ready call that can
start the earliest (ties by name), no earlier than the cluster's
``rpc_overhead_s`` after its last parent finished, and charges its
parameter reallocations, incoming data transfers and the call itself on
per-GPU :class:`~repro.sim.resources.TimelinePool` timelines.  Per-GPU busy
time is recorded per cost category, which yields the GPU-time breakdown of
Figure 11, the wall-time breakdown of Table 6 and the "real" times that
Figure 12 compares the estimator against; the spans export as a Chrome trace
(:meth:`IterationTrace.export_chrome_trace`).

The engine evaluates per-layer costs with the exact analytical kernel model
(not the interpolated profiles the estimator uses) and accounts for request
dispatch overhead, reallocation broadcasts and inter-call data movement, so
its results deliberately differ from the estimator's by a few percent.
``tests/test_golden_traces.py`` and ``tests/test_golden_engine_plans.py``
pin its traces bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster.hardware import ClusterSpec
from ..core.call_cost import CallCostModel, CostBreakdown
from ..core.dataflow import DataflowGraph
from ..core.plan import ExecutionPlan, reallocation_edges
from ..core.profiler import AnalyticalProvider
from ..core.workload import RLHFWorkload
from ..realloc.cost import ReallocCostModel
from ..sim.resources import TimelinePool
from ..sim.trace import TraceRecorder, TraceSpan
from .data_transfer import data_transfer_time, plan_data_transfer

__all__ = ["IterationTrace", "ThroughputResult", "RuntimeEngine"]


@dataclass
class IterationTrace:
    """Complete record of one simulated RLHF training iteration."""

    total_seconds: float
    call_spans: Dict[str, Tuple[float, float]]
    call_breakdowns: Dict[str, CostBreakdown]
    gpu_category_seconds: Dict[int, Dict[str, float]]
    realloc_seconds: float
    data_transfer_seconds: float
    gpu_spans: Dict[int, Tuple[TraceSpan, ...]] = field(default_factory=dict)
    """Per-GPU busy spans in unified :class:`~repro.sim.trace.TraceSpan` form."""

    # ------------------------------------------------------------------ #
    # Aggregations used by the benchmark harness
    # ------------------------------------------------------------------ #
    def call_seconds(self) -> Dict[str, float]:
        """Wall time of each call (excluding wait time)."""
        return {name: end - start for name, (start, end) in self.call_spans.items()}

    def category_totals(self) -> Dict[str, float]:
        """GPU-seconds per cost category, aggregated over all GPUs."""
        totals: Dict[str, float] = {}
        for per_gpu in self.gpu_category_seconds.values():
            for category, seconds in per_gpu.items():
                totals[category] = totals.get(category, 0.0) + seconds
        return totals

    def gpu_time_fractions(self) -> Dict[str, float]:
        """Figure-11 style fractions: compute / P2P / collective / idle.

        Idle time includes pipeline bubbles and waiting for dependencies.
        The fractions sum to 1 over ``n_gpus * total_seconds`` GPU-seconds.
        """
        n_gpus = len(self.gpu_category_seconds)
        total_gpu_seconds = n_gpus * self.total_seconds
        totals = self.category_totals()
        compute = totals.get("compute", 0.0) + totals.get("launch", 0.0)
        p2p = totals.get("pp_comm", 0.0) + totals.get("data_transfer", 0.0)
        coll = totals.get("coll_comm", 0.0) + totals.get("realloc", 0.0)
        bubble = totals.get("bubble", 0.0)
        busy = compute + p2p + coll
        idle = max(total_gpu_seconds - busy, 0.0)
        if total_gpu_seconds <= 0:
            return {"compute": 0.0, "p2p": 0.0, "collective": 0.0, "idle": 1.0}
        return {
            "compute": compute / total_gpu_seconds,
            "p2p": p2p / total_gpu_seconds,
            "collective": coll / total_gpu_seconds,
            "idle": idle / total_gpu_seconds,
        }

    # ------------------------------------------------------------------ #
    # Unified trace export
    # ------------------------------------------------------------------ #
    def export_chrome_trace(self, path: str) -> str:
        """Write this iteration as a Chrome-trace JSON file; returns the path.

        Call-level spans land on a ``calls`` overview row and per-GPU busy
        spans on one thread row per GPU, all under ``runtime engine``.
        """
        recorder = TraceRecorder()
        process = "runtime engine"
        for name, (start, end) in sorted(self.call_spans.items()):
            recorder.add_span(process, "calls", name, start, end, category="call")
        for gpu_id in sorted(self.gpu_spans):
            thread = f"gpu {gpu_id}"
            for span in self.gpu_spans[gpu_id]:
                recorder.add_trace_span(process, thread, span)
        return str(recorder.save(path))


@dataclass
class ThroughputResult:
    """Throughput of a plan from one simulated iteration."""

    seconds_per_iteration: float
    total_flops_per_iteration: float

    @property
    def flops_per_second(self) -> float:
        return self.total_flops_per_iteration / self.seconds_per_iteration

    @property
    def petaflops_per_second(self) -> float:
        """The PFLOP/s metric used in Figures 7, 8, 16 and 17."""
        return self.flops_per_second / 1e15


class RuntimeEngine:
    """Deploys an execution plan on the simulated cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        workload: RLHFWorkload,
        use_cuda_graph: bool = True,
        realloc_model: Optional[ReallocCostModel] = None,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.use_cuda_graph = use_cuda_graph
        # The engine plays the exact broadcast schedule of Figure 6, unlike
        # the estimator's bandwidth approximation.  A given model (shared by
        # engines of other workloads) must be an exact model of ``cluster``.
        if realloc_model is None:
            realloc_model = ReallocCostModel(cluster, exact=True)
        self.realloc_model = realloc_model
        self._cost_models: Dict[str, CallCostModel] = {}

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _cost_model(self, model_name: str) -> CallCostModel:
        if model_name not in self._cost_models:
            config = self.workload.model_config(model_name)
            provider = AnalyticalProvider(config, self.cluster)
            self._cost_models[model_name] = CallCostModel(
                config, self.cluster, provider, use_cuda_graph=self.use_cuda_graph
            )
        return self._cost_models[model_name]

    def _call_breakdown(self, graph: DataflowGraph, name: str, plan: ExecutionPlan) -> CostBreakdown:
        call = graph.get(name)
        wl = self.workload.call_workload(call)
        return self._cost_model(call.model_name).breakdown(call, wl, plan[name])

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run_iteration(self, graph: DataflowGraph, plan: ExecutionPlan) -> IterationTrace:
        """Simulate one RLHF iteration of ``plan`` and return its trace."""
        plan.validate(graph, self.cluster)
        breakdowns = {name: self._call_breakdown(graph, name, plan) for name in graph.call_names}

        # Parameter reallocation incoming to each call: (seconds, GPUs of
        # the union of the source and destination meshes).
        realloc_in: Dict[str, List[Tuple[float, Tuple[int, ...]]]] = {
            name: [] for name in graph.call_names
        }
        realloc_total = 0.0
        for edge in reallocation_edges(graph, plan):
            config = self.workload.model_config(edge.model_name)
            cost = self.realloc_model.cost(config, edge.src, edge.dst)
            gpus = tuple(sorted(set(edge.src.mesh.device_ids) | set(edge.dst.mesh.device_ids)))
            realloc_in[edge.dst_call].append((cost.seconds, gpus))
            realloc_total += cost.seconds

        # Data transfer incoming to each call, keyed by (parent, child).
        transfer_time: Dict[Tuple[str, str], float] = {}
        transfer_total = 0.0
        for src_name, dst_name in graph.edges:
            dst_call = graph.get(dst_name)
            wl = self.workload.call_workload(dst_call)
            xfer_plan = plan_data_transfer(plan[src_name], plan[dst_name], wl)
            seconds = data_transfer_time(xfer_plan, self.cluster)
            transfer_time[(src_name, dst_name)] = seconds
            transfer_total += seconds

        parents = graph.parents_map()
        children = graph.children_map()
        pool = TimelinePool(self.cluster.n_gpus)
        rpc_overhead_s = self.cluster.rpc_overhead_s
        remaining_parents = {name: len(parents[name]) for name in graph.call_names}
        ready_time = dict.fromkeys(graph.call_names, 0.0)
        ready = [name for name, count in remaining_parents.items() if count == 0]
        call_spans: Dict[str, Tuple[float, float]] = {}

        # Greedy list scheduling: each step runs the ready call that can
        # start the earliest given its readiness and its mesh's
        # availability (ties by name), charging its phases on the GPU
        # timelines in FIFO order.
        while len(call_spans) < len(remaining_parents):
            if not ready:
                raise RuntimeError("deadlock: no ready calls but the graph is incomplete")
            start, name = min(
                (max(ready_time[n], pool.free_at(plan[n].mesh.device_ids)), n) for n in ready
            )
            ready.remove(name)
            # The master's request reaches the workers rpc_overhead_s after
            # the call became ready.
            start = max(start, ready_time[name] + rpc_overhead_s)
            mesh_gpus = plan[name].mesh.device_ids
            clock = start

            # 1. Parameter reallocation occupies the union of source and
            #    destination meshes.
            for seconds, gpus in realloc_in[name]:
                if seconds <= 0:
                    continue
                realloc_start = max(clock, pool.free_at(gpus))
                for g in gpus:
                    pool[g].occupy(max(realloc_start, pool[g].free_at), {"realloc": seconds}, name)
                clock = realloc_start + seconds

            # 2. Incoming data transfers occupy the destination mesh.
            incoming_xfer = sum(transfer_time.get((p, name), 0.0) for p in parents[name])
            if incoming_xfer > 0:
                for g in mesh_gpus:
                    pool[g].occupy(max(clock, pool[g].free_at), {"data_transfer": incoming_xfer}, name)
                clock += incoming_xfer

            # 3. The function call itself.
            bd = breakdowns[name]
            durations = {
                "compute": bd.compute,
                "coll_comm": bd.coll_comm,
                "pp_comm": bd.pp_comm,
                "launch": bd.launch,
                "bubble": bd.bubble,
                "other": bd.other,
            }
            call_start = max(clock, pool.free_at(mesh_gpus))
            end = call_start
            for g in mesh_gpus:
                end = max(end, pool[g].occupy(max(call_start, pool[g].free_at), durations, name))
            call_spans[name] = (start, end)

            for child in children[name]:
                ready_time[child] = max(ready_time[child], end)
                remaining_parents[child] -= 1
                if remaining_parents[child] == 0:
                    ready.append(child)

        total = max(end for _, end in call_spans.values())
        gpu_categories = {g: pool[g].categories() for g in range(self.cluster.n_gpus)}
        gpu_spans = {g: tuple(pool[g].spans) for g in range(self.cluster.n_gpus)}
        return IterationTrace(
            total_seconds=total,
            call_spans=call_spans,
            call_breakdowns=breakdowns,
            gpu_category_seconds=gpu_categories,
            realloc_seconds=realloc_total,
            data_transfer_seconds=transfer_total,
            gpu_spans=gpu_spans,
        )

    # ------------------------------------------------------------------ #
    # Throughput measurement
    # ------------------------------------------------------------------ #
    def measure_throughput(self, graph: DataflowGraph, plan: ExecutionPlan) -> ThroughputResult:
        """Run one iteration and report the PFLOP/s throughput.

        The simulation is deterministic, so every iteration of a plan takes
        the same time and one run stands for the paper's measurement
        protocol (20 iterations after warm-up).
        """
        return ThroughputResult(
            seconds_per_iteration=self.run_iteration(graph, plan).total_seconds,
            total_flops_per_iteration=self.workload.iteration_flops(graph.calls),
        )
