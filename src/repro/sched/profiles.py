"""Engine-derived per-iteration phase profiles and migration costs.

The trace-driven scheduler does not advance jobs by a flat ``iters/s``
scalar: every placement runs one iteration of the searched plan through the
:class:`~repro.runtime.engine.RuntimeEngine` on the partition's carved
cluster and banks the result as an :class:`IterationProfile` — the true
iteration time (dispatch overheads, reallocation broadcasts and data
transfers included) plus the intra-iteration phase spans that the merged
Chrome trace and displacement bookkeeping are built from.

Profiles are cached by (workload, partition shape, plan): same-shaped
partitions pose byte-identical execution problems, so a trace of concurrent
jobs costs a handful of engine runs, mirroring how the plan service
collapses same-shaped searches.

:class:`MigrationCostModel` charges the *switching* cost of moving a running
job between partitions (elastic resize, preemption recovery, failure
replan): each model's parameters must be redistributed from their old
located layout to the new one, priced by
:class:`~repro.realloc.cost.ReallocCostModel` on the **parent** cluster —
so a same-node relayout is cheap, a cross-node migration pays inter-node
bandwidth, and a plain resume in place is free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..cluster.hardware import ClusterSpec
from ..cluster.topology import DeviceMesh
from ..core.plan import Allocation, ExecutionPlan
from ..model.memory import PARAM_BYTES
from ..realloc.cost import ReallocCostModel
from .job import Job
from .partition import Partition

__all__ = ["IterationProfile", "IterationProfiler", "MigrationCostModel", "locate_allocation"]


@dataclass(frozen=True)
class IterationProfile:
    """One engine-simulated RLHF iteration of a (job, partition, plan) triple.

    ``call_spans`` are phase offsets *within* one iteration (seconds from the
    iteration start); the scheduler shifts them by each iteration's boundary
    to place phases on the cluster-level clock.
    """

    seconds_per_iteration: float
    call_spans: Mapping[str, Tuple[float, float]]
    realloc_seconds: float
    data_transfer_seconds: float

    def phase_at(self, offset_s: float) -> str:
        """Name of the call phase in flight ``offset_s`` into an iteration.

        Offsets outside every span (idle gaps, or past the end) report the
        nearest preceding phase; negative offsets report ``"startup"`` —
        the job was still in its switch-in (parameter loading) window.
        """
        if offset_s < 0:
            return "startup"
        current = "startup"
        best_start = -1.0
        for name, (start, end) in self.call_spans.items():
            if start <= offset_s and start > best_start:
                current = name
                best_start = start
        return current


class IterationProfiler:
    """Cached engine runs: (workload, partition shape, plan) -> profile."""

    def __init__(self) -> None:
        self._profiles: Dict[Tuple, IterationProfile] = {}
        self._engines: Dict[Tuple, object] = {}
        # id(plan) → (plan, canonical JSON key).  Plans are shared objects
        # (service cache hits return the cached plan object itself), so the
        # identity check makes repeated profiling of the same plan skip the
        # canonical-JSON dump — the profiler's per-call hot cost at fleet
        # scale.  Holding the plan itself keeps the id stable.
        self._plan_keys: Dict[int, Tuple[ExecutionPlan, str]] = {}
        self.engine_runs = 0

    @staticmethod
    def _workload_key(job: Job) -> Tuple:
        spec = job.spec
        return (
            spec.algorithm.lower(),
            spec.actor_size,
            spec.critic_size,
            spec.batch_size,
            spec.prompt_len,
            spec.gen_len,
            spec.n_ppo_minibatches,
        )

    def profile(self, job: Job, partition: Partition, plan: ExecutionPlan) -> IterationProfile:
        """The engine-derived iteration profile of running ``plan`` there."""
        workload_key = self._workload_key(job)
        entry = self._plan_keys.get(id(plan))
        if entry is not None and entry[0] is plan:
            plan_key = entry[1]
        else:
            plan_key = json.dumps(plan.to_dict(), sort_keys=True)
            self._plan_keys[id(plan)] = (plan, plan_key)
        key = (workload_key, partition.shape, plan_key)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached

        from ..runtime.engine import RuntimeEngine  # local import avoids a cycle

        engine_key = (workload_key, partition.shape)
        engine = self._engines.get(engine_key)
        if engine is None:
            engine = RuntimeEngine(partition.spec, job.workload)
            self._engines[engine_key] = engine
        trace = engine.run_iteration(job.graph, plan)
        self.engine_runs += 1
        profile = IterationProfile(
            seconds_per_iteration=trace.total_seconds,
            call_spans=dict(trace.call_spans),
            realloc_seconds=trace.realloc_seconds,
            data_transfer_seconds=trace.data_transfer_seconds,
        )
        self._profiles[key] = profile
        return profile


def locate_allocation(alloc: Allocation, partition: Partition) -> Allocation:
    """Re-base an allocation from a partition's carved cluster onto its parent.

    Plans are searched on the location-erased carved spec; re-adding the
    partition's offsets yields the *located* mesh on the shared cluster,
    which is what makes migration costs real: the same layout on the same
    GPUs is free, while moving across nodes pays the inter-node fabric.
    """
    region = partition.region
    mesh = DeviceMesh(
        cluster=region.cluster,
        node_start=region.node_start + alloc.mesh.node_start,
        n_nodes=alloc.mesh.n_nodes,
        gpu_start=region.gpu_start + alloc.mesh.gpu_start,
        gpus_per_node=alloc.mesh.gpus_per_node,
    )
    return Allocation(
        mesh=mesh,
        parallel=alloc.parallel,
        n_microbatches=alloc.n_microbatches,
        zero3=alloc.zero3,
    )


class MigrationCostModel:
    """Real parameter-movement cost of switching a job between partitions."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        self._realloc = ReallocCostModel(cluster, exact=False)

    def _fallback_seconds(self, job: Job) -> float:
        """Bandwidth bound when located meshes cannot be reconstructed."""
        ic = self.cluster.interconnect
        total = 0.0
        for model_name in job.graph.model_names():
            config = job.workload.model_config(model_name)
            total += config.param_count() * PARAM_BYTES / ic.inter_node_bandwidth
            total += ic.inter_node_latency_s
        return total

    def switch_seconds(
        self,
        job: Job,
        old_partition: Optional[Partition],
        old_plan: Optional[ExecutionPlan],
        new_partition: Partition,
        new_plan: ExecutionPlan,
        lost_params: bool = False,
    ) -> float:
        """Seconds to move the job's parameters to their new located layout.

        The layout of each model at an iteration boundary is its *first*
        call's allocation (the wrap-around reallocation edge restores it at
        the end of every iteration), so migration is one reallocation per
        model between the old and new located first-call layouts.  Cold
        placements (no previous plan) start immediately — parameter
        initialisation is outside the simulated window.  ``lost_params``
        (a node failure destroyed the resident copy) forces a full reload
        from checkpoint storage at inter-node bandwidth.
        """
        if old_partition is None or old_plan is None:
            return 0.0
        if lost_params:
            return self._fallback_seconds(job)
        total = 0.0
        for model_name in job.graph.model_names():
            first_call = job.graph.calls_of_model(model_name)[0].name
            if first_call not in old_plan or first_call not in new_plan:
                return self._fallback_seconds(job)
            config = job.workload.model_config(model_name)
            try:
                src = locate_allocation(old_plan[first_call], old_partition)
                dst = locate_allocation(new_plan[first_call], new_partition)
            except ValueError:
                return self._fallback_seconds(job)
            total += self._realloc.cost(config, src, dst).seconds
        return total
