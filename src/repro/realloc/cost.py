"""Cost of parameter reallocation edges in an execution plan.

The estimator and the runtime engine both need the time of redistributing a
model's parameters between the layouts of two consecutive function calls.
This module builds the two :class:`~repro.realloc.layout.ParamLayout` objects,
plans the broadcast schedule and converts it to seconds; results are memoised
because the MCMC search evaluates many plans sharing identical reallocation
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..cluster.hardware import ClusterSpec
from ..core.plan import Allocation
from ..model.config import ModelConfig
from .layout import ParamLayout
from .remap import plan_reallocation, reallocation_time

__all__ = ["ReallocCost", "ReallocCostModel"]


@dataclass(frozen=True)
class ReallocCost:
    """Time and volume of one parameter reallocation."""

    seconds: float
    bytes_sent: float
    n_broadcasts: int


class ReallocCostModel:
    """Memoised reallocation cost evaluator for a fixed cluster.

    Two fidelity levels are offered.  ``exact=True`` builds the full broadcast
    schedule of Figure 6 and times it; the runtime engine uses this.
    ``exact=False`` (the default, used by the plan-search estimator) applies
    the paper's approximation — data volume divided by link bandwidth — so a
    candidate plan can be scored in microseconds.

    Costs are memoised for the model's lifetime, keyed by the full
    :class:`~repro.model.config.ModelConfig` (not its name) and both
    allocations' parameter layouts (``key[:7]``: mesh and strategy), so one
    model can serve callers of different workloads on its cluster.  A
    :class:`~repro.service.server.PlanService` keeps one exact model per
    carved cluster, shared by the runtime engines of every scheduler that
    uses the service.
    """

    def __init__(self, cluster: ClusterSpec, exact: bool = False) -> None:
        self.cluster = cluster
        self.exact = exact
        self._cache: Dict[Tuple, ReallocCost] = {}

    def cost(self, config: ModelConfig, src: Allocation, dst: Allocation) -> ReallocCost:
        """Cost of remapping ``config``'s parameters from ``src`` to ``dst``."""
        key = (config, src.key[:7], dst.key[:7])
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if src.mesh == dst.mesh and src.parallel == dst.parallel:
            result = ReallocCost(0.0, 0.0, 0)
        elif not self.exact:
            result = self._approximate_cost(config, src, dst)
        else:
            src_layout = ParamLayout(config=config, mesh=src.mesh, parallel=src.parallel)
            dst_layout = ParamLayout(config=config, mesh=dst.mesh, parallel=dst.parallel)
            plan = plan_reallocation(src_layout, dst_layout)
            result = ReallocCost(
                seconds=reallocation_time(plan, self.cluster),
                bytes_sent=plan.total_bytes,
                n_broadcasts=plan.n_steps,
            )
        self._cache[key] = result
        return result

    def _approximate_cost(
        self, config: ModelConfig, src: Allocation, dst: Allocation
    ) -> ReallocCost:
        """Closed-form approximation: shard volume over link bandwidth.

        Every destination GPU must receive its parameter shard (minus whatever
        it already holds when the meshes overlap); broadcasts from distinct
        sources proceed in parallel, so the wall time is roughly one shard's
        transfer over the relevant link class.
        """
        from ..model.memory import PARAM_BYTES

        moved = config.param_count() / (dst.parallel.tp * dst.parallel.pp) * PARAM_BYTES
        cross = src.mesh.node_ids != dst.mesh.node_ids
        ic = self.cluster.interconnect
        bandwidth = (
            ic.inter_node_bandwidth / self.cluster.gpus_per_node
            if cross
            else ic.intra_node_bandwidth
        )
        seconds = moved / bandwidth + (
            ic.inter_node_latency_s if cross else ic.intra_node_latency_s
        )
        total_bytes = config.param_count() * PARAM_BYTES
        return ReallocCost(seconds=seconds, bytes_sent=total_bytes, n_broadcasts=dst.mesh.n_gpus)

