"""Warm-starting the MCMC plan search from cached plans of similar workloads.

Cold-starting the Metropolis-Hastings search means beginning from the greedy
per-call-optimal plan and spending most of the budget rediscovering structure
(which calls should share meshes, where pipeline stages pay off) that a
previously solved *similar* workload already exhibits.  This module selects
the most similar cached plan within the request's fingerprint family — same
dataflow graph, model architectures, per-node hardware and pruning rules, but
possibly different batch size, sequence lengths or cluster size — adapts it
to the target cluster, and feeds it to the searcher through the
``initial_plan`` hook of :class:`~repro.core.search.SearchConfig`.

Because the searcher evaluates the hint alongside its own greedy start and
keeps the best plan ever visited, a warm start can only lower (never raise)
the cost reachable within a given budget relative to the hint itself.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from ..cluster.hardware import ClusterSpec
from ..core.dataflow import DataflowGraph
from ..core.plan import Allocation, ExecutionPlan
from .cache import PlanCache, PlanCacheEntry
from .fingerprint import WorkloadFingerprint

__all__ = ["similarity_distance", "select_warm_start", "adapt_plan"]

#: Feature weights of the similarity metric.  Cluster size dominates (a plan
#: for a different cluster needs projection), then batch size and sequence
#: lengths, which shift the memory/compute balance the plan was tuned for.
_FEATURE_WEIGHTS = {
    "n_gpus": 2.0,
    "batch_size": 1.0,
    "prompt_len": 0.5,
    "gen_len": 0.5,
    "n_ppo_minibatches": 0.25,
}


def _log_ratio(a: float, b: float) -> float:
    return abs(math.log(max(a, 1e-9) / max(b, 1e-9)))


def similarity_distance(
    entry_features: Mapping[str, float], request_features: Mapping[str, float]
) -> float:
    """Weighted log-ratio distance between two requests' scale features.

    Zero means identical scale; the warm-start selector picks the cached
    entry minimizing this distance.
    """
    distance = 0.0
    for name, weight in _FEATURE_WEIGHTS.items():
        if name in entry_features and name in request_features:
            distance += weight * _log_ratio(entry_features[name], request_features[name])
    return distance


def select_warm_start(
    cache: PlanCache, fingerprint: WorkloadFingerprint
) -> Optional[PlanCacheEntry]:
    """Most similar cached entry of the request's family, or ``None``.

    The exact key is excluded — an exact match would have been a cache hit
    and never reaches the warm-start path.
    """
    candidates = [
        entry
        for entry in cache.family_entries(fingerprint.family)
        if entry.key != fingerprint.key
    ]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda entry: (
            similarity_distance(entry.features, fingerprint.features),
            entry.key,
        ),
    )


def _allocation_distance(
    cached: Allocation,
    candidate: Allocation,
    target_gpus: int,
) -> float:
    """How far a candidate allocation is from a cached one, scale-normalised.

    The mesh is compared by its *fraction* of the cluster (so a half-cluster
    mesh maps to a half-cluster mesh even when the cluster grew), the TP/PP
    degrees and micro-batch count by log ratio.  DP is implied by mesh size
    and TP/PP, so it needs no term of its own.
    """
    source = cached.mesh.cluster
    distance = 2.0 * _log_ratio(
        candidate.mesh.n_gpus / target_gpus,
        cached.mesh.n_gpus / max(1, source.n_gpus),
    )
    distance += _log_ratio(candidate.parallel.tp, cached.parallel.tp)
    distance += _log_ratio(candidate.parallel.pp, cached.parallel.pp)
    distance += 0.25 * _log_ratio(candidate.n_microbatches, cached.n_microbatches)
    # Prefer the same position within the cluster, normalised to [0, 1).
    cached_start = cached.mesh.node_start / max(1, source.n_nodes)
    target_nodes = candidate.mesh.cluster.n_nodes
    candidate_start = candidate.mesh.node_start / target_nodes
    distance += 0.1 * abs(candidate_start - cached_start)
    return distance


def adapt_plan(
    entry: PlanCacheEntry,
    graph: DataflowGraph,
    cluster: ClusterSpec,
    options: Dict[str, List[Allocation]],
) -> Optional[ExecutionPlan]:
    """Project a cached plan onto the target cluster's allocation options.

    When the target cluster has the same shape as the plan's source cluster
    the cached assignments are reused as they are.  Otherwise every call's
    cached allocation is replaced by the nearest option available on the
    target cluster (nearest in mesh fraction, TP/PP degrees and micro-batch
    count).  Returns ``None`` when the cached plan does not cover the graph —
    the search then simply cold-starts.
    """
    cached_plan = entry.plan
    call_names = graph.call_names
    if set(call_names) - set(cached_plan.assignments):
        return None
    source = cached_plan[call_names[0]].mesh.cluster
    if (source.n_nodes, source.gpus_per_node) == (cluster.n_nodes, cluster.gpus_per_node):
        return ExecutionPlan(cached_plan.assignments, name="warm-start")
    assignments: Dict[str, Allocation] = {}
    for call_name in call_names:
        cached = cached_plan[call_name]
        choices = options.get(call_name)
        if not choices:
            return None
        best = min(
            range(len(choices)),
            key=lambda i: (
                _allocation_distance(cached, choices[i], cluster.n_gpus),
                i,
            ),
        )
        assignments[call_name] = choices[best]
    return ExecutionPlan(assignments, name="warm-start")
