"""Warm-starting the MCMC plan search from cached plans of similar workloads.

Cold-starting the Metropolis-Hastings search means beginning from the greedy
per-call-optimal plan and spending most of the budget rediscovering structure
(which calls should share meshes, where pipeline stages pay off) that a
previously solved *similar* workload already exhibits.  This module selects
the most similar cached plan within the request's fingerprint family — same
dataflow graph, model architectures, per-node hardware and pruning rules, but
possibly different batch size, sequence lengths or cluster size — adapts it
to the target cluster, and the plan service adds it to the searcher's
``seed_plans``.

Because the searcher evaluates the hint alongside its own greedy start and
keeps the best plan ever visited, a warm start can only lower (never raise)
the cost reachable within a given budget relative to the hint itself.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from ..cluster.hardware import ClusterSpec
from ..core.dataflow import DataflowGraph
from ..core.plan import Allocation, ExecutionPlan
from ..core.pruning import _CallOptions
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
    cache: PlanCache,
    fingerprint: WorkloadFingerprint,
    before: Optional[int] = None,
) -> Optional[PlanCacheEntry]:
    """Most similar cached entry of the request's family, or ``None``.

    The exact key is excluded — an exact match would have been a cache hit
    and never reaches the warm-start path.  ``before`` limits the choice to
    entries put before that put number (see :meth:`PlanCache.family_entries`).
    """
    candidates = [
        entry
        for entry in cache.family_entries(fingerprint.family, before)
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
    and TP/PP, so it needs no term of its own.  :func:`_nearest_option`
    computes the same sum term by term.
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
    options: Mapping[str, _CallOptions],
) -> Optional[ExecutionPlan]:
    """Project a cached plan onto the target cluster's allocation options.

    When the target cluster has the same shape as the plan's source cluster
    the cached assignments are reused as they are.  Otherwise every call's
    cached allocation is replaced by the nearest of its compiled options on
    the target cluster (nearest in mesh fraction, TP/PP degrees and
    micro-batch count; a search problem's ``compiled``).  Returns ``None``
    when the cached plan does not cover the graph — the search then simply
    cold-starts.
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
        compiled = options.get(call_name)
        if compiled is None or not compiled.options:
            return None
        assignments[call_name] = _nearest_option(cached_plan[call_name], compiled, cluster)
    return ExecutionPlan(assignments, name="warm-start")


def _nearest_option(
    cached: Allocation, compiled: _CallOptions, cluster: ClusterSpec
) -> Allocation:
    """The first option of ``compiled`` (a call's options on ``cluster``) at
    the least :func:`_allocation_distance` from ``cached``.

    The scan goes mesh by mesh through the ``by_mesh`` spans, which keeps
    list order.  Every distance term is non-negative and the mesh-fraction
    term comes first, so a mesh whose fraction term alone is strictly
    greater than the best distance so far cannot hold a nearer option (nor,
    later in the list, an equally near one) and is skipped.  Options share
    few distinct degrees and micro-batch counts, so each such term is
    computed once per distinct value and reused.  The terms are added in
    :func:`_allocation_distance`'s order, so every sum is bit-identical to it.
    """
    source = cached.mesh.cluster
    cached_fraction = cached.mesh.n_gpus / max(1, source.n_gpus)
    cached_start = cached.mesh.node_start / max(1, source.n_nodes)
    cached_tp, cached_pp = cached.parallel.tp, cached.parallel.pp
    cached_mbs = cached.n_microbatches
    target_gpus, target_nodes = cluster.n_gpus, cluster.n_nodes
    mesh_terms: Dict[int, float] = {}
    tp_terms: Dict[int, float] = {}
    pp_terms: Dict[int, float] = {}
    mbs_terms: Dict[int, float] = {}
    choices = compiled.options
    best, best_distance = choices[0], math.inf
    for span, _layouts in compiled.by_mesh.values():
        mesh = choices[span.start].mesh
        n_gpus = mesh.n_gpus
        a = mesh_terms.get(n_gpus)
        if a is None:
            a = mesh_terms[n_gpus] = 2.0 * _log_ratio(n_gpus / target_gpus, cached_fraction)
        if a > best_distance:
            continue
        e = 0.1 * abs(mesh.node_start / target_nodes - cached_start)
        for index in span:
            candidate = choices[index]
            parallel = candidate.parallel
            tp, pp, mbs = parallel.tp, parallel.pp, candidate.n_microbatches
            t = tp_terms.get(tp)
            if t is None:
                t = tp_terms[tp] = _log_ratio(tp, cached_tp)
            q = pp_terms.get(pp)
            if q is None:
                q = pp_terms[pp] = _log_ratio(pp, cached_pp)
            m = mbs_terms.get(mbs)
            if m is None:
                m = mbs_terms[mbs] = 0.25 * _log_ratio(mbs, cached_mbs)
            d = a
            d += t
            d += q
            d += m
            d += e
            if d < best_distance:
                best, best_distance = candidate, d
    return best
