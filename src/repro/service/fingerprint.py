"""Workload fingerprinting: stable cache keys for planning requests.

The plan service amortizes the MCMC search across requests, which requires a
canonical identity for a planning request.  A request is fully determined by
the tuple (dataflow graph, workload, cluster, search config, prune config);
this module canonicalizes that tuple into a JSON document and hashes it into
a stable hex *key*.

Two keys are derived per request:

* ``key`` — the exact identity.  Two requests with equal keys are guaranteed
  to produce the same search problem, so a cached plan can be served
  verbatim.
* ``family`` — the identity with the *scale* knobs removed (batch size,
  prompt/generation lengths, number of nodes, PPO minibatches and the search
  budget).  Requests in the same family share the dataflow structure, model
  architectures, per-node hardware and pruning rules, so a plan cached for
  one member is a useful warm start for another (see
  :mod:`repro.service.warm_start`).

Fields that do not change the search *problem* are excluded from both keys:
``SearchConfig.record_history`` (observability only) and
``SearchConfig.initial_plan`` (a hint that can only improve the result).
Searches whose *time* budget binds are not run-to-run deterministic, so the
cache's contract for those is "a plan searched under this budget".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from ..cluster.hardware import ClusterSpec
from ..core.dataflow import DataflowGraph, ModelFunctionCall
from ..core.pruning import PruneConfig
from ..core.search import SearchConfig
from ..core.workload import RLHFWorkload
from ..model.config import ModelConfig

__all__ = [
    "WorkloadFingerprint",
    "canonical_request",
    "fingerprint_request",
]


def _call_dict(call: ModelFunctionCall) -> Dict[str, Any]:
    return {
        "name": call.name,
        "model_name": call.model_name,
        "call_type": call.call_type.value,
        "input_keys": list(call.input_keys),
        "output_keys": list(call.output_keys),
        "batch_scale": call.batch_scale,
        "gen_len_scale": call.gen_len_scale,
    }


def _graph_dict(graph: DataflowGraph) -> Dict[str, Any]:
    return {
        "name": graph.name,
        "calls": [_call_dict(call) for call in graph.calls],
        "external_inputs": list(graph.external_inputs),
        "extra_edges": [list(edge) for edge in graph.extra_edges],
    }


def _model_dict(config: ModelConfig) -> Dict[str, Any]:
    return dataclasses.asdict(config)


def _cluster_dict(cluster: ClusterSpec) -> Dict[str, Any]:
    return dataclasses.asdict(cluster)


def _search_dict(search: SearchConfig) -> Dict[str, Any]:
    # record_history and initial_plan do not change the search problem.
    return {
        "beta": search.beta,
        "oom_penalty": search.oom_penalty,
        "max_iterations": search.max_iterations,
        "time_budget_s": search.time_budget_s,
        "seed": search.seed,
        "n_chains": search.n_chains,
    }


def _prune_dict(prune: PruneConfig) -> Dict[str, Any]:
    data = dataclasses.asdict(prune)
    data["microbatch_choices"] = list(data["microbatch_choices"])
    return data


def canonical_request(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    search: SearchConfig = SearchConfig(),
    prune: PruneConfig = PruneConfig(),
) -> Dict[str, Any]:
    """Canonical JSON-serializable document identifying a planning request."""
    return {
        "graph": _graph_dict(graph),
        "workload": {
            "batch_size": workload.batch_size,
            "prompt_len": workload.prompt_len,
            "gen_len": workload.gen_len,
            "n_ppo_minibatches": workload.n_ppo_minibatches,
            "models": {
                name: _model_dict(workload.model_configs[name])
                for name in sorted(workload.model_configs)
            },
        },
        "cluster": _cluster_dict(cluster),
        "search": _search_dict(search),
        "prune": _prune_dict(prune),
    }


def _digest(document: Mapping[str, Any]) -> str:
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WorkloadFingerprint:
    """Stable identity of a planning request plus its warm-start features.

    ``features`` holds the scale knobs excluded from the family key; the
    warm-start selector uses them to rank cached plans of the same family by
    similarity to the incoming request.
    """

    key: str
    family: str
    features: Mapping[str, float] = field(default_factory=dict)
    estimator_key: str = ""
    """Identity of the (graph, workload, cluster) triple only.  Requests that
    share it pose different search problems but identical estimation
    problems, so they can share one memoised
    :class:`~repro.core.estimator.RuntimeEstimator`."""
    problem_key: str = ""
    """Identity of the (graph, workload, cluster, prune) search problem: the
    estimator identity plus the pruning rules.  Requests that share it differ
    only in search budget or seed, so they can share one
    :class:`~repro.core.search.SearchProblem`."""
    option_table_key: str = ""
    """Identity of the (cluster, prune) pair alone: requests that share it
    enumerate their calls' options over one mesh set under one set of
    pruning rules, so they can share one compiled option table."""

    @property
    def short_key(self) -> str:
        """Abbreviated key for logs and stats tables."""
        return self.key[:12]


def fingerprint_request(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    search: SearchConfig = SearchConfig(),
    prune: PruneConfig = PruneConfig(),
) -> WorkloadFingerprint:
    """Fingerprint a planning request into exact and family keys."""
    canonical = canonical_request(graph, workload, cluster, search, prune)
    family_document = {
        "graph": canonical["graph"],
        "models": canonical["workload"]["models"],
        "gpus_per_node": cluster.gpus_per_node,
        "gpu": dataclasses.asdict(cluster.gpu),
        "interconnect": dataclasses.asdict(cluster.interconnect),
        "rpc_overhead_s": cluster.rpc_overhead_s,
        "prune": canonical["prune"],
    }
    features: Dict[str, float] = {
        "batch_size": float(workload.batch_size),
        "prompt_len": float(workload.prompt_len),
        "gen_len": float(workload.gen_len),
        "n_ppo_minibatches": float(workload.n_ppo_minibatches),
        "n_nodes": float(cluster.n_nodes),
        "n_gpus": float(cluster.n_gpus),
    }
    estimator_document = {
        "graph": canonical["graph"],
        "workload": canonical["workload"],
        "cluster": canonical["cluster"],
    }
    return WorkloadFingerprint(
        key=_digest(canonical),
        family=_digest(family_document),
        features=features,
        estimator_key=_digest(estimator_document),
        problem_key=_digest({**estimator_document, "prune": canonical["prune"]}),
        option_table_key=_digest(
            {"cluster": canonical["cluster"], "prune": canonical["prune"]}
        ),
    )
