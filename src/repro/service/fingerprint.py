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

``SearchConfig.record_history`` is excluded from both keys: it records
observability only and does not change the search *problem*.  Seed plans are
not part of a request at all (they are passed to the searcher or session).
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


def _fields_dict(obj: Any) -> Dict[str, Any]:
    """``dataclasses.asdict`` without its deep copies.

    The configs fingerprinted here hold only scalars, tuples of scalars and
    nested dataclasses, which encode to the same JSON either way.
    """
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = _fields_dict(value) if hasattr(value, "__dataclass_fields__") else value
    return out


def _search_dict(search: SearchConfig) -> Dict[str, Any]:
    # record_history does not change the search problem.
    return {
        "beta": search.beta,
        "oom_penalty": search.oom_penalty,
        "max_iterations": search.max_iterations,
        "time_budget_s": search.time_budget_s,
        "seed": search.seed,
        "n_chains": search.n_chains,
    }


def _prune_dict(prune: PruneConfig) -> Dict[str, Any]:
    data = _fields_dict(prune)
    data["microbatch_choices"] = list(data["microbatch_choices"])
    return data


def _workload_scalars(workload: RLHFWorkload) -> Dict[str, Any]:
    return {
        "batch_size": workload.batch_size,
        "prompt_len": workload.prompt_len,
        "gen_len": workload.gen_len,
        "n_ppo_minibatches": workload.n_ppo_minibatches,
    }


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
            **_workload_scalars(workload),
            "models": {
                name: _fields_dict(workload.model_configs[name])
                for name in sorted(workload.model_configs)
            },
        },
        "cluster": _fields_dict(cluster),
        "search": _search_dict(search),
        "prune": _prune_dict(prune),
    }


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json(value: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return _ENCODER.encode(value)


def _object(members: Mapping[str, str]) -> str:
    """Canonical JSON text of an object from its members' canonical texts.

    Equals ``_json`` of the object itself, because the encoder writes a
    nested value exactly as it writes that value alone.
    """
    return "{" + ",".join(f"{_json(name)}:{members[name]}" for name in sorted(members)) + "}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    problem_key: str = ""
    """Identity of the (graph, workload, cluster, prune) search problem.
    Requests that share it differ only in search budget or seed, so they can
    share one :class:`~repro.core.search.SearchProblem` and its memoised
    :class:`~repro.core.estimator.RuntimeEstimator`."""
    option_table_key: str = ""
    """Identity of the (cluster, prune) pair alone: requests that share it
    enumerate their calls' options over one mesh set under one set of
    pruning rules, so they can share one compiled option table."""


def fingerprint_request(
    graph: DataflowGraph,
    workload: RLHFWorkload,
    cluster: ClusterSpec,
    search: SearchConfig = SearchConfig(),
    prune: PruneConfig = PruneConfig(),
) -> WorkloadFingerprint:
    """Fingerprint a planning request into exact and family keys.

    Each part of :func:`canonical_request` (and each cluster field) is
    encoded once; the four digests hash documents assembled from those
    texts, which are byte-identical to encoding each document whole.
    """
    graph_json = _json(_graph_dict(graph))
    models_json = _object({
        name: _json(_fields_dict(config)) for name, config in workload.model_configs.items()
    })
    workload_json = _object({
        **{name: _json(value) for name, value in _workload_scalars(workload).items()},
        "models": models_json,
    })
    cluster_fields = {name: _json(value) for name, value in _fields_dict(cluster).items()}
    cluster_json = _object(cluster_fields)
    prune_json = _json(_prune_dict(prune))
    estimator_document = {"graph": graph_json, "workload": workload_json, "cluster": cluster_json}
    family_document = {
        "graph": graph_json,
        "models": models_json,
        "gpus_per_node": cluster_fields["gpus_per_node"],
        "gpu": cluster_fields["gpu"],
        "interconnect": cluster_fields["interconnect"],
        "rpc_overhead_s": cluster_fields["rpc_overhead_s"],
        "prune": prune_json,
    }
    features: Dict[str, float] = {
        "batch_size": float(workload.batch_size),
        "prompt_len": float(workload.prompt_len),
        "gen_len": float(workload.gen_len),
        "n_ppo_minibatches": float(workload.n_ppo_minibatches),
        "n_nodes": float(cluster.n_nodes),
        "n_gpus": float(cluster.n_gpus),
    }
    return WorkloadFingerprint(
        key=_sha256(_object({
            **estimator_document, "search": _json(_search_dict(search)), "prune": prune_json,
        })),
        family=_sha256(_object(family_document)),
        features=features,
        problem_key=_sha256(_object({**estimator_document, "prune": prune_json})),
        option_table_key=_sha256(_object({"cluster": cluster_json, "prune": prune_json})),
    )
