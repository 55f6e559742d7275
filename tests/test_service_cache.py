"""Tests for the plan service's fingerprinting and plan cache."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro.algorithms import build_dpo_graph, build_graph, build_ppo_graph
from repro.cluster import ClusterSpec, H100_SPEC, DEFAULT_INTERCONNECT, make_cluster
from repro.core import (
    MCMCSearcher,
    ParallelStrategy,
    PruneConfig,
    RLHFWorkload,
    SearchConfig,
    instructgpt_workload,
    symmetric_plan,
)
from repro.service import (
    PlanCache,
    PlanCacheEntry,
    WorkloadFingerprint,
    canonical_request,
    fingerprint_request,
    select_warm_start,
)


SMALL_SEARCH = SearchConfig(max_iterations=60, time_budget_s=10.0, record_history=False)


def _fingerprint(batch_size=128, n_gpus=8, actor="7b", graph=None, search=SMALL_SEARCH):
    graph = graph if graph is not None else build_ppo_graph()
    workload = instructgpt_workload(actor, "7b", batch_size=batch_size)
    cluster = make_cluster(n_gpus)
    return fingerprint_request(graph, workload, cluster, search)


def _entry(key="k", family="f", cost=1.0, cluster=None, plan=None) -> PlanCacheEntry:
    cluster = cluster or make_cluster(8)
    plan = plan or symmetric_plan(
        build_ppo_graph(), cluster, ParallelStrategy(dp=1, tp=8, pp=1)
    )
    return PlanCacheEntry(
        key=key,
        family=family,
        features={"batch_size": 128.0},
        plan=plan,
        best_cost=cost,
        initial_cost=2 * cost,
        peak_memory_bytes=1.0,
    )


class TestFingerprint:
    def test_identical_requests_share_key(self):
        assert _fingerprint().key == _fingerprint().key
        assert _fingerprint().family == _fingerprint().family

    def test_key_is_stable_hex(self):
        fp = _fingerprint()
        assert len(fp.key) == 64 and int(fp.key, 16) >= 0

    def test_scale_changes_key_not_family(self):
        base = _fingerprint(batch_size=128, n_gpus=8)
        bigger_batch = _fingerprint(batch_size=256, n_gpus=8)
        bigger_cluster = _fingerprint(batch_size=128, n_gpus=16)
        assert base.key != bigger_batch.key != bigger_cluster.key
        assert base.family == bigger_batch.family == bigger_cluster.family

    def test_model_and_graph_change_family(self):
        base = _fingerprint()
        other_model = _fingerprint(actor="13b")
        other_graph = _fingerprint(graph=build_dpo_graph())
        assert base.family != other_model.family
        assert base.family != other_graph.family

    def test_search_budget_changes_key(self):
        fast = _fingerprint(search=SearchConfig(max_iterations=10))
        slow = _fingerprint(search=SearchConfig(max_iterations=1000))
        assert fast.key != slow.key

    def test_observability_fields_do_not_change_key(self):
        plain = _fingerprint(search=SMALL_SEARCH)
        with_history = _fingerprint(
            search=dataclasses.replace(SMALL_SEARCH, record_history=True)
        )
        assert plain.key == with_history.key


def _whole_document_keys(graph, workload, cluster, search, prune):
    """The five keys as whole-document digests of ``dataclasses.asdict`` parts."""

    def digest(document):
        payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    canonical = canonical_request(graph, workload, cluster, search, prune)
    canonical["workload"]["models"] = {
        name: dataclasses.asdict(workload.model_configs[name])
        for name in sorted(workload.model_configs)
    }
    canonical["cluster"] = dataclasses.asdict(cluster)
    canonical["prune"] = dict(
        dataclasses.asdict(prune), microbatch_choices=list(prune.microbatch_choices)
    )
    family_document = {
        "graph": canonical["graph"],
        "models": canonical["workload"]["models"],
        "gpus_per_node": cluster.gpus_per_node,
        "gpu": dataclasses.asdict(cluster.gpu),
        "interconnect": dataclasses.asdict(cluster.interconnect),
        "rpc_overhead_s": cluster.rpc_overhead_s,
        "prune": canonical["prune"],
    }
    estimator_document = {
        "graph": canonical["graph"],
        "workload": canonical["workload"],
        "cluster": canonical["cluster"],
    }
    return {
        "key": digest(canonical),
        "family": digest(family_document),
        "problem_key": digest({**estimator_document, "prune": canonical["prune"]}),
        "option_table_key": digest({"cluster": canonical["cluster"], "prune": canonical["prune"]}),
    }


_CLUSTERS = (
    make_cluster(8),
    make_cluster(16),
    ClusterSpec(
        n_nodes=3,
        gpus_per_node=4,
        gpu=dataclasses.replace(H100_SPEC, name="H800 \u00e9", memory_gb=79.5),
        interconnect=dataclasses.replace(DEFAULT_INTERCONNECT, inter_node_bandwidth_gbps=200.0),
        rpc_overhead_s=1e-3,
    ),
)
_PRUNES = (
    PruneConfig(),
    PruneConfig(microbatch_choices=(1, 3), max_mesh_gpus=8, power_of_two_meshes=False),
)
_SEARCHES = (SearchConfig(), SMALL_SEARCH)


class TestFingerprintEncoding:
    """Keys built from once-encoded parts equal whole-document digests."""

    @pytest.mark.parametrize("algorithm", ["ppo", "grpo", "remax", "dpo"])
    def test_keys_byte_identical(self, algorithm):
        graph = build_graph(algorithm)
        base = instructgpt_workload("13b", "7b", batch_size=96, gen_len=512)
        workloads = (
            base,
            RLHFWorkload({**base.model_configs, "r\u00e9f\"x": base.model_configs["ref"]},
                         batch_size=7, prompt_len=33, n_ppo_minibatches=2),
        )
        for workload, cluster, search, prune in itertools.product(
            workloads, _CLUSTERS, _SEARCHES, _PRUNES
        ):
            fingerprint = fingerprint_request(graph, workload, cluster, search, prune)
            expected = _whole_document_keys(graph, workload, cluster, search, prune)
            assert {name: getattr(fingerprint, name) for name in expected} == expected


class TestPlanCache:
    def test_get_put_and_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get("missing") is None
        entry = _entry(key="a")
        cache.put(entry)
        assert cache.get("a") is entry
        assert cache.peek("a") is entry and cache.puts == 1

    def test_lru_eviction_order(self):
        # The order shows in what the next put evicts: the least recent entry.
        cache = PlanCache(capacity=2)
        cache.put(_entry(key="a"))
        cache.put(_entry(key="b"))
        assert cache.peek("a") is not None  # peek leaves 'a' least recent
        cache.put(_entry(key="c"))
        assert cache.peek("a") is None
        assert cache.peek("b") is not None and cache.peek("c") is not None
        assert cache.get("b") is not None  # refresh 'b'; 'c' becomes LRU
        cache.put(_entry(key="d"))
        assert cache.peek("c") is None
        assert cache.peek("b") is not None and cache.peek("d") is not None

    def test_family_entries_most_recent_first(self):
        cache = PlanCache(capacity=8)
        cache.put(_entry(key="a", family="f1"))
        cache.put(_entry(key="b", family="f2"))
        cache.put(_entry(key="c", family="f1"))
        assert [e.key for e in cache.family_entries("f1")] == ["c", "a"]

    def test_warm_start_cutoff_excludes_later_puts(self):
        cache = PlanCache(capacity=8)
        # Put numbers: a=0, b=1, c=2, then a again at 3 (its latest put).
        for key, batch in (("a", 64), ("b", 256), ("c", 192), ("a", 64)):
            entry = dataclasses.replace(_entry(key=key), features={"batch_size": float(batch)})
            cache.put(entry)
        assert cache.puts == 4
        request = WorkloadFingerprint(key="new", family="f", features={"batch_size": 200.0})
        chosen = {
            before: getattr(select_warm_start(cache, request, before=before), "key", None)
            for before in range(cache.puts + 1)
        }
        assert chosen == {0: None, 1: None, 2: "b", 3: "c", 4: "c"}
        assert select_warm_start(cache, request).key == "c"
        assert [e.key for e in cache.family_entries("f", before=3)] == ["c", "b"]

    def test_entry_from_search_result(self, ppo_graph, small_workload, small_cluster):
        searcher = MCMCSearcher(
            ppo_graph, small_workload, small_cluster, config=SMALL_SEARCH
        )
        result = searcher.search()
        fp = fingerprint_request(ppo_graph, small_workload, small_cluster, SMALL_SEARCH)
        entry = PlanCacheEntry.from_search_result(fp, result, peak_memory_bytes=5.0)
        assert entry.key == fp.key and entry.family == fp.family
        assert entry.plan is result.best_plan
        assert entry.peak_memory_bytes == 5.0
        served = entry.to_search_result()
        assert served.best_plan is result.best_plan
        assert served.best_cost == result.best_cost
        assert served.initial_cost == result.initial_cost
