"""Tests for the plan service's fingerprinting and plan cache."""

from __future__ import annotations

import dataclasses

from repro.algorithms import build_dpo_graph, build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    MCMCSearcher,
    ParallelStrategy,
    SearchConfig,
    instructgpt_workload,
    symmetric_plan,
)
from repro.service import (
    PlanCache,
    PlanCacheEntry,
    fingerprint_request,
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
        assert fp.short_key == fp.key[:12]

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
        cluster = make_cluster(8)
        hint = symmetric_plan(build_ppo_graph(), cluster, ParallelStrategy(dp=1, tp=8, pp=1))
        with_hint = _fingerprint(
            search=dataclasses.replace(SMALL_SEARCH, initial_plan=hint)
        )
        assert plain.key == with_history.key == with_hint.key


class TestPlanCache:
    def test_get_put_and_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get("missing") is None
        entry = _entry(key="a")
        cache.put(entry)
        assert cache.get("a") is entry
        assert len(cache) == 1 and "a" in cache

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.put(_entry(key="a"))
        cache.put(_entry(key="b"))
        assert cache.peek("a") is not None  # peek leaves 'a' least recent
        assert cache.keys() == ["a", "b"]
        assert cache.get("a") is not None  # refresh 'a'; 'b' becomes LRU
        assert cache.keys() == ["b", "a"]
        cache.put(_entry(key="c"))
        assert cache.keys() == ["a", "c"]
        assert cache.peek("b") is None

    def test_family_entries_most_recent_first(self):
        cache = PlanCache(capacity=8)
        cache.put(_entry(key="a", family="f1"))
        cache.put(_entry(key="b", family="f2"))
        cache.put(_entry(key="c", family="f1"))
        assert [e.key for e in cache.family_entries("f1")] == ["c", "a"]

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
