"""Plan-service throughput: requests/sec and cache-hit rate on a mixed stream.

Unlike the figure benchmarks, this one measures the *serving* layer added on
top of the paper's search: a stream of planning requests mixing repeated and
novel workloads flows through the :class:`PlanService`, and we
report end-to-end requests/sec, the cache hit rate, and the latency gap
between cold searches and cached answers (which must be at least 10x).
"""

from __future__ import annotations

import time

import pytest

from conftest import bench_scale, run_once

from repro.algorithms import build_ppo_graph
from repro.cluster import make_cluster
from repro.core import SearchConfig, instructgpt_workload
from repro.experiments import format_table
from repro.service import PlanRequest, PlanService


def _request(graph, batch_size: int, max_iterations: int) -> PlanRequest:
    return PlanRequest(
        graph=graph,
        workload=instructgpt_workload("7b", "7b", batch_size=batch_size),
        cluster=make_cluster(8),
        search=SearchConfig(
            max_iterations=max_iterations,
            time_budget_s=30.0,
            seed=0,
            record_history=False,
        ),
    )


def run_service_throughput():
    graph = build_ppo_graph()
    max_iterations = 150 if bench_scale() != "full" else 1500
    repeats = 4 if bench_scale() != "full" else 16
    batch_sizes = [64, 96, 128] if bench_scale() != "full" else [64, 96, 128, 192, 256]

    # A mixed stream interleaving novel and repeated workloads: the first
    # request of each workload searches, every repeat is a cache hit.
    stream = [
        _request(graph, batch_size, max_iterations)
        for _ in range(repeats)
        for batch_size in batch_sizes
    ]

    service = PlanService()
    try:
        start = time.perf_counter()
        responses = [service.plan(request) for request in stream]
        elapsed = time.perf_counter() - start
        stats = service.stats.snapshot()
    finally:
        service.close()

    cold = [r.stats.total_seconds for r in responses if not r.stats.cache_hit]
    hits = [r.stats.total_seconds for r in responses if r.stats.cache_hit]
    avg_cold = sum(cold) / len(cold)
    avg_hit = sum(hits) / len(hits) if hits else float("nan")
    row = {
        "requests": len(stream),
        "unique": len(batch_sizes),
        "req/s": round(len(stream) / elapsed, 1),
        "hit rate": f"{stats.hit_rate:.0%}",
        "cold avg (ms)": round(avg_cold * 1e3, 1),
        "hit avg (ms)": round(avg_hit * 1e3, 2),
        "hit speedup": f"{avg_cold / avg_hit:.0f}x" if hits else "n/a",
    }
    return row, stats, responses, avg_cold, avg_hit


def test_service_throughput(benchmark):
    row, stats, responses, avg_cold, avg_hit = run_once(benchmark, run_service_throughput)
    print()
    print(format_table([row], title="Plan service: mixed request stream"))
    # Machine-readable aggregate counters (e.g. for dashboards/CI scraping).
    stats_dict = stats.to_dict()
    print(f"service stats: {stats_dict}")
    assert stats_dict["requests"] == len(responses)
    assert stats_dict["hit_rate"] == pytest.approx(stats.hit_rate)
    # Every request was answered with the same plan as its duplicates.
    by_fingerprint = {}
    for response in responses:
        by_fingerprint.setdefault(response.stats.fingerprint, set()).add(response.cost)
    assert all(len(costs) == 1 for costs in by_fingerprint.values())
    # Only the novel workloads ran a search.
    assert stats.cache_misses == len(by_fingerprint)
    assert stats.cache_hits == stats.requests - stats.cache_misses
    assert stats.cache_hits > 0
    # Serving a repeated request is at least 10x faster than searching.
    assert avg_cold >= 10.0 * avg_hit
