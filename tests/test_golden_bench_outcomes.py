"""Exact pins of what the small scheduler, fleet, engine and search scenarios simulate.

``tests/fixtures/golden_bench_outcomes.json`` (regenerated by
``tests/fixtures/make_golden_bench_outcomes.py``) pins policy makespans,
replans, preemptions and resizes, service hit/miss/warm counts, online
swap counts, fleet event and Chrome-event counts, the capacity frontier,
the engine's simulated iteration and the Figure-13 best cost.  Every
search is bound by iterations alone, so any change to these outcomes fails
here regardless of machine speed.

The estimator oracle lives here too: :class:`PrePREstimator` recomputes a
plan's cost from scratch, independently of the memoised incremental
``cost_delta`` path the search runs on.
"""

from __future__ import annotations

import heapq
import json
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_golden_bench_outcomes import (  # noqa: E402  (fixture helpers double as regeneration script)
    GOLDEN_PATH,
    SCENARIOS,
    figure13_setup,
    random_moves,
    run_scenario,
)
from repro.core import (  # noqa: E402
    MCMCSearcher,
    RuntimeEstimator,
    allocation_options,
    reallocation_edges,
)
from repro.core.estimator import DEFAULT_OOM_PENALTY  # noqa: E402
from repro.model.memory import PARAM_BYTES  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_outcome_matches_pin(golden, scenario):
    assert run_scenario(scenario) == golden[scenario]


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


def test_pins_keep_the_scenarios_claims(golden):
    """What each scenario exists to show still holds in its pinned outcome."""
    policies = golden["scheduler"]["policies"]
    assert all(p["all_completed"] for p in policies.values())

    def iters_per_s(outcome):
        return outcome["total_iterations"] / outcome["makespan"]

    # Packing beats static equal partitioning on aggregate iterations/sec.
    assert iters_per_s(policies["best_throughput"]) > iters_per_s(policies["static_equal"])
    # The failure run completes every job through at least one replan.
    failure = golden["scheduler"]["failure"]
    assert failure["all_completed"] and failure["n_failures"] == 1
    assert failure["n_replans"] >= 1
    assert failure["cold_searches"] > 0 and failure["replan_searches"] > 0
    # Online re-planning beats plan-once through real swaps.
    online, plan_once = (
        golden["online_replanning"]["online"], golden["online_replanning"]["plan_once"]
    )
    assert iters_per_s(online) > iters_per_s(plan_once)
    assert online["n_swaps"] >= 1 and online["n_search_polls"] >= 1
    assert online["swap_seconds_saved"] > 0
    assert plan_once["n_swaps"] == 0
    # The fleet replay completes and the capacity grid has a frontier.
    assert golden["fleet_replay"]["warm_replay"]["all_completed"]
    capacity = golden["fleet_replay"]["capacity"]
    assert len(capacity["candidates"]) == 6 and capacity["frontier"]
    # The engine is deterministic; the cached decision wave repeats the cold one.
    assert golden["engine_iteration"]["repeat_identical"]
    decision = golden["search"]["decision"]
    assert decision["cached_costs_equal"]
    assert set(decision["outcomes"][1]) == {"hit"}
    # Repeated service requests are hits answered with one plan per workload.
    stream = golden["service_stream"]
    assert stream["one_cost_per_fingerprint"]
    assert stream["cache_misses"] == stream["distinct_fingerprints"]
    assert stream["cache_hits"] == stream["requests"] - stream["cache_misses"] > 0


# ---------------------------------------------------------------------- #
# The full-recompute estimator oracle
# ---------------------------------------------------------------------- #
class PrePREstimator(RuntimeEstimator):
    """Reference estimator: every evaluation recomputes the plan from scratch.

    ``cost`` rebuilds per-call breakdowns, reallocation edges, transfer
    times, the adjacency maps and the per-GPU memory dictionaries on every
    call, as the estimator did before memoisation and ``cost_delta``
    existed.  Only the per-call cost models are shared with the estimator
    under test.
    """

    def cost(self, plan, oom_penalty: float = DEFAULT_OOM_PENALTY) -> float:
        graph, workload, cluster = self.graph, self.workload, self.cluster
        parents = graph.parents_map()
        children = graph.children_map()
        durations = {}
        for name in graph.call_names:
            call = graph.get(name)
            wl = workload.call_workload(call)
            durations[name] = self.cost_model(call.model_name).breakdown(
                call, wl, plan[name]
            ).total
        realloc_in = {name: 0.0 for name in graph.call_names}
        for edge in reallocation_edges(graph, plan):
            config = workload.model_config(edge.model_name)
            realloc_in[edge.dst_call] += self.realloc_model.cost(
                config, edge.src, edge.dst
            ).seconds
        edge_transfer = {}
        for src, dst in graph.edges:
            src_alloc, dst_alloc = plan[src], plan[dst]
            if (
                src_alloc.mesh == dst_alloc.mesh
                and src_alloc.parallel.dp == dst_alloc.parallel.dp
                and src_alloc.parallel.tp == dst_alloc.parallel.tp
            ):
                edge_transfer[(src, dst)] = 0.0
            else:
                wl = workload.call_workload(graph.get(dst))
                nbytes = wl.batch_size * wl.seqlen * 16.0
                cross = src_alloc.mesh.node_ids != dst_alloc.mesh.node_ids
                edge_transfer[(src, dst)] = self.comm.p2p_time_cross(nbytes, cross)

        ready_time = {name: 0.0 for name in graph.call_names}
        remaining = {name: len(parents[name]) for name in graph.call_names}
        gpu_free = {g: 0.0 for g in range(cluster.n_gpus)}
        spans = {}
        heap = [(0.0, name) for name in graph.call_names if remaining[name] == 0]
        heapq.heapify(heap)
        while heap:
            rt, name = heapq.heappop(heap)
            if name in spans:
                continue
            mesh_gpus = plan[name].mesh.device_ids
            start = max(rt, max(gpu_free[g] for g in mesh_gpus))
            end = start + durations[name] + realloc_in[name] + cluster.rpc_overhead_s
            spans[name] = (start, end)
            for g in mesh_gpus:
                gpu_free[g] = end
            for child in children[name]:
                transfer = edge_transfer.get((name, child), 0.0)
                ready_time[child] = max(ready_time[child], end + transfer)
                remaining[child] -= 1
                if remaining[child] == 0:
                    heapq.heappush(heap, (ready_time[child], child))
        time_cost = max(end for _, end in spans.values())

        static = {g: 0.0 for g in range(cluster.n_gpus)}
        params = {}
        active = {g: 0.0 for g in range(cluster.n_gpus)}
        for name in graph.call_names:
            call = graph.get(name)
            alloc = plan[name]
            cm = self.cost_model(call.model_name)
            wl = workload.call_workload(call)
            shard = workload.model_config(call.model_name).param_count() / (
                alloc.parallel.tp * alloc.parallel.pp
            )
            if alloc.zero3:
                shard /= alloc.parallel.dp
            param_bytes = shard * PARAM_BYTES
            call_static = cm.static_memory(call, alloc)
            call_active = max(cm.active_memory(call, wl, alloc) - param_bytes, 0.0)
            for g in alloc.mesh.device_ids:
                static[g] += call_static
                key = (g, call.model_name)
                params[key] = max(params.get(key, 0.0), param_bytes)
                active[g] = max(active[g], call_active)
        params_per_gpu = {g: 0.0 for g in static}
        for (g, _model), nbytes in params.items():
            params_per_gpu[g] += nbytes
        max_bytes = max(static[g] + params_per_gpu[g] + active[g] for g in static)

        if max_bytes < cluster.device_memory_bytes:
            return time_cost
        return oom_penalty * time_cost


def test_cost_delta_matches_full_recompute_oracle():
    """``cost_delta`` scores 100 seeded Figure-13 moves exactly as the oracle.

    The moves form a walk, as in MCMC: each one is scored against the plan
    the previous moves produced, so the estimator's caches see a base plan
    that keeps changing.
    """
    graph, workload, cluster = figure13_setup()
    options = allocation_options(graph, workload, cluster)
    fast = RuntimeEstimator(graph, workload, cluster)
    oracle = PrePREstimator(graph, workload, cluster)
    plan = MCMCSearcher(
        graph, workload, cluster, estimator=fast, options=options
    ).greedy_initial_plan()
    for call_name, alloc in random_moves(graph, options, 100, seed=1):
        fast_cost = fast.cost_delta(plan, call_name, alloc)
        oracle_cost = oracle.cost(plan.with_assignment(call_name, alloc))
        assert fast_cost == oracle_cost, (
            f"cost_delta disagrees with the oracle for {call_name}: "
            f"{fast_cost!r} != {oracle_cost!r}"
        )
        plan = plan.with_assignment(call_name, alloc)
