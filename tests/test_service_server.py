"""Tests for the concurrent plan server, warm starts and service routing."""

from __future__ import annotations

import time

import pytest

from repro.baselines import RealSystem
from repro.cluster import make_cluster
from repro.core import SearchConfig, find_execution_plan, instructgpt_workload
from repro.experiments import ExperimentSetting, run_comparison
from repro.service import (
    PlanRequest,
    PlanService,
    select_warm_start,
)


def _request(batch_size=128, n_gpus=8, max_iterations=300, seed=0, graph=None):
    from repro.algorithms import build_ppo_graph

    graph = graph if graph is not None else build_ppo_graph()
    return PlanRequest(
        graph=graph,
        workload=instructgpt_workload("7b", "7b", batch_size=batch_size),
        cluster=make_cluster(n_gpus),
        search=SearchConfig(
            max_iterations=max_iterations,
            time_budget_s=30.0,
            seed=seed,
            record_history=False,
        ),
    )


@pytest.fixture()
def service():
    svc = PlanService(max_workers=2)
    yield svc
    svc.shutdown()


class TestCacheHits:
    def test_second_identical_request_is_10x_faster(self, service):
        request = _request(max_iterations=400)
        start = time.perf_counter()
        first = service.plan(request)
        miss_seconds = time.perf_counter() - start

        start = time.perf_counter()
        second = service.plan(request)
        hit_seconds = time.perf_counter() - start

        assert not first.stats.cache_hit and second.stats.cache_hit
        assert second.cost == first.cost
        assert second.plan.assignments == first.plan.assignments
        # The cached answer must be at least 10x faster than the search.
        assert miss_seconds >= 10.0 * hit_seconds
        assert service.stats.cache_hits == 1 and service.stats.cache_misses == 1
        assert service.stats.hit_rate == pytest.approx(0.5)

    def test_hit_serves_the_cached_plan_object(self, service):
        request = _request(max_iterations=60)
        first = service.plan(request)
        second = service.plan(request)
        assert second.stats.cache_hit
        assert second.plan is first.plan
        handle = service.start_session(request, slice_iterations=10)
        assert handle.session.searcher.seed_plans[0] is first.plan
        service.stop_session(handle.session_id)

    def test_hit_reconstructs_search_result(self, service):
        request = _request(max_iterations=120)
        first = service.plan(request)
        second = service.plan(request)
        assert second.result.best_cost == first.result.best_cost
        assert second.result.initial_cost == first.result.initial_cost
        assert second.result.n_iterations == first.result.n_iterations

    def test_different_requests_do_not_collide(self, service):
        a = service.plan(_request(batch_size=128, max_iterations=80))
        b = service.plan(_request(batch_size=192, max_iterations=80))
        assert service.stats.cache_hits == 0
        assert a.stats.fingerprint != b.stats.fingerprint


class TestDeduplication:
    def test_inflight_duplicates_share_one_search(self, service):
        request = _request(max_iterations=1200)
        futures = [service.submit(request) for _ in range(3)]
        responses = [future.result() for future in futures]
        assert service.stats.dedup_joins == 2
        assert sum(r.stats.dedup_joined for r in responses) == 2
        assert len({r.cost for r in responses}) == 1
        # Only one search actually ran.
        assert service.stats.cache_misses == 1

    def test_submit_after_shutdown_raises(self):
        svc = PlanService(max_workers=1)
        svc.shutdown()
        with pytest.raises(RuntimeError):
            svc.submit(_request(max_iterations=10))


class TestWarmStart:
    def test_warm_start_no_worse_than_cold_on_same_budget(self):
        budget = SearchConfig(
            max_iterations=150, time_budget_s=30.0, seed=0, record_history=False
        )
        perturbed = _request(batch_size=192)
        perturbed = PlanRequest(
            graph=perturbed.graph,
            workload=perturbed.workload,
            cluster=perturbed.cluster,
            search=budget,
        )

        cold = PlanService(max_workers=1, warm_start=False)
        try:
            cold_response = cold.plan(perturbed)
        finally:
            cold.shutdown()

        warm = PlanService(max_workers=1, warm_start=True)
        try:
            # Solve a *similar* workload first (larger budget, so the cached
            # plan is well optimized), then the perturbed one warm-starts.
            warm.plan(_request(batch_size=128, max_iterations=1000))
            warm_response = warm.plan(perturbed)
        finally:
            warm.shutdown()

        assert warm_response.stats.warm_started
        assert not cold_response.stats.warm_started
        assert warm_response.cost <= cold_response.cost

    def test_warm_start_across_cluster_sizes(self):
        svc = PlanService(max_workers=1)
        try:
            svc.plan(_request(batch_size=128, n_gpus=8, max_iterations=600))
            response = svc.plan(_request(batch_size=256, n_gpus=16, max_iterations=100))
        finally:
            svc.shutdown()
        assert response.stats.warm_started
        assert svc.stats.warm_starts == 1
        # The adapted seed lives on the 16-GPU cluster.
        for alloc in response.plan.assignments.values():
            assert alloc.mesh.cluster.n_gpus == 16

    def test_select_warm_start_prefers_similar_scale(self, service):
        service.plan(_request(batch_size=64, max_iterations=40))
        service.plan(_request(batch_size=256, max_iterations=40))
        fingerprint = _request(batch_size=224).fingerprint()
        chosen = select_warm_start(service.cache, fingerprint)
        assert chosen is not None
        assert chosen.features["batch_size"] == 256.0


class TestClientAndRouting:
    def test_client_batch_api_mixed_stream(self):
        with PlanService(max_workers=2) as svc:
            requests = [
                _request(batch_size=128, max_iterations=80),
                _request(batch_size=192, max_iterations=80),
                _request(batch_size=128, max_iterations=80),
                _request(batch_size=192, max_iterations=80),
            ]
            # Enqueue every request before awaiting the first response.
            futures = [svc.submit(request) for request in requests]
            responses = [future.result() for future in futures]
            assert len(responses) == 4
            assert responses[0].cost == responses[2].cost
            assert responses[1].cost == responses[3].cost
            stats = svc.stats
            # Duplicates were either cache hits or dedup joins, never a
            # second search.
            assert stats.cache_misses == 2
            assert stats.cache_hits + stats.dedup_joins == 2

    def test_find_execution_plan_routes_through_service(self):
        search = SearchConfig(max_iterations=80, time_budget_s=30.0, seed=0)
        with PlanService(max_workers=1) as svc:
            result_a, _ = find_execution_plan(
                "ppo", "7b", "7b", n_gpus=8, batch_size=128,
                search=search, service=svc,
            )
            result_b, experiment = find_execution_plan(
                "ppo", "7b", "7b", n_gpus=8, batch_size=128,
                search=search, service=svc,
            )
            assert svc.stats.cache_hits == 1
            assert result_b.best_cost == result_a.best_cost
            assert experiment.cluster.n_gpus == 8

    def test_real_system_reuses_service_across_evaluations(self):
        setting = ExperimentSetting("tiny", "7b", "7b", n_gpus=8, batch_size=64)
        search = SearchConfig(max_iterations=120, time_budget_s=30.0, seed=0)
        with PlanService(max_workers=1) as svc:
            system = RealSystem(search_config=search)
            run_comparison([setting], [system], plan_service=svc)
            assert svc.stats.cache_misses == 1
            run_comparison([setting], [system], plan_service=svc)
            assert svc.stats.cache_hits == 1
            assert system.last_result is not None
            # The grid borrows the service; the system is restored after,
            # so a later direct evaluation does not hit a shut-down service.
            assert system.plan_service is None

    def test_initial_plan_hook_in_search_execution_plan(self):
        from repro.core import search_execution_plan
        from repro.baselines import build_heuristic_plan

        request = _request()
        hint = build_heuristic_plan(request.graph, request.workload, request.cluster)
        config = SearchConfig(max_iterations=0, time_budget_s=30.0, seed=0)
        cold = search_execution_plan(
            request.graph, request.workload, request.cluster, config=config
        )
        hinted = search_execution_plan(
            request.graph, request.workload, request.cluster, config=config,
            initial_plan=hint,
        )
        # With a zero budget the result is the best starting candidate, so
        # the hint can only improve (here: strictly, greedy plans OOM).
        assert hinted.best_cost <= cold.best_cost


class TestEstimatorSharing:
    def test_same_workload_different_budget_shares_estimator(self, service):
        # Different search seeds -> different fingerprints (both are cold
        # searches) but the same estimation problem -> one shared estimator.
        first = _request(max_iterations=50, seed=0)
        second = _request(max_iterations=50, seed=1)
        assert first.fingerprint().key != second.fingerprint().key
        assert first.fingerprint().estimator_key == second.fingerprint().estimator_key
        service.plan(first)
        assert service.stats.estimator_reuses == 0
        service.plan(second)
        assert service.stats.estimator_reuses == 1
        assert len(service._estimators) == 1

    def test_different_workloads_use_distinct_estimators(self, service):
        service.plan(_request(batch_size=128, max_iterations=50))
        service.plan(_request(batch_size=256, max_iterations=50))
        assert service.stats.estimator_reuses == 0
        assert len(service._estimators) == 2

    def test_estimator_cache_size_validation(self):
        with pytest.raises(ValueError):
            PlanService(estimator_cache_size=0)


class TestLifecycle:
    def test_close_is_idempotent_and_blocks_submissions(self):
        service = PlanService(max_workers=1)
        service.close()
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(_request(max_iterations=10))

    def test_context_manager_closes(self):
        with PlanService(max_workers=1) as service:
            service.plan(_request(max_iterations=20))
        assert len(service.cache) == 1
        with pytest.raises(RuntimeError):
            service.submit(_request(max_iterations=10))

class TestServiceStatsDict:
    def test_to_dict_is_machine_readable(self, service):
        service.plan(_request(max_iterations=20))
        service.plan(_request(max_iterations=20))
        data = service.stats.snapshot().to_dict()
        assert data["requests"] == 2
        assert data["cache_hits"] == 1
        assert data["cache_misses"] == 1
        assert data["hit_rate"] == pytest.approx(0.5)
        assert isinstance(data["search_seconds"], float)


class TestFeasibility:
    def test_feasible_plan_reports_peak_memory(self, service):
        response = service.plan(_request(max_iterations=50))
        assert response.peak_memory_bytes > 0
        assert response.feasible
        # The cache hit carries the same verdict.
        hit = service.plan(_request(max_iterations=50))
        assert hit.stats.cache_hit
        assert hit.peak_memory_bytes == response.peak_memory_bytes
        assert hit.feasible

    def test_oom_plan_marked_infeasible(self, service):
        # A 70B actor on a single 8-GPU node cannot fit; with static-OOM
        # pruning disabled the search still returns a plan, which the
        # response must flag as infeasible.
        from repro.algorithms import build_ppo_graph
        from repro.core import PruneConfig

        request = PlanRequest(
            graph=build_ppo_graph(),
            workload=instructgpt_workload("70b", "7b", batch_size=512),
            cluster=make_cluster(8),
            search=SearchConfig(max_iterations=30, record_history=False),
            prune=PruneConfig(prune_static_oom=False),
        )
        response = service.plan(request)
        assert not response.feasible
        assert response.peak_memory_bytes >= request.cluster.device_memory_bytes
