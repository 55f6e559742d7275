"""Tests for the plan server, warm starts and service routing."""

from __future__ import annotations

import time

import pytest

from repro.cluster import make_cluster
from repro.core import SearchConfig, call_cost, instructgpt_workload
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
    svc = PlanService()
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
    def test_duplicate_submissions_are_cache_hits(self, service):
        request = _request(max_iterations=200)
        futures = [service.submit(request) for _ in range(3)]
        # Requests are served on the caller's thread: every future is done.
        assert all(future.done() for future in futures)
        responses = [future.result() for future in futures]
        assert [r.stats.outcome for r in responses] == ["cold", "hit", "hit"]
        assert len({r.cost for r in responses}) == 1
        # Only one search actually ran.
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == 2

    def test_search_errors_are_set_on_the_future(self, service):
        # A 70B actor fits on a single GPU at no parallelization.
        request = PlanRequest(
            graph=_request().graph,
            workload=instructgpt_workload("70b", "70b", batch_size=512),
            cluster=make_cluster(1),
            search=SearchConfig(max_iterations=10, time_budget_s=30.0, seed=0),
        )
        future = service.submit(request)
        assert future.done()
        with pytest.raises(ValueError):
            future.result()

    def test_submit_after_shutdown_raises(self):
        svc = PlanService()
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

        cold = PlanService(warm_start=False)
        try:
            cold_response = cold.plan(perturbed)
        finally:
            cold.shutdown()

        warm = PlanService(warm_start=True)
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
        svc = PlanService()
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
        with PlanService() as svc:
            requests = [
                _request(batch_size=128, max_iterations=80),
                _request(batch_size=192, max_iterations=80),
                _request(batch_size=128, max_iterations=80),
                _request(batch_size=192, max_iterations=80),
            ]
            futures = [svc.submit(request) for request in requests]
            responses = [future.result() for future in futures]
            assert len(responses) == 4
            assert responses[0].cost == responses[2].cost
            assert responses[1].cost == responses[3].cost
            stats = svc.stats
            # Duplicates were cache hits, never a second search.
            assert stats.cache_misses == 2
            assert stats.cache_hits == 2

    def test_seed_plan_can_only_improve_the_start(self):
        from repro.baselines import build_heuristic_plan
        from repro.core import MCMCSearcher

        request = _request()
        hint = build_heuristic_plan(request.graph, request.workload, request.cluster)
        config = SearchConfig(max_iterations=0, time_budget_s=30.0, seed=0)
        problem = (request.graph, request.workload, request.cluster)
        cold = MCMCSearcher(*problem, config=config).search()
        hinted = MCMCSearcher(*problem, config=config, seed_plans=[hint]).search()
        # With a zero budget the result is the best starting candidate, so
        # the hint can only improve (here: strictly, greedy plans OOM).
        assert hinted.best_cost <= cold.best_cost


class TestEstimatorSharing:
    """Requests that pose one search problem share it and its estimator."""

    def test_same_workload_different_budget_shares_estimator(self, service):
        # Different search seeds -> different fingerprints (both are cold
        # searches) but the same search problem -> one shared problem.
        first = _request(max_iterations=50, seed=0)
        second = _request(max_iterations=50, seed=1)
        assert first.fingerprint().key != second.fingerprint().key
        assert first.fingerprint().problem_key == second.fingerprint().problem_key
        service.plan(first)
        (problem,) = service._problems.values()
        service.plan(second)
        assert (service.stats.problem_builds, service.stats.problem_reuses) == (1, 1)
        assert list(service._problems.values()) == [problem]

    def test_different_workloads_use_distinct_estimators(self, service):
        service.plan(_request(batch_size=128, max_iterations=50))
        service.plan(_request(batch_size=256, max_iterations=50))
        assert (service.stats.problem_builds, service.stats.problem_reuses) == (2, 0)
        first, second = service._problems.values()
        assert first.estimator is not second.estimator

    def test_lru_of_one_rebuilds_on_every_switch(self):
        """Alternating two problems through a one-problem memo rebuilds one
        on every switch, and every cost equals a fresh service's: a problem
        is a pure function of its key."""
        requests = [
            _request(batch_size=batch_size, max_iterations=50, seed=seed)
            for seed in (0, 1)
            for batch_size in (128, 256)
        ]
        with PlanService(warm_start=False, estimator_cache_size=1) as service:
            costs = [service.plan(request).cost for request in requests]
            assert (service.stats.problem_builds, service.stats.problem_reuses) == (4, 0)
            assert list(service._problems) == [requests[-1].fingerprint().problem_key]
        for request, cost in zip(requests, costs):
            with PlanService(warm_start=False) as fresh:
                assert fresh.plan(request).cost == cost

    def test_estimator_cache_size_validation(self):
        with pytest.raises(ValueError):
            PlanService(estimator_cache_size=0)


class TestCallShapePricing:
    """A service's estimators share one call-time table, keyed on content."""

    def test_identical_content_on_new_cluster_size_prices_nothing(self):
        with PlanService(warm_start=False) as service:
            service.plan(_request(n_gpus=16, max_iterations=50))
            baseline = service.stats.snapshot()
            assert baseline.call_shapes_priced > 0
            response = service.plan(_request(n_gpus=8, max_iterations=50))
            delta = service.stats.snapshot().delta(baseline)
        # A new problem and estimator, but every 8-GPU shape of these calls
        # was priced for the 16-GPU request.
        assert (delta.problem_builds, delta.problem_reuses) == (1, 0)
        assert delta.to_dict()["call_shapes_priced"] == 0
        with PlanService(warm_start=False) as fresh:
            assert fresh.plan(_request(n_gpus=8, max_iterations=50)).cost == response.cost

    def test_overfilled_table_stays_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(call_cost, "_MAX_CALL_COSTS", 4)
        with PlanService(warm_start=False) as bounded:
            response = bounded.plan(_request(max_iterations=50))
            table = bounded._call_costs
            assert len(table.times) <= 4 and len(table._tokens) <= 4
            assert bounded.stats.call_shapes_priced > 4
        monkeypatch.undo()
        with PlanService(warm_start=False) as unbounded:
            expected = unbounded.plan(_request(max_iterations=50))
        assert response.cost == expected.cost
        assert response.plan.to_dict() == expected.plan.to_dict()


class TestLifecycle:
    def test_close_is_idempotent_and_blocks_submissions(self):
        service = PlanService()
        service.close()
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(_request(max_iterations=10))

    def test_context_manager_closes(self):
        with PlanService() as service:
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
