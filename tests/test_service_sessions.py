"""Tests for online plan sessions on the service and the cache staleness hook."""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.algorithms import build_ppo_graph
from repro.cluster import make_cluster
from repro.core import ExecutionPlan, SearchConfig, instructgpt_workload
from repro.obs.metrics import MetricsRegistry
from repro.service import PlanCache, PlanCacheEntry, PlanRequest, PlanService


def _request(batch_size=128, n_gpus=8, max_iterations=40, seed=0):
    return PlanRequest(
        graph=build_ppo_graph(),
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


class TestSessionLifecycle:
    def test_start_poll_stop_roundtrip(self, service):
        request = _request()
        handle = service.start_session(request, slice_iterations=10)
        assert not handle.closed
        assert service.stats.sessions_started == 1

        progress = handle.poll()
        assert (progress.n_iterations, progress.new_iterations) == (10, 10)
        assert service._sessions[handle.session_id] is handle
        assert service.stats.session_polls == 1

        while not handle.done:
            handle.poll()
        response = service.stop_session(handle.session_id)
        assert handle.closed
        assert response.cost == handle.session.best_cost
        assert response.plan.assignments == handle.best_so_far()[0].assignments
        assert response.stats.fingerprint == request.fingerprint().key
        assert response.result.n_iterations == 40

    def test_session_matches_blocking_search(self, service):
        """A drained session serves exactly what submit() would have."""
        request = _request(seed=7)
        handle = service.start_session(request, slice_iterations=13)
        while not handle.done:
            handle.poll()
        session_response = service.stop_session(handle.session_id)

        with PlanService() as fresh:
            blocking = fresh.plan(request)
        assert session_response.cost == blocking.cost
        assert session_response.plan.to_dict() == blocking.plan.to_dict()

    def test_stop_session_unregisters_the_id(self, service):
        handle = service.start_session(_request(), slice_iterations=5)
        assert handle.poll().n_iterations == 5
        response = service.stop_session(handle.session_id)
        assert response is handle.stop()
        with pytest.raises(KeyError):
            service.stop_session(handle.session_id)

    def test_stop_is_idempotent(self, service):
        handle = service.start_session(_request(), slice_iterations=5)
        first = handle.stop()
        assert handle.stop() is first
        with pytest.raises(RuntimeError):
            handle.poll()

    def test_shutdown_settles_open_sessions(self):
        service = PlanService()
        handle = service.start_session(_request(), slice_iterations=5)
        handle.poll()
        service.shutdown()
        assert handle.closed
        with pytest.raises(KeyError):
            service.stop_session(handle.session_id)
        with pytest.raises(RuntimeError):
            service.start_session(_request())

    def test_session_seeded_from_cached_entry(self, service):
        """A session never starts worse than the cache already knows."""
        request = _request(seed=11, max_iterations=300)
        cached = service.plan(request)
        handle = service.start_session(request, slice_iterations=10)
        _, cost = handle.best_so_far()
        assert cost <= cached.cost
        service.stop_session(handle.session_id)

    def test_caller_seed_plans_follow_the_service_seeds(self, service):
        """``start_session(seed_plans=)`` seeds after the exact and warm seeds:
        a cheaper caller plan starts the chain, and among equal costs the
        earliest seed wins."""
        from repro.core import MCMCSearcher

        request = _request(seed=5, max_iterations=20)
        service.plan(_request(batch_size=192, seed=5, max_iterations=20))
        exact = service.plan(request).plan
        better = MCMCSearcher(
            request.graph, request.workload, request.cluster,
            config=SearchConfig(max_iterations=400, seed=6, record_history=False),
        ).search().best_plan
        twin = ExecutionPlan(better.assignments, name="twin")

        def start(*seed_plans):
            # Left open: a stop would write ``better`` back as the exact seed.
            handle = service.start_session(request, slice_iterations=1, seed_plans=seed_plans)
            return handle, handle.session.result().initial_plan

        handle, initial = start(better, twin)
        seeds = handle.session.searcher.seed_plans
        assert handle.warm_started and len(seeds) == 4
        assert seeds[0] is exact and seeds[2:] == [better, twin]
        cost = lambda plan: handle.estimator.cost(plan, request.search.oom_penalty)
        greedy = handle.session.searcher.greedy_initial_plan()
        assert cost(better) < min(cost(plan) for plan in (greedy, *seeds[:2]))
        assert initial is better
        assert start(twin, better)[1] is twin
        copy = ExecutionPlan(exact.assignments, name="copy")
        assert start(copy)[1] is not copy


class TestBilling:
    def test_session_bills_init_plus_chain_time(self, service):
        handle = service.start_session(_request(), slice_iterations=10)
        progress = handle.poll()
        session = handle.session
        response = handle.stop()
        # Stopping runs no slice: the bill is init plus the polled chain time.
        assert response.stats.search_seconds == (
            session.init_seconds + progress.wall_seconds
        )
        result = response.result
        assert result.init_seconds > 0
        assert response.stats.search_seconds == result.init_seconds + sum(
            result.chain_wall_seconds
        )

    def test_service_sums_blocking_and_session_responses(self, service):
        responses = [service.plan(_request(seed=1))]
        handle = service.start_session(_request(seed=2), slice_iterations=10)
        handle.poll()
        responses.append(service.stop_session(handle.session_id))
        responses.append(service.plan(_request(seed=1)))  # a hit bills nothing
        responses.append(service.plan(_request(batch_size=64, seed=3)))
        assert responses[2].stats.cache_hit
        assert service.stats.search_seconds == pytest.approx(
            sum(r.stats.search_seconds for r in responses), rel=1e-12
        )

    def test_registry_counter_bills_blocking_and_session_alike(self):
        registry = MetricsRegistry()
        with PlanService(registry=registry) as service:
            blocking = service.plan(_request(seed=1))
            result = blocking.result
            assert blocking.stats.search_seconds == result.init_seconds + sum(
                result.chain_wall_seconds
            )
            handle = service.start_session(_request(seed=2), slice_iterations=10)
            handle.poll()
            service.stop_session(handle.session_id)
            service.plan(_request(seed=1))  # a hit bills nothing
            service.plan(_request(batch_size=64, seed=3))
            drained = service.start_session(_request(batch_size=64, seed=4))
            while not drained.done:
                drained.poll()
            service.stop_session(drained.session_id)
            counter = registry.get("service_search_seconds_total")
            assert service.stats.search_seconds > 0
            assert counter.value == service.stats.search_seconds


class TestProblemSharing:
    def test_live_session_shares_its_problem(self, service):
        handle = service.start_session(_request(seed=1), slice_iterations=10)
        # Another seed and budget: a different request, the same problem.
        blocking = service.plan(_request(seed=2, max_iterations=30))
        second = service.start_session(_request(seed=3), slice_iterations=10)
        assert second.session.searcher.problem is handle.session.searcher.problem
        assert service.stats.problem_builds == 1
        assert service.stats.problem_reuses == 2
        with PlanService() as fresh:
            assert fresh.plan(_request(seed=2, max_iterations=30)).cost == blocking.cost

    def test_session_outlives_its_evicted_problem(self):
        """A session keeps searching a problem the memo evicted, and settles
        on what a fresh service's session finds."""
        with PlanService(warm_start=False, estimator_cache_size=1) as service:
            handle = service.start_session(_request(seed=1), slice_iterations=10)
            service.plan(_request(batch_size=64, seed=2))
            assert handle.fingerprint.problem_key not in service._problems
            while not handle.done:
                handle.poll()
            response = service.stop_session(handle.session_id)
            service.start_session(_request(seed=3), slice_iterations=10)
            assert (service.stats.problem_builds, service.stats.problem_reuses) == (3, 0)
        with PlanService(warm_start=False) as fresh:
            drained = fresh.start_session(_request(seed=1), slice_iterations=10)
            while not drained.done:
                drained.poll()
            assert fresh.stop_session(drained.session_id).cost == response.cost

    def test_evicted_problem_keeps_its_eval_cache_counts(self):
        """The eval-cache gauges count every estimator the service built,
        also one whose problem the memo has evicted."""
        registry = MetricsRegistry()
        with PlanService(estimator_cache_size=1, registry=registry) as service:
            handle = service.start_session(
                _request(seed=1, max_iterations=100), slice_iterations=10
            )
            while not handle.done:
                handle.poll()
            service.stop_session(handle.session_id)
            registry.collect()
            # One cost() of the greedy start plus one cost_delta per proposal.
            assert registry.get("service_eval_cache_lookups").value == 101
            # Another workload evicts the session's problem; its search adds
            # one cost() of the warm-start plan on top.
            service.plan(_request(batch_size=64, max_iterations=100, seed=2))
            assert handle.fingerprint.problem_key not in service._problems
            registry.collect()
            assert registry.get("service_eval_cache_lookups").value == 203

    def test_threads_share_problems_without_changing_outcomes(self):
        """More client threads than cores pose one problem at once.  Warm
        starts are off: which cached plan seeds a search would otherwise
        depend on thread order."""
        service = PlanService(warm_start=False)
        seeds = range(6)
        sessions = [
            service.start_session(_request(seed=100 + i), slice_iterations=10)
            for i in range(2)
        ]
        costs = {}

        def client(seed):
            costs[seed] = service.plan(_request(seed=seed, max_iterations=20)).cost

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(s,)) for s in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = service.stats
        assert stats.problem_builds + stats.problem_reuses == len(seeds) + len(sessions)
        # Every store into the shared call-time table is counted: a lost
        # update would leave fewer counts than stored entries.
        assert stats.call_shapes_priced == service._call_costs.priced
        assert service._call_costs.priced >= len(service._call_costs.times) > 0
        assert stats.problem_reuses >= len(seeds)
        with PlanService(warm_start=False) as fresh:
            for seed in seeds:
                assert costs[seed] == fresh.plan(_request(seed=seed, max_iterations=20)).cost
        service.close()

    def test_session_after_blocking_search_reuses_its_problem(self, service):
        # The blocking search's response is dropped at once: the service
        # itself holds the problem until the session poses it again.
        service.plan(_request(seed=1))
        gc.collect()
        handle = service.start_session(_request(seed=2), slice_iterations=10)
        assert (service.stats.problem_builds, service.stats.problem_reuses) == (1, 1)
        (problem,) = service._problems.values()
        assert handle.session.searcher.problem is problem
        service.stop_session(handle.session_id)

    def test_counters_carry_through_delta_and_dict(self, service):
        handle = service.start_session(_request(seed=1), slice_iterations=10)
        baseline = service.stats.snapshot()
        service.plan(_request(seed=2))
        delta = service.stats.snapshot().delta(baseline)
        assert (delta.problem_builds, delta.problem_reuses) == (0, 1)
        data = delta.to_dict()
        assert (data["problem_builds"], data["problem_reuses"]) == (0, 1)
        service.stop_session(handle.session_id)


class TestCacheRefresh:
    def _entry(self, key="k", best_cost=1.0):
        return PlanCacheEntry(
            key=key,
            family="f",
            features={},
            plan=ExecutionPlan({}),
            best_cost=best_cost,
            initial_cost=2.0,
            peak_memory_bytes=1.0,
        )

    def test_refresh_inserts_missing_key(self):
        cache = PlanCache()
        assert cache.refresh(self._entry(best_cost=1.0))
        assert cache.peek("k").best_cost == 1.0

    def test_refresh_only_replaces_worse_entries(self):
        cache = PlanCache()
        cache.put(self._entry(best_cost=1.0))
        assert not cache.refresh(self._entry(best_cost=1.0))  # ties keep old
        assert not cache.refresh(self._entry(best_cost=1.5))
        assert cache.peek("k").best_cost == 1.0
        assert cache.refresh(self._entry(best_cost=0.5))
        assert cache.peek("k").best_cost == 0.5

    def test_improving_session_refreshes_worse_cached_entry(self, service):
        """The staleness hook: a pre-seeded worse entry gets replaced."""
        request = _request(seed=3, max_iterations=60)
        fingerprint = request.fingerprint()
        # Pre-populate the exact key with an absurdly bad cached plan (the
        # greedy initial re-costed with an inflated best_cost).
        probe = service.start_session(request, slice_iterations=1)
        plan, cost = probe.best_so_far()
        probe.stop()
        service.cache.put(
            PlanCacheEntry(
                key=fingerprint.key,
                family=fingerprint.family,
                features=dict(fingerprint.features),
                plan=plan,
                best_cost=cost * 100.0,
                initial_cost=cost * 100.0,
                peak_memory_bytes=1.0,
            )
        )
        before = service.stats.cache_refreshes
        handle = service.start_session(request, slice_iterations=20)
        while not handle.done:
            handle.poll()
        response = service.stop_session(handle.session_id)
        assert service.stats.cache_refreshes > before
        entry = service.cache.peek(fingerprint.key)
        assert entry.best_cost == response.cost
        assert entry.best_cost < cost * 100.0
