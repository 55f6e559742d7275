"""Tests for online plan sessions on the service and the cache staleness hook."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.algorithms import build_ppo_graph
from repro.cluster import make_cluster
from repro.core import ExecutionPlan, SearchConfig, instructgpt_workload
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
        assert service.active_sessions == [handle.session_id]
        assert service.stats.sessions_started == 1

        status = handle.poll()
        assert status.n_iterations == 10
        assert status.session_id == handle.session_id
        assert service.stats.session_polls == 1

        while not handle.done:
            handle.poll()
        response = service.stop_session(handle.session_id)
        assert service.active_sessions == []
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

    def test_poll_session_and_get_session(self, service):
        handle = service.start_session(_request(), slice_iterations=5)
        assert service.get_session(handle.session_id) is handle
        status = service.poll_session(handle.session_id)
        assert status.n_iterations == 5
        service.stop_session(handle.session_id)
        with pytest.raises(KeyError):
            service.get_session(handle.session_id)

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
        assert service.active_sessions == []
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


class TestBilling:
    def test_session_bills_init_plus_chain_time(self, service):
        handle = service.start_session(_request(), slice_iterations=10)
        status = handle.poll()
        session = handle.session
        assert status.search_seconds == session.init_seconds + sum(
            state.wall_seconds for state in session.states
        )
        response = handle.stop()
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

    def test_problem_dies_with_its_last_searcher(self, service):
        service.plan(_request(seed=1))
        service.plan(_request(seed=2))
        assert service.stats.problem_builds == 2
        assert service.stats.problem_reuses == 0
        assert service.stats.estimator_reuses == 1
        assert len(service._problems) == 0

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

    def test_kept_problem_outlives_its_search_for_a_session(self, service):
        # By default a response does not keep its problem alive.
        assert service.plan(_request(seed=1)).problem is None
        assert len(service._problems) == 0
        kept = service.submit(_request(seed=2), keep_problem=True).result()
        assert kept.problem is not None and not kept.stats.cache_hit
        handle = service.start_session(_request(seed=3), slice_iterations=10)
        assert handle.problem is kept.problem
        assert (service.stats.problem_builds, service.stats.problem_reuses) == (2, 1)
        # A hit searched nothing: there is no problem to keep.
        assert service.submit(_request(seed=2), keep_problem=True).result().problem is None
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
