"""Fleet trace generation and the capacity what-if grid."""

import json

import pytest

from repro.capacity import (
    DEFAULT_JOB_TYPES,
    CapacityCandidate,
    FleetJobType,
    FleetTraceConfig,
    capacity_whatif,
    fleet_scheduler_config,
    generate_fleet_trace,
)
from repro.capacity.whatif import CandidateOutcome, _pareto_frontier
from repro.service import PlanService

TINY_TRACE = FleetTraceConfig(n_jobs=8, horizon_s=600.0, seed=3)


class TestFleetTraceGenerator:
    def test_deterministic(self):
        first = generate_fleet_trace(TINY_TRACE)
        second = generate_fleet_trace(TINY_TRACE)
        assert first == second

    def test_different_seeds_differ(self):
        a = generate_fleet_trace(FleetTraceConfig(n_jobs=8, horizon_s=600.0, seed=0))
        b = generate_fleet_trace(FleetTraceConfig(n_jobs=8, horizon_s=600.0, seed=1))
        assert [s.arrival_time for s in a] != [s.arrival_time for s in b]

    def test_trace_shape(self):
        jobs = generate_fleet_trace(FleetTraceConfig(n_jobs=50, horizon_s=3600.0))
        assert len(jobs) == 50
        names = [spec.name for spec in jobs]
        assert len(set(names)) == len(names)
        arrivals = [spec.arrival_time for spec in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0
        by_type = {jtype.name: jtype for jtype in DEFAULT_JOB_TYPES}
        for spec in jobs:
            jtype = by_type[spec.name.rsplit("-", 1)[0]]
            low, high = jtype.iterations
            assert low <= spec.target_iterations <= high
            assert spec.min_gpus == jtype.min_gpus

    def test_mix_respects_weights_roughly(self):
        jobs = generate_fleet_trace(FleetTraceConfig(n_jobs=400, horizon_s=86400.0))
        small = sum(1 for spec in jobs if spec.name.startswith("ppo-small"))
        large = sum(1 for spec in jobs if spec.name.startswith("ppo-large"))
        assert small > large

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetTraceConfig(n_jobs=0)
        with pytest.raises(ValueError):
            FleetTraceConfig(horizon_s=0.0)
        with pytest.raises(ValueError):
            FleetTraceConfig(job_types=())
        with pytest.raises(ValueError):
            FleetJobType(name="bad", iterations=(5, 2))
        with pytest.raises(ValueError):
            FleetJobType(name="bad", weight=0.0)

    def test_fleet_scheduler_preset(self):
        config = fleet_scheduler_config()
        assert config.timeline is False
        assert config.counter_interval_s == 600.0
        assert config.elastic is False
        assert config.search.record_history is False


class TestParetoFrontier:
    def _outcome(self, name, cost, throughput):
        return CandidateOutcome(
            name=name, n_gpus=8, gpus_per_node=8, policy="first_fit",
            cost_per_gpu_hour=2.0, n_jobs=1, n_skipped=0, n_completed=1,
            total_iterations=1.0, makespan_s=1.0, gpu_utilization=1.0,
            provisioned_gpu_hours=1.0, provisioned_cost=cost,
            iterations_per_hour=throughput, cost_per_1k_iterations=1.0,
            n_events=1, wall_seconds=1.0, events_per_sec=1.0,
        )

    def test_dominated_candidate_excluded(self):
        cheap_fast = self._outcome("cheap-fast", cost=10.0, throughput=100.0)
        pricey_slow = self._outcome("pricey-slow", cost=20.0, throughput=50.0)
        pricey_fast = self._outcome("pricey-fast", cost=20.0, throughput=200.0)
        frontier = _pareto_frontier([cheap_fast, pricey_slow, pricey_fast])
        assert frontier == ["cheap-fast", "pricey-fast"]

    def test_ties_both_survive(self):
        a = self._outcome("a", cost=10.0, throughput=100.0)
        b = self._outcome("b", cost=10.0, throughput=100.0)
        assert _pareto_frontier([a, b]) == ["a", "b"]


class TestCapacityWhatIf:
    @pytest.fixture(scope="class")
    def report(self):
        jobs = generate_fleet_trace(TINY_TRACE)
        candidates = [
            CapacityCandidate(name="32g", n_gpus=32),
            CapacityCandidate(name="64g", n_gpus=64),
            CapacityCandidate(name="64g-spot", n_gpus=64, cost_per_gpu_hour=1.2),
        ]
        with PlanService(estimator_cache_size=32) as service:
            return capacity_whatif(jobs, candidates, service=service)

    def test_every_candidate_has_an_outcome(self, report):
        assert [o.name for o in report.outcomes] == ["32g", "64g", "64g-spot"]
        assert report.n_jobs == TINY_TRACE.n_jobs
        for outcome in report.outcomes:
            assert outcome.n_completed == outcome.n_jobs
            assert outcome.total_iterations > 0
            assert outcome.makespan_s > 0
            assert outcome.provisioned_cost > 0
            assert outcome.n_events > 0

    def test_frontier_is_nonempty_subset(self, report):
        names = {o.name for o in report.outcomes}
        assert report.frontier
        assert set(report.frontier) <= names

    def test_spot_pricing_dominates_on_demand_twin(self, report):
        # Identical cluster and replay, lower $/GPU-hour: the on-demand twin
        # is dominated and must be off the frontier.
        outcomes = {outcome.name: outcome for outcome in report.outcomes}
        on_demand, spot = outcomes["64g"], outcomes["64g-spot"]
        assert spot.makespan_s == on_demand.makespan_s
        assert spot.provisioned_cost < on_demand.provisioned_cost
        assert "64g" not in report.frontier
        assert "64g-spot" in report.frontier

    def test_report_round_trips_through_json(self, report, tmp_path):
        path = report.save(tmp_path / "frontier.json")
        payload = json.loads(path.read_text())
        assert payload["frontier"] == list(report.frontier)
        assert len(payload["candidates"]) == 3
        assert payload["candidates"][0]["name"] == "32g"

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            capacity_whatif([], [])
        with pytest.raises(ValueError, match="unique"):
            capacity_whatif(
                [],
                [CapacityCandidate(name="x", n_gpus=8),
                 CapacityCandidate(name="x", n_gpus=16)],
            )
        with pytest.raises(ValueError):
            CapacityCandidate(name="", n_gpus=8)
        with pytest.raises(ValueError):
            CapacityCandidate(name="x", n_gpus=0)

    def test_too_small_cluster_skips_big_jobs(self):
        jobs = generate_fleet_trace(FleetTraceConfig(n_jobs=12, horizon_s=600.0, seed=5))
        assert any(spec.min_gpus > 8 for spec in jobs), "seed must draw a big job"
        with PlanService(estimator_cache_size=32) as service:
            report = capacity_whatif(
                jobs, [CapacityCandidate(name="8g", n_gpus=8)], service=service
            )
        (outcome,) = report.outcomes
        assert outcome.n_skipped > 0
        assert outcome.n_jobs + outcome.n_skipped == len(jobs)


class TestCoreApiWiring:
    def test_capacity_whatif_exported_and_saves_report(self, tmp_path):
        from repro.core import api

        assert "capacity_whatif" in api.__all__
        jobs = generate_fleet_trace(FleetTraceConfig(n_jobs=4, horizon_s=300.0, seed=2))
        path = tmp_path / "report.json"
        report = api.capacity_whatif(
            jobs,
            [CapacityCandidate(name="32g", n_gpus=32)],
            report_path=str(path),
        )
        assert path.exists()
        assert json.loads(path.read_text())["frontier"] == list(report.frontier)
