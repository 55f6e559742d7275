"""The fleet-scale scheduler recording fields.

``SchedulerConfig.timeline`` and ``counter_interval_s`` only drop recording
overhead; these tests assert they never change scheduling outcomes.
"""

import random

import pytest

from repro.cluster import make_cluster
from repro.core import SearchConfig
from repro.sched import (
    ClusterScheduler,
    JobSpec,
    SchedulerConfig,
)
from repro.service import PlanService

TINY_SEARCH = SearchConfig(max_iterations=25, time_budget_s=0.5, record_history=False)


def _random_trace(seed: int, n_jobs: int = 5):
    """A small seed-deterministic mixed trace (algorithms, sizes, arrivals)."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n_jobs):
        elastic = rng.random() < 0.5
        jobs.append(
            JobSpec(
                name=f"j{seed}-{i}",
                algorithm=rng.choice(("ppo", "grpo", "dpo")),
                batch_size=rng.choice((64, 128)),
                target_iterations=rng.randint(2, 4),
                min_gpus=8,
                max_gpus=16 if elastic else 8,
                priority=rng.choice((0, 0, 1)),
                arrival_time=round(rng.uniform(0.0, 30.0), 3),
            )
        )
    return jobs


@pytest.fixture(scope="module")
def shared_service():
    """One warm service for every run: same shapes hit the cache."""
    with PlanService(max_workers=4, estimator_cache_size=32) as service:
        yield service


class TestTimelineKnob:
    def _run(self, config, service):
        scheduler = ClusterScheduler(
            cluster=make_cluster(16),
            jobs=_random_trace(3, n_jobs=3),
            policy="first_fit",
            config=config,
            service=service,
        )
        return scheduler, scheduler.run()

    def test_timeline_off_records_nothing_but_schedules_identically(
        self, shared_service
    ):
        _on_sched, on = self._run(
            SchedulerConfig(search=TINY_SEARCH, timeline=True), shared_service
        )
        _off_sched, off = self._run(
            SchedulerConfig(search=TINY_SEARCH, timeline=False), shared_service
        )
        assert on.timeline, "baseline run should record a timeline"
        assert off.timeline == []
        # Recording is observability only: the schedule itself is unchanged.
        on_dict, off_dict = on.to_dict(), off.to_dict()
        on_dict.pop("timeline", None)
        off_dict.pop("timeline", None)
        # Wall-clock search stats may differ between runs; compare the
        # virtual-time outcome per job.
        assert on.all_completed and off.all_completed
        assert [m.to_dict() for m in on.jobs] == [m.to_dict() for m in off.jobs]
        assert on.makespan == off.makespan
        assert on.total_iterations == off.total_iterations


class TestCounterIntervalKnob:
    def test_interval_throttles_samples(self, shared_service):
        def run(interval):
            scheduler = ClusterScheduler(
                cluster=make_cluster(16),
                jobs=_random_trace(4, n_jobs=3),
                policy="first_fit",
                config=SchedulerConfig(
                    search=TINY_SEARCH, counter_interval_s=interval
                ),
                service=shared_service,
            )
            report = scheduler.run()
            assert report.all_completed
            return scheduler._counter_samples

        dense = run(0.0)
        sparse = run(1e9)
        assert len(dense) > 1
        # A huge interval keeps only the very first dirty-timestamp sample.
        assert len(sparse) == 1
        assert len(sparse) < len(dense)

