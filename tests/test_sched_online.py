"""Tests for online re-planning in the scheduler: polls, hot swaps, traces."""

from __future__ import annotations

import json

import pytest

from repro.cluster import make_cluster
from repro.core import SearchConfig
from repro.sched import ClusterScheduler, JobSpec, SchedulerConfig
from repro.service import PlanService


def _specs(n=1, target_iterations=25):
    return [
        JobSpec(
            name=f"job-{i}",
            algorithm="grpo" if i % 2 else "ppo",
            batch_size=128,
            arrival_time=40.0 * i,
            target_iterations=target_iterations,
            min_gpus=8,
            max_gpus=8,
        )
        for i in range(n)
    ]


def _config(**overrides):
    """Tiny admission budget + generous online budget: swaps become likely."""
    defaults = dict(
        search=SearchConfig(
            max_iterations=20, time_budget_s=1.0, seed=0, record_history=False
        ),
        elastic=False,
        online_replanning=True,
        online_search=SearchConfig(
            max_iterations=600, time_budget_s=30.0, seed=0, record_history=False
        ),
        poll_interval_s=15.0,
        poll_iterations=150,
        swap_margin=1.0,
    )
    defaults.update(overrides)
    return SchedulerConfig(**defaults)


class TestOnlineReplanning:
    def test_run_completes_and_takes_swaps(self, tmp_path):
        trace_path = tmp_path / "TRACE_online.json"
        scheduler = ClusterScheduler(
            cluster=make_cluster(16),
            jobs=_specs(n=2),
            config=_config(),
            trace_path=str(trace_path),
        )
        report = scheduler.run()
        assert report.all_completed
        assert report.online_sessions >= 1
        assert report.n_search_polls >= 1
        # The tiny admission budget leaves headroom the generous background
        # budget finds: at least one swap must clear the margin.
        assert report.n_swaps >= 1
        assert report.swap_seconds_saved > 0
        swap_events = [e for e in report.timeline if e["event"] == "swap"]
        assert len(swap_events) == report.n_swaps
        # Swaps are visible in the merged Chrome trace as instant events.
        events = json.loads(trace_path.read_text())["traceEvents"]
        swap_instants = [
            e for e in events if e.get("ph") == "i" and e.get("cat") == "swap"
        ]
        assert len(swap_instants) == report.n_swaps
        # Sessions are settled by the end of the run.
        assert all(job.session is None for job in scheduler.jobs)
        assert scheduler.service._closed

    def test_sessions_and_searches_share_problems(self):
        # Jobs 0 and 2 (PPO) pose one problem on equal 8-GPU partitions.
        report = ClusterScheduler(
            cluster=make_cluster(16), jobs=_specs(n=3), config=_config()
        ).run()
        stats = report.service_stats
        assert stats["problem_reuses"] >= 1
        # Invariants only: a problem caught in a reference cycle lives until
        # the next collection, so exact counts could depend on GC timing.
        assert stats["problem_builds"] + stats["problem_reuses"] == (
            stats["cache_misses"] + stats["sessions_started"]
        )

    def test_sessions_never_rebuild_a_problem(self):
        """An admission search hands its problem to the placed job's session,
        and later jobs of the same kind and shape reuse it after an admission
        cache hit: one build per distinct problem.  (A problem kept alive
        longer by a reference cycle only adds reuses, never builds.)"""
        service = PlanService()
        keys = []
        problem_for = service._problem_for

        def recording(request, fingerprint):
            keys.append(fingerprint.problem_key)
            return problem_for(request, fingerprint)

        service._problem_for = recording
        report = ClusterScheduler(
            cluster=make_cluster(16), jobs=_specs(n=3), config=_config(), service=service
        ).run()
        stats = report.service_stats
        assert stats["sessions_started"] > len(set(keys))
        assert stats["problem_builds"] == len(set(keys))
        service.close()

    def test_swap_refreshes_planned_throughput(self):
        """After a hot swap the resize baseline reflects the new plan."""
        scheduler = ClusterScheduler(
            cluster=make_cluster(16), jobs=_specs(n=1), config=_config()
        )
        swapped = {}
        original = scheduler._maybe_swap

        def spy(job, time):
            before = job.planned_seconds_per_iteration
            taken = original(job, time)
            if taken and "planned" not in swapped:
                swapped["planned"] = (before, job.planned_seconds_per_iteration)
            return taken

        scheduler._maybe_swap = spy
        report = scheduler.run()
        assert report.all_completed
        assert report.n_swaps >= 1
        before, after = swapped["planned"]
        assert after < before

    def test_disabled_by_default(self):
        config = SchedulerConfig(
            search=SearchConfig(
                max_iterations=20, time_budget_s=1.0, seed=0, record_history=False
            ),
            elastic=False,
        )
        assert not config.online_replanning
        scheduler = ClusterScheduler(
            cluster=make_cluster(16), jobs=_specs(n=1, target_iterations=5),
            config=config,
        )
        report = scheduler.run()
        assert report.all_completed
        assert report.online_sessions == 0
        assert report.n_search_polls == 0
        assert report.n_swaps == 0

    def test_margin_gates_swaps(self):
        """An absurd margin rejects every candidate swap."""
        scheduler = ClusterScheduler(
            cluster=make_cluster(16),
            jobs=_specs(n=1),
            config=_config(swap_margin=100.0),
        )
        report = scheduler.run()
        assert report.all_completed
        assert report.n_swaps == 0
        # The background search still ran and found improvements to reject.
        assert report.n_search_polls >= 1
        assert report.n_swaps_rejected >= 1

    def test_online_report_fields_serialize(self):
        scheduler = ClusterScheduler(
            cluster=make_cluster(16), jobs=_specs(n=1), config=_config()
        )
        report = scheduler.run()
        data = report.to_dict()
        for key in (
            "n_swaps", "n_search_polls", "n_swaps_rejected",
            "swap_seconds_saved", "online_sessions",
        ):
            assert key in data
        assert data["n_swaps"] == sum(j["n_swaps"] for j in data["jobs"])
        assert "swaps" in report.summary_row()

    def test_resolved_online_search_defaults_to_4x(self):
        config = SchedulerConfig(
            search=SearchConfig(max_iterations=100, time_budget_s=2.0)
        )
        online = config.resolved_online_search()
        assert online.max_iterations == 400
        assert online.time_budget_s == pytest.approx(8.0)

    def test_swap_margin_clamped_to_at_least_one(self):
        # Invalid fields fail at construction, so a swap is never taken at a
        # loss, whether the value comes from a default or a caller.
        for field, value in [
            ("swap_margin", 0.5),
            ("poll_interval_s", 0.0),
            ("poll_interval_s", -1.0),
            ("counter_interval_s", -5.0),
        ]:
            with pytest.raises(ValueError, match=field):
                SchedulerConfig(**{field: value})
        edge = SchedulerConfig(swap_margin=1.0, counter_interval_s=0.0)
        assert edge.swap_margin == 1.0

    def test_poll_iterations_must_be_positive(self):
        # A zero-proposal poll would fail only once the first background
        # session is polled, after a whole placement search.
        for value in (0, -3):
            with pytest.raises(ValueError, match="poll_iterations must be >= 1"):
                SchedulerConfig(online_replanning=True, poll_iterations=value)
        assert SchedulerConfig(poll_iterations=1).poll_iterations == 1
