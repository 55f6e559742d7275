"""End-to-end tests of the multi-job cluster scheduler."""

import json

import pytest

from repro.cluster import make_cluster
from repro.core import SearchConfig, schedule_jobs
from repro.sched import (
    ClusterScheduler,
    JobPhase,
    JobSpec,
    NodeFailure,
    SchedulerConfig,
    StaticEqualPolicy,
    available_policies,
    get_policy,
    schedule_trace,
)
from repro.service import PlanService

TINY = SchedulerConfig(
    search=SearchConfig(max_iterations=25, time_budget_s=0.5, record_history=False)
)


def tiny_job(name, **kwargs):
    defaults = dict(
        name=name, batch_size=64, target_iterations=4, min_gpus=8, max_gpus=8
    )
    defaults.update(kwargs)
    return JobSpec(**defaults)


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(name="")
        with pytest.raises(ValueError):
            JobSpec(name="x", target_iterations=0)
        with pytest.raises(ValueError):
            JobSpec(name="x", min_gpus=8, max_gpus=4)
        with pytest.raises(ValueError):
            JobSpec(name="x", arrival_time=-1.0)

    def test_unknown_algorithm_rejected_at_submission(self):
        # A typo'd algorithm must fail at JobSpec construction with the
        # available names listed, not as a KeyError deep inside the
        # scheduler's event loop.
        with pytest.raises(ValueError, match="unknown RLHF algorithm.*ppo"):
            JobSpec(name="typo", algorithm="ppov2")

    def test_algorithm_names_are_case_insensitive(self):
        assert JobSpec(name="x", algorithm="GRPO").build_graph().call_names

    def test_builders(self):
        spec = JobSpec(name="x", algorithm="grpo")
        graph = spec.build_graph()
        workload = spec.build_workload()
        assert graph.call_names
        assert set(workload.model_configs)


class TestPolicyRegistry:
    def test_available_policies(self):
        assert available_policies() == [
            "best_throughput",
            "first_fit",
            "priority",
            "static_equal",
        ]

    def test_get_policy_passthrough_and_errors(self):
        policy = StaticEqualPolicy()
        assert get_policy(policy) is policy
        with pytest.raises(KeyError):
            get_policy("nope")


class TestSchedulerBasics:
    def test_two_jobs_run_concurrently(self):
        jobs = [tiny_job("a"), tiny_job("b")]
        report = schedule_trace(make_cluster(16), jobs, policy="first_fit", config=TINY)
        assert report.all_completed
        assert report.n_jobs == 2
        # Both fit at t=0, so neither waits and they overlap fully.
        assert report.mean_queue_wait == 0.0
        assert 0.0 < report.gpu_utilization <= 1.0
        assert report.aggregate_iterations_per_second > 0

    def test_queueing_when_cluster_full(self):
        jobs = [tiny_job("a"), tiny_job("b")]
        report = schedule_trace(make_cluster(8), jobs, policy="first_fit", config=TINY)
        assert report.all_completed
        waits = sorted(job.queue_wait for job in report.jobs)
        assert waits[0] == 0.0 and waits[1] > 0.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ClusterScheduler(make_cluster(8), [tiny_job("a"), tiny_job("a")])

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError):
            ClusterScheduler(make_cluster(8), [tiny_job("a", min_gpus=16, max_gpus=16)])

    def test_report_is_json_serializable(self):
        report = schedule_trace(
            make_cluster(8), [tiny_job("a")], policy="first_fit", config=TINY
        )
        payload = json.dumps(report.to_dict())
        assert "aggregate_iterations_per_second" in payload
        cold = report.to_dict()["cold_searches"]
        assert set(cold) == {"count", "total_seconds", "mean_seconds"}
        assert cold["mean_seconds"] == report.cold_searches.mean_seconds
        assert report.summary_row()["jobs"] == "1/1"

    def test_schedule_jobs_api(self):
        report = schedule_jobs(
            [tiny_job("a"), tiny_job("b")], n_gpus=16, policy="first_fit", config=TINY
        )
        assert report.all_completed
        assert report.cluster_gpus == 16

    def test_shared_service_is_not_closed(self):
        service = PlanService()
        first = schedule_trace(
            make_cluster(8), [tiny_job("a")], policy="first_fit",
            config=TINY, service=service,
        )
        # A borrowed service must stay usable for the next run.
        report = schedule_trace(
            make_cluster(8), [tiny_job("b")], policy="first_fit",
            config=TINY, service=service,
        )
        assert report.all_completed
        assert report.service_stats["cache_hits"] > 0
        # Each report sees only its own run's traffic, not the shared
        # service's cumulative counters.
        total = service.stats.snapshot().to_dict()
        assert (
            first.service_stats["requests"] + report.service_stats["requests"]
            == total["requests"]
        )
        service.close()


class TestDecisionWave:
    def test_candidate_order_does_not_change_warm_starts(self):
        from repro.sched import Job, PartitionManager, PlanCosting

        search = SearchConfig(
            max_iterations=20, time_budget_s=600.0, seed=0, record_history=False
        )
        shapes = PartitionManager(make_cluster(16)).distinct_shapes(min_gpus=8)
        specs = [tiny_job(f"b{batch}", batch_size=batch, max_gpus=16) for batch in (64, 128, 192)]
        jobs = [Job(spec, spec.build_graph(), spec.build_workload()) for spec in specs]
        # Six misses of one fingerprint family in a single wave.
        pairs = [(job, partition) for job in jobs for partition in shapes]
        seed_spec = tiny_job("seed", batch_size=256)
        seed_job = Job(seed_spec, seed_spec.build_graph(), seed_spec.build_workload())

        def score(wave):
            with PlanService() as service:
                costing = PlanCosting(service, search, search)
                # Cache one plan of the family before the wave.
                costing.score([(seed_job, shapes[0])])
                scored = costing.score(wave)
            return {
                (c.job.spec.name, c.partition.shape): (
                    c.seconds_per_iteration, c.stats.seeded_from
                )
                for c in scored
            }

        forward = score(pairs)
        assert len(forward) == 6
        assert score(pairs[::-1]) == forward
        # Every candidate was seeded from the entry cached before the wave.
        seeds = {seeded_from for _cost, seeded_from in forward.values()}
        assert len(seeds) == 1 and None not in seeds


    def test_repeated_keys_are_sent_once_and_then_answered_from_the_memo(self):
        from repro.sched import Job, PartitionManager, PlanCosting

        search = SearchConfig(
            max_iterations=20, time_budget_s=600.0, seed=0, record_history=False
        )
        shapes = PartitionManager(make_cluster(16)).distinct_shapes()
        one_gpu, node = shapes[0], shapes[3]
        assert (one_gpu.n_gpus, node.shape) == (1, (1, 8))
        # Two jobs of one type, and one whose models fit no allocation of a
        # single GPU (the service raises ValueError for it).
        specs = [
            tiny_job("a"),
            tiny_job("b"),
            tiny_job("big", actor_size="70b", critic_size="70b", min_gpus=1),
        ]
        a, b, big = (Job(spec, spec.build_graph(), spec.build_workload()) for spec in specs)
        pairs = [(a, node), (big, one_gpu), (b, node), (big, one_gpu), (a, node)]
        with PlanService() as service:
            costing = PlanCosting(service, search, search)
            first = costing.score(pairs)
            assert service.stats.requests == 2
            second = costing.score(pairs)
            assert service.stats.requests == 2
        for wave in (first, second):
            assert [(c.job, c.partition) for c in wave] == pairs
            assert all(c.plan is first[0].plan for c in wave[0::2])
            assert all(not c.feasible and c.stats is None for c in wave[1::2])
        filled = first[0].stats
        assert filled.outcome == "cold"
        hits = first[2::2] + second[0::2]
        assert all(
            c.stats.outcome == "hit" and c.stats.fingerprint == filled.fingerprint
            for c in hits
        )
        # The memo hits count as the service hits they replace; the
        # infeasible key is never recorded.
        assert costing.cold_stats.count == 1
        assert costing.replan_stats.count == 0
        assert costing.candidates_scored == 10
        assert costing.wave_stats["waves"] == 2
        assert costing.wave_stats["service_waves"] == 1


class TestElasticResize:
    def test_long_job_grows_after_short_job_finishes(self):
        jobs = [
            tiny_job("short", target_iterations=3, max_gpus=8),
            tiny_job("long", target_iterations=20, batch_size=128, max_gpus=16),
        ]
        config = SchedulerConfig(
            search=SearchConfig(max_iterations=150, time_budget_s=1.0, record_history=False),
        )
        report = schedule_trace(
            make_cluster(16), jobs, policy="best_throughput", config=config
        )
        assert report.all_completed
        assert report.n_resizes >= 1
        long_metrics = next(j for j in report.jobs if j.name == "long")
        assert long_metrics.n_resizes >= 1

    def test_elastic_disabled(self):
        jobs = [
            tiny_job("short", target_iterations=3, max_gpus=8),
            tiny_job("long", target_iterations=20, batch_size=128, max_gpus=16),
        ]
        config = SchedulerConfig(search=TINY.search, elastic=False)
        report = schedule_trace(
            make_cluster(16), jobs, policy="best_throughput", config=config
        )
        assert report.all_completed
        assert report.n_resizes == 0


class TestPreemption:
    def test_high_priority_preempts_lower(self):
        jobs = [
            tiny_job("low", priority=0, target_iterations=30),
            tiny_job("high", priority=5, target_iterations=3, arrival_time=10.0),
        ]
        report = schedule_trace(make_cluster(8), jobs, policy="priority", config=TINY)
        assert report.all_completed
        assert report.n_preemptions == 1
        low = next(j for j in report.jobs if j.name == "low")
        high = next(j for j in report.jobs if j.name == "high")
        assert high.queue_wait == 0.0
        assert low.n_preemptions == 1
        assert low.n_replans >= 1
        # The preempted job resumed with its progress intact.
        assert low.iterations == pytest.approx(30.0, abs=1e-6)

    def test_equal_priority_never_preempts(self):
        jobs = [
            tiny_job("a", priority=1, target_iterations=10),
            tiny_job("b", priority=1, target_iterations=3, arrival_time=5.0),
        ]
        report = schedule_trace(make_cluster(8), jobs, policy="priority", config=TINY)
        assert report.all_completed
        assert report.n_preemptions == 0

    def test_infeasible_head_job_does_not_cascade_preemptions(self):
        # The high-priority job OOMs on every partition, so preempting the
        # running low-priority job cannot help and must not happen.
        jobs = [
            tiny_job("low", priority=0, target_iterations=10),
            JobSpec(
                name="huge",
                actor_size="70b",
                critic_size="7b",
                batch_size=512,
                priority=9,
                arrival_time=5.0,
                target_iterations=2,
                min_gpus=8,
                max_gpus=8,
            ),
        ]
        report = schedule_trace(make_cluster(8), jobs, policy="priority", config=TINY)
        assert report.n_preemptions == 0
        phases = {j.name: j.phase for j in report.jobs}
        assert phases["low"] == JobPhase.COMPLETED.value
        assert phases["huge"] == JobPhase.UNPLACEABLE.value


class TestFailures:
    def test_node_failure_displaces_and_replans(self):
        jobs = [tiny_job("a", target_iterations=20)]
        failure = NodeFailure(time=20.0, node=0, recovery_time=40.0)
        report = schedule_trace(
            make_cluster(8), jobs, policy="first_fit", config=TINY, failures=[failure]
        )
        assert report.all_completed
        assert report.n_failures == 1
        assert report.n_recoveries == 1
        assert report.n_replans == 1
        job = report.jobs[0]
        # 20s of downtime shows up in the turnaround.
        assert job.turnaround > 20.0
        events = [e["event"] for e in report.timeline]
        assert "displaced" in events and "replan" in events

    def test_failure_of_idle_node_displaces_nothing(self):
        jobs = [tiny_job("a")]
        failure = NodeFailure(time=1.0, node=1)  # job runs on node 0
        report = schedule_trace(
            make_cluster(16), jobs, policy="first_fit", config=TINY, failures=[failure]
        )
        assert report.all_completed
        assert report.n_replans == 0

    def test_replans_are_warm_or_cached(self):
        jobs = [tiny_job("a", target_iterations=20), tiny_job("b", target_iterations=20)]
        failure = NodeFailure(time=30.0, node=0, recovery_time=60.0)
        scheduler = ClusterScheduler(
            make_cluster(16), jobs, policy="first_fit", config=TINY, failures=[failure]
        )
        report = scheduler.run()
        assert report.all_completed
        assert report.replan_searches.count >= 1
        assert report.cold_searches.count >= 1
        # A displaced job is re-planned from the cache or a warm-started
        # search, never from scratch.
        outcomes = {stats.outcome for stats in scheduler.costing._replan}
        assert outcomes and outcomes <= {"hit", "warm"}

    def test_invalid_failure_times_rejected(self):
        with pytest.raises(ValueError):
            NodeFailure(time=-1.0, node=0)
        with pytest.raises(ValueError):
            NodeFailure(time=5.0, node=0, recovery_time=5.0)

    def test_out_of_range_failure_node_rejected_at_construction(self):
        jobs = [tiny_job("a")]
        for node in (-1, 2, 99):
            with pytest.raises(ValueError, match=f"node {node} is out of range"):
                ClusterScheduler(
                    make_cluster(16), jobs, config=TINY,
                    failures=[NodeFailure(time=5.0, node=node)],
                )

    def test_utilization_bounded_when_work_outlives_last_completion(self):
        # "short" completes early; "long" runs past that completion and is
        # then killed by a permanent whole-cluster failure.  Its GPU time
        # must widen the utilization denominator, not push it past 100%.
        jobs = [
            tiny_job("short", target_iterations=3),
            tiny_job("long", target_iterations=100),
        ]
        failures = [NodeFailure(time=80.0, node=0), NodeFailure(time=80.0, node=1)]
        report = schedule_trace(
            make_cluster(16), jobs, policy="first_fit", config=TINY, failures=failures
        )
        assert not report.all_completed
        assert report.busy_horizon > report.makespan
        assert 0.0 < report.gpu_utilization <= 1.0


class TestUnplaceableJobs:
    def test_memory_infeasible_job_is_dropped(self):
        # A 70B actor cannot fit on a single 8-GPU node at batch 512.
        jobs = [
            JobSpec(
                name="huge",
                actor_size="70b",
                critic_size="7b",
                batch_size=512,
                target_iterations=2,
                min_gpus=8,
                max_gpus=8,
            ),
            tiny_job("ok"),
        ]
        report = schedule_trace(make_cluster(8), jobs, policy="first_fit", config=TINY)
        phases = {j.name: j.phase for j in report.jobs}
        assert phases["ok"] == JobPhase.COMPLETED.value
        assert phases["huge"] == JobPhase.UNPLACEABLE.value
        assert not report.all_completed


class TestTraceDrivenProgress:
    def test_progress_is_iteration_granular(self):
        report = schedule_trace(
            make_cluster(16), [tiny_job("a"), tiny_job("b")],
            policy="first_fit", config=TINY,
        )
        for job in report.jobs:
            assert job.iterations == float(int(job.iterations))
        assert report.n_events > 0
        assert report.engine_profile_runs >= 1

    def test_iteration_pace_is_engine_derived(self):
        # The completion lands exactly target_iterations engine-iteration
        # periods after the start (clean single-job run, no displacement).
        from repro.sched import IterationProfiler

        scheduler = ClusterScheduler(
            make_cluster(8), [tiny_job("a")], policy="first_fit", config=TINY
        )
        report = scheduler.run()
        job = report.jobs[0]
        assert report.engine_profile_runs == 1
        runtime_job = scheduler.jobs[0]
        period = runtime_job.seconds_per_iteration
        assert job.completed_at == pytest.approx(4 * period)
        # The engine pace deliberately differs from the estimator's scalar.
        assert period != runtime_job.planned_seconds_per_iteration

    @staticmethod
    def _spy(scheduler, method, time_arg=0):
        """Record the times ``scheduler.<method>`` is called at."""
        times = []
        original = getattr(scheduler, method)

        def spy(*args):
            times.append(args[time_arg])
            return original(*args)

        setattr(scheduler, method, spy)
        return times

    def test_sessionless_segment_arms_only_its_last_boundary(self):
        # Nothing observes the boundaries in between, so the kernel pops
        # one iteration event per segment; the report still counts every
        # simulated boundary.
        target = 12
        scheduler = ClusterScheduler(
            make_cluster(8), [tiny_job("a", target_iterations=target)],
            policy="first_fit", config=TINY,
        )
        popped = self._spy(scheduler, "_handle_iteration")
        report = scheduler.run()
        assert report.all_completed
        assert report.jobs[0].iterations == target
        assert len(popped) <= 2 * len(scheduler._segments)
        assert scheduler.kernel.n_processed == 1 + len(popped)  # arrival + boundaries
        assert report.n_events == 1 + target

    def test_online_session_observes_every_boundary(self):
        # A background session may hot-swap at any boundary, so each one
        # still gets its own kernel event and reaches _maybe_swap.  The
        # margin is unreachable, so the one segment runs to completion.
        target = 8
        config = SchedulerConfig(
            search=SearchConfig(max_iterations=20, time_budget_s=5.0, seed=0,
                                record_history=False),
            elastic=False,
            online_replanning=True,
            online_search=SearchConfig(max_iterations=60, time_budget_s=5.0, seed=0,
                                       record_history=False),
            poll_interval_s=5.0,
            poll_iterations=30,
            swap_margin=1e9,
        )
        scheduler = ClusterScheduler(
            make_cluster(8), [tiny_job("a", target_iterations=target)],
            policy="first_fit", config=config,
        )
        popped = self._spy(scheduler, "_handle_iteration")
        swap_checks = self._spy(scheduler, "_maybe_swap", time_arg=1)
        report = scheduler.run()
        assert report.all_completed and report.online_sessions == 1
        assert len(scheduler._segments) == 1
        assert len(popped) == target
        # Every boundary but the completing one asks whether to swap.
        assert swap_checks == popped[:-1]
        assert report.n_events == scheduler.kernel.n_processed

    def test_displacement_charges_switch_cost_and_names_phase(self):
        jobs = [tiny_job("a", target_iterations=20)]
        failure = NodeFailure(time=20.0, node=0, recovery_time=40.0)
        report = schedule_trace(
            make_cluster(8), jobs, policy="first_fit", config=TINY,
            failures=[failure],
        )
        assert report.all_completed
        # A failure destroys the resident parameters: the replacement pays
        # a real (positive) reload priced by the realloc cost model.
        assert report.total_switch_seconds > 0
        displaced = next(e for e in report.timeline if e["event"] == "displaced")
        assert "during" in displaced["detail"]
        assert "lost" in displaced["detail"]
        replan = next(e for e in report.timeline if e["event"] == "replan")
        assert "param switch" in replan["detail"]

    def test_lost_iteration_still_bills_gpu_time(self):
        # Interrupting an iteration loses the progress but not the bill:
        # gpu_seconds exceeds completed_iterations * period * n_gpus.
        jobs = [tiny_job("a", target_iterations=20)]
        failure = NodeFailure(time=20.0, node=0, recovery_time=40.0)
        scheduler = ClusterScheduler(
            make_cluster(8), jobs, policy="first_fit", config=TINY,
            failures=[failure],
        )
        report = scheduler.run()
        job = report.jobs[0]
        period = scheduler.jobs[0].seconds_per_iteration
        assert job.gpu_seconds > job.iterations * period * 8 - 1e-6

    def test_merged_chrome_trace_spans_cluster_and_job_phases(self, tmp_path):
        from repro.sim import load_chrome_trace

        path = tmp_path / "schedule.json"
        report = schedule_trace(
            make_cluster(16),
            [tiny_job("a"), tiny_job("b", arrival_time=5.0)],
            policy="first_fit",
            config=TINY,
            failures=[NodeFailure(time=15.0, node=0, recovery_time=30.0)],
            trace_path=str(path),
        )
        assert report.trace_path == str(path)
        events = load_chrome_trace(path)
        processes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"cluster", "job a", "job b"} <= processes
        categories = {e.get("cat") for e in events}
        # Cluster-level events and intra-iteration phases in one file.
        assert {"failure", "segment", "iteration", "phase"} <= categories
        assert any(e["ph"] == "i" for e in events)
        assert any(e["ph"] == "X" for e in events)

    def test_trace_size_does_not_grow_with_iterations(self):
        from repro.sim import TraceRecorder

        counts = []
        for target in (20, 200):
            scheduler = ClusterScheduler(
                make_cluster(8), [tiny_job("a", target_iterations=target)],
                policy="first_fit", config=TINY,
            )
            assert scheduler.run().all_completed
            recorder = TraceRecorder()
            scheduler.record_chrome(recorder)
            cats = [e.get("cat") for e in recorder.events()]
            counts.append((cats.count("iteration"), cats.count("phase")))
        assert counts[0] == counts[1]
        assert counts[0][0] == 2 and counts[0][1] > 0

    def test_segment_args_rebuild_every_iteration_exactly(self, tmp_path):
        from repro.sim import load_chrome_trace

        path = tmp_path / "schedule.json"
        report = schedule_trace(
            make_cluster(16),
            [tiny_job("a", target_iterations=20),
             tiny_job("b", arrival_time=5.0, target_iterations=20)],
            policy="first_fit",
            config=TINY,
            failures=[NodeFailure(time=15.0, node=0, recovery_time=30.0)],
            trace_path=str(path),
        )
        assert report.all_completed
        events = load_chrome_trace(path)
        process = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        explicit = {}
        for e in events:
            if e.get("cat") in ("iteration", "phase"):
                explicit.setdefault(process[e["pid"]], []).append(
                    (e["name"], e["ts"], e["dur"])
                )
        rebuilt_ends, iterations, n_segments = {}, {}, {}
        for e in events:
            if e.get("cat") != "segment":
                continue
            job = process[e["pid"]]
            args = e["args"]
            n = args["n_iterations"]
            n_segments[job] = n_segments.get(job, 0) + 1
            iterations[job] = iterations.get(job, 0) + n
            step = args["iter_seconds"]
            for k in range(n):
                base = args["first_boundary_s"] + k * step
                spans = [(f"iter {args['start_iteration'] + k}", base, base + step)]
                phases = args["phases"].items()
                spans += [(call, base + lo, base + hi) for call, (lo, hi) in phases]
                assert all(hi >= lo for _, lo, hi in spans)
                if k in (0, n - 1):
                    rebuilt_ends.setdefault(job, []).extend(
                        (name, lo * 1e6, max(0.0, hi - lo) * 1e6) for name, lo, hi in spans
                    )
        # The failure cut job a, so it ran in more than one segment.
        assert n_segments["job a"] >= 2
        # Explicit first/last iterations equal the rebuilt ones bit for bit.
        assert {job: sorted(spans) for job, spans in explicit.items()} == {
            job: sorted(spans) for job, spans in rebuilt_ends.items()
        }
        # Segments account for every completed iteration, none twice.
        assert iterations == {f"job {job.name}": job.iterations for job in report.jobs}

    def test_no_trace_path_skips_export(self):
        report = schedule_trace(
            make_cluster(8), [tiny_job("a")], policy="first_fit", config=TINY
        )
        assert report.trace_path is None

    def test_profile_cache_shared_across_same_spec_jobs(self):
        report = schedule_trace(
            make_cluster(16), [tiny_job("a"), tiny_job("b")],
            policy="first_fit", config=TINY,
        )
        # Two identical jobs on same-shaped partitions need one engine run.
        assert report.engine_profile_runs == 1


class TestStaticEqualBaseline:
    def test_lowest_free_whole_node_and_only_jobs_a_node_holds(self):
        from repro.sched import Candidate, Job, PartitionManager

        manager = PartitionManager(make_cluster(32))  # four 8-GPU nodes
        manager.allocate(manager.distinct_shapes(8, 8)[0], owner=99)  # node 0
        manager.fail_node(1)
        specs = [tiny_job("wide", min_gpus=16, max_gpus=16), tiny_job("narrow")]
        queue = [Job(spec, spec.build_graph(), spec.build_workload()) for spec in specs]
        scored = []

        class Costing:
            def score(self, pairs):
                scored.extend(pairs)
                return [Candidate(job, part, None, 1.0, True) for job, part in pairs]

        decision = StaticEqualPolicy().decide(queue, [], manager, Costing())
        assert [job.spec.name for job, _partition in scored] == ["narrow"]
        placement = decision.placement
        assert placement.job is queue[1]
        assert placement.partition.shape == (1, 8)
        assert placement.partition.region.node_start == 2

    def test_static_slots_never_resize(self):
        jobs = [
            tiny_job("short", target_iterations=2),
            tiny_job("long", target_iterations=10, max_gpus=16),
        ]
        report = schedule_trace(
            make_cluster(16), jobs, policy=StaticEqualPolicy(), config=TINY
        )
        assert report.all_completed
        assert report.n_resizes == 0
        assert report.policy == "static_equal"
