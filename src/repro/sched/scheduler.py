"""Trace-driven multi-job scheduler over one shared GPU cluster.

:class:`ClusterScheduler` admits a stream of RLHF training jobs
(:class:`~repro.sched.job.JobSpec`) onto a shared
:class:`~repro.cluster.hardware.ClusterSpec` and simulates the cluster on
the shared discrete-event kernel (:class:`~repro.sim.kernel.SimKernel`).
The event loop covers:

* **arrivals** — jobs join the queue at their arrival time;
* **iteration boundaries** — a placed job advances whole RLHF iterations,
  paced by the engine-simulated
  :class:`~repro.sched.profiles.IterationProfile` of its searched plan (not
  a flat ``iters/s`` scalar), and completes at the boundary that reaches
  ``target_iterations``.  A kernel event is armed only at the next boundary
  something observes: every boundary while a background re-planning session
  may hot-swap the plan, otherwise just the last one.  Skipped boundaries
  are banked with the same float arithmetic when that event fires or when a
  cut interrupts the segment, so outcomes match one event per boundary;
* **failures / recoveries** — injected whole-node failures displace every
  job whose partition touches the node; recoveries return the capacity;
* **elastic resizes** — when capacity frees up and the queue is empty,
  running jobs may migrate to larger partitions when the re-planned
  throughput gain clears a threshold.

Progress is iteration-faithful: displacements and resizes land at intra-
iteration phase granularity (the interrupted call is named in the
timeline), the cut iteration's work is lost while its GPU time is still
billed, and every re-placement of a previously running job is charged the
real parameter-migration cost priced by
:class:`~repro.realloc.cost.ReallocCostModel` on the parent cluster
(:class:`~repro.sched.profiles.MigrationCostModel`) — zero for resuming in
place, inter-node bandwidth for moving across nodes, and a full parameter
reload after a node failure destroyed the resident copy.

Every placement is a full plan search over the partition's carved cluster,
served by the shared :class:`~repro.service.server.PlanService`: same-shaped
partitions are exact cache hits, and displaced jobs re-plan with a reduced
budget, warm-started from their own previously cached plans (same
fingerprint family) — cold planning happens once per (job type, shape).

A run can export one merged Chrome trace spanning cluster-level events and
per-job plan segments whose args rebuild every iteration's phases
(:meth:`ClusterScheduler.export_chrome_trace`,
``schedule_trace(trace_path=...)``), loadable in ``chrome://tracing`` or
Perfetto.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.hardware import ClusterSpec
from ..core.plan import ExecutionPlan
from ..core.search import SearchConfig
from ..obs.export import record_counter_tracks, write_metrics_snapshot
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.provenance import get_ledger
from ..obs.tracing import get_tracer
from ..service.server import PlanRequest, PlanService
from ..sim.kernel import Event, SimKernel
from ..sim.trace import TraceRecorder
from .costing import Candidate, PlanCosting
from .job import Job, JobPhase, JobSpec
from .metrics import JobMetrics, ScheduleReport
from .partition import Partition, PartitionManager
from .policies import SchedulingPolicy, get_policy
from .profiles import IterationProfile, IterationProfiler, MigrationCostModel

__all__ = ["NodeFailure", "SchedulerConfig", "ClusterScheduler", "schedule_trace"]

# Event kinds with their processing priority within one timestamp: capacity
# changes first (failures take GPUs away, recoveries return them), then
# arrivals, then iteration boundaries (which include completions), then
# background search polls (which only consume search budget, never capacity).
_FAILURE, _RECOVERY, _ARRIVAL, _ITERATION = "failure", "recovery", "arrival", "iteration"
_SEARCH_POLL = "search_poll"
_PRIORITY = {_FAILURE: 0, _RECOVERY: 1, _ARRIVAL: 2, _ITERATION: 3, _SEARCH_POLL: 4}
_UID = attrgetter("uid")
_MAX_DISPATCH_ROUNDS = 256
"""Safety bound on placement/preemption rounds per dispatch."""
_RESIZE_THRESHOLD = 1.05
"""Minimum relative iterations/sec gain for an elastic migration."""

@dataclass(frozen=True)
class NodeFailure:
    """An injected whole-node failure (optionally with a recovery time)."""

    time: float
    node: int
    recovery_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("failure time must be >= 0")
        if self.recovery_time is not None and self.recovery_time <= self.time:
            raise ValueError("recovery_time must be after the failure time")


@dataclass
class SchedulerConfig:
    """Knobs of the scheduling loop (search budgets, elasticity)."""

    search: SearchConfig = field(
        default_factory=lambda: SearchConfig(
            max_iterations=400, time_budget_s=2.0, record_history=False
        )
    )
    """Budget of cold placements (first search of a (job type, shape)).
    Warm-started replans get a quarter of it."""
    elastic: bool = True
    """Whether running jobs may grow onto freed capacity."""
    online_replanning: bool = False
    """Keep searching better plans for running jobs in the background and
    hot-swap at iteration boundaries when the remaining-work gain clears
    ``swap_margin`` after charging the real parameter-switch cost."""
    online_search: Optional[SearchConfig] = None
    """Budget of one job's background session; defaults to 4x ``search``
    (spread over the job's runtime, one slice per poll)."""
    poll_interval_s: float = 20.0
    """Virtual seconds between ``SEARCH_POLL`` kernel events (> 0)."""
    poll_iterations: int = 200
    """Search proposals per chain consumed by one background poll."""
    swap_margin: float = 1.05
    """Minimum ratio of current planned iteration time over the candidate's
    switch-amortized iteration time for a hot swap (>= 1, so a swap can
    never be taken at a loss)."""
    timeline: bool = True
    """Whether to record the per-decision timeline.  Off, a month-long fleet
    replay accumulates no in-memory timeline entries and pays no
    per-decision metrics/logging cost; the schedule report's ``timeline``
    list is simply empty."""
    counter_interval_s: float = 0.0
    """Minimum virtual seconds (>= 0) between live counter-track samples;
    0 samples at every dispatch step.  Fleet replays set an interval so the
    in-memory sample list stays bounded by the horizon, not the event
    count."""
    memoize_candidates: bool = False
    """Memoize (job-type, shape) → scored candidate inside :class:`PlanCosting`.
    Off by default: the memo short-circuits the plan service, so service-level
    cache statistics stop counting repeated scoring waves.  Fleet replay turns
    it on — thousands of decisions re-score identical candidates."""

    def __post_init__(self) -> None:
        if not self.swap_margin >= 1.0:
            raise ValueError(f"swap_margin must be >= 1, got {self.swap_margin}")
        if not self.poll_interval_s > 0:
            raise ValueError(
                f"poll_interval_s must be > 0, got {self.poll_interval_s}"
            )
        if self.poll_iterations < 1:
            raise ValueError(
                f"poll_iterations must be >= 1, got {self.poll_iterations}"
            )
        if not self.counter_interval_s >= 0:
            raise ValueError(
                f"counter_interval_s must be >= 0, got {self.counter_interval_s}"
            )

    def resolved_replan_search(self) -> SearchConfig:
        """Budget of warm-started replans: a quarter of :attr:`search`."""
        return dataclasses.replace(
            self.search,
            max_iterations=max(1, self.search.max_iterations // 4),
            time_budget_s=self.search.time_budget_s / 4.0,
        )

    def resolved_online_search(self) -> SearchConfig:
        """Budget of one background session (default: 4x the cold budget).

        Generous on purpose — the whole point of online re-planning is to
        spend otherwise-idle time pushing past what admission could afford;
        the session consumes it one :attr:`poll_iterations` slice at a time.
        """
        if self.online_search is not None:
            return self.online_search
        return dataclasses.replace(
            self.search,
            max_iterations=max(1, self.search.max_iterations * 4),
            time_budget_s=self.search.time_budget_s * 4.0,
        )


@dataclass(slots=True)
class _Segment:
    """One contiguous running stretch of a job, for the merged Chrome trace."""

    job: str
    partition: str
    start: float
    switch_seconds: float
    iter_seconds: float
    profile: IterationProfile
    start_iteration: int
    end: Optional[float] = None
    end_iteration: Optional[int] = None


class ClusterScheduler:
    """Multiplex concurrent RLHF jobs over one shared cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        jobs: Sequence[JobSpec],
        policy: Union[str, SchedulingPolicy] = "best_throughput",
        config: Optional[SchedulerConfig] = None,
        service: Optional[PlanService] = None,
        failures: Sequence[NodeFailure] = (),
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        provenance_path: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        names = [spec.name for spec in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {sorted(names)}")
        for spec in jobs:
            if spec.min_gpus > cluster.n_gpus:
                raise ValueError(
                    f"job {spec.name!r} needs >= {spec.min_gpus} GPUs but the "
                    f"cluster has {cluster.n_gpus}"
                )
        for failure in failures:
            if not 0 <= failure.node < cluster.n_nodes:
                raise ValueError(
                    f"failure of node {failure.node} is out of range: the "
                    f"cluster has {cluster.n_nodes} nodes"
                )
        self.cluster = cluster
        self.policy = get_policy(policy)
        self.config = config if config is not None else SchedulerConfig()
        self._owns_service = service is None
        self.service = (
            service if service is not None else PlanService(estimator_cache_size=32)
        )
        self.failures = list(failures)
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.provenance_path = provenance_path
        self.registry = registry if registry is not None else get_registry()
        # The tracer and ledger are process-global (a shared service keeps
        # recording across runs); baselines turn them into per-run deltas.
        self._tracer = get_tracer()
        self._trace_baseline = self._tracer.n_records
        self._ledger = get_ledger()
        self._ledger_baseline = self._ledger.n_events
        # Jobs of one type share one graph and one workload, built here, so
        # a builder re-registered between schedulers is honoured.
        job_types: Dict[Tuple, Tuple] = {}
        self.jobs: List[Job] = []
        for spec in jobs:
            key = spec.planning_key
            if key not in job_types:
                job_types[key] = (spec.build_graph(), spec.build_workload())
            graph, workload = job_types[key]
            self.jobs.append(Job(spec=spec, graph=graph, workload=workload))
        self.manager = PartitionManager(cluster)
        self.costing = PlanCosting(
            service=self.service,
            search=self.config.search,
            replan_search=self.config.resolved_replan_search(),
            registry=self.registry,
            memoize=self.config.memoize_candidates,
        )
        self.profiler = IterationProfiler(realloc_models=self.service.realloc_model_for)
        self.migration = MigrationCostModel(cluster)
        self.kernel = SimKernel()
        self._queue: List[Job] = []
        self._timeline: List[Dict[str, object]] = []
        self._timeline_enabled = self.config.timeline
        self._segments: List[_Segment] = []
        self._open_segments: Dict[int, _Segment] = {}
        # Running-set index, so the hot loop never scans all jobs, plus the
        # same jobs kept in uid order so policies never wait on a sort.
        self._running_jobs: Dict[int, Job] = {}
        self._running_order: List[Job] = []
        # Iteration boundaries banked without a kernel event of their own.
        self._n_banked_boundaries = 0
        self._n_open_sessions = 0
        self._n_swaps_taken = 0
        self._n_failures = 0
        self._n_recoveries = 0
        self._busy_until = 0.0
        self._capacity_dirty = False
        self._n_search_polls = 0
        self._n_swaps_rejected = 0
        self._n_sessions_started = 0
        self._swap_seconds_saved = 0.0
        self._poll_event: Optional[Event] = None
        self._obs_log = get_logger("sched")
        self._m_timeline = self.registry.counter(
            "sched_timeline_events_total",
            "Scheduler timeline entries by event kind",
            labels=("event",),
        )
        self._m_running = self.registry.gauge(
            "sched_running_jobs", "Jobs currently running (last kernel timestamp)"
        )
        self._m_queued = self.registry.gauge(
            "sched_queued_jobs", "Jobs currently queued (last kernel timestamp)"
        )
        self._m_free_gpus = self.registry.gauge(
            "sched_free_gpus", "Unallocated healthy GPUs (last kernel timestamp)"
        )
        self._m_utilization = self.registry.gauge(
            "sched_gpu_utilization", "Allocated fraction of healthy GPUs"
        )
        self._m_polls = self.registry.counter(
            "sched_search_polls_total",
            "Background search slices consumed by online sessions",
        )
        self._m_swaps = self.registry.counter(
            "sched_swaps_total",
            "Hot plan swap decisions at iteration boundaries",
            labels=("outcome",),
        )
        self._m_swap_saved = self.registry.histogram(
            "sched_swap_net_seconds_saved",
            "Estimated net seconds saved by one taken hot swap",
        )
        # Live counter tracks for the merged Chrome trace, sampled in virtual
        # time at every dirty drained kernel timestamp — or, with a counter
        # interval configured, at most once per interval of virtual time.
        self._counter_samples: List[Tuple[float, Dict[str, float]]] = []
        self._counter_interval = self.config.counter_interval_s
        self._last_counter_sample = float("-inf")

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: str, payload: object) -> Event:
        return self.kernel.schedule(time, kind, payload, priority=_PRIORITY[kind])

    def _log(self, time: float, event: str, job: Optional[Job], detail: str) -> None:
        if not self._timeline_enabled:
            return
        self._timeline.append(
            {
                "time": round(time, 4),
                "event": event,
                "job": job.name if job is not None else None,
                "detail": detail,
            }
        )
        self._m_timeline.labels(event=event).inc()
        self._obs_log.debug(
            "t=%.4f %s%s: %s",
            time,
            event,
            f" {job.name}" if job is not None else "",
            detail,
        )

    def _running(self) -> List[Job]:
        """Running jobs in submission (uid) order, as a fresh list.

        Uids ascend in ``self.jobs`` order, so uid order reproduces the order
        an all-jobs scan would yield — policies iterate this list, so the
        order is behaviour, not cosmetics.
        """
        return list(self._running_order)

    def _mark_running(self, job: Job) -> None:
        # Swaps and resizes restart an already-running job: index it once.
        if job.uid not in self._running_jobs:
            self._running_jobs[job.uid] = job
            insort(self._running_order, job, key=_UID)

    def _unmark_running(self, job: Job) -> None:
        if self._running_jobs.pop(job.uid, None) is not None:
            del self._running_order[bisect_left(self._running_order, job.uid, key=_UID)]

    def _accrue(self, job: Job, time: float) -> None:
        """Bank a job's GPU time and extend the busy horizon."""
        job.accrue_gpu_time(time)
        self._busy_until = max(self._busy_until, time)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> ScheduleReport:
        """Simulate the whole trace and return the schedule report."""
        for job in self.jobs:
            self._push(job.spec.arrival_time, _ARRIVAL, job)
        for failure in self.failures:
            self._push(failure.time, _FAILURE, failure.node)
            if failure.recovery_time is not None:
                self._push(failure.recovery_time, _RECOVERY, failure.node)
        handlers = {
            _ARRIVAL: self._handle_arrival,
            _ITERATION: self._handle_iteration,
            _FAILURE: self._handle_failure,
            _RECOVERY: self._handle_recovery,
            _SEARCH_POLL: self._handle_search_poll,
        }
        try:
            # All events of one timestamp drain before scheduling decisions,
            # so e.g. a simultaneous arrival is not starved by an elastic
            # resize triggered a moment "earlier".  Iteration boundaries that
            # free no capacity leave the dirty flag unset and skip dispatch.
            self.kernel.run(
                lambda event: handlers[event.kind](event.time, event.payload),
                on_timestamp_drained=self._after_timestamp,
            )
        finally:
            for job in self.jobs:
                self._stop_session(job)
            if self._owns_service:
                self.service.close()
        self._warn_if_evicted()
        report = self._report()
        if self.trace_path is not None:
            report.trace_path = str(self.export_chrome_trace(self.trace_path))
        provenance_path = self._resolved_provenance_path()
        if provenance_path is not None:
            report.provenance_path = str(
                self._ledger.write_jsonl(provenance_path, since=self._ledger_baseline)
            )
        metrics_path = self._resolved_metrics_path()
        if metrics_path is not None:
            report.metrics_path = str(
                write_metrics_snapshot(
                    self.registry,
                    metrics_path,
                    extra={
                        "source": "ClusterScheduler",
                        "policy": self.policy.name,
                        "cluster_gpus": self.cluster.n_gpus,
                        "n_jobs": len(self.jobs),
                        "makespan": report.makespan,
                    },
                )
            )
        return report

    def _warn_if_evicted(self) -> None:
        """Log once when the bounded tracer or ledger evicted this run's first records.

        The run's exports then start after a gap (the provenance file's
        ``seq`` numbers show it) rather than losing records silently.
        """
        lost = {
            "spans": self._tracer.first_held - self._trace_baseline,
            "provenance events": self._ledger.first_held - self._ledger_baseline,
        }
        lost = {name: n for name, n in lost.items() if n > 0}
        if lost:
            self._obs_log.warning(
                "telemetry stores evicted the first %s of this run; its trace "
                "and provenance exports start after the gap",
                " and ".join(f"{n} {name}" for name, n in lost.items()),
            )

    def _resolved_metrics_path(self) -> Optional[str]:
        """Where to write the ``METRICS_*.json`` snapshot (``None``: nowhere).

        Explicit ``metrics_path`` wins; otherwise a trace-exporting run puts
        ``METRICS_<trace stem>.json`` next to its Chrome trace, so the two
        artifacts of one run travel together.
        """
        if self.metrics_path is not None:
            return self.metrics_path
        if self.trace_path is not None:
            trace = Path(self.trace_path)
            return str(trace.with_name(f"METRICS_{trace.stem}.json"))
        return None

    def _resolved_provenance_path(self) -> Optional[str]:
        """Where the ``PROVENANCE_*.jsonl`` ledger lands (``None``: nowhere).

        Same convention as the metrics snapshot: explicit ``provenance_path``
        wins, otherwise a trace-exporting run writes
        ``PROVENANCE_<trace stem>.jsonl`` next to its Chrome trace.
        """
        if self.provenance_path is not None:
            return self.provenance_path
        if self.trace_path is not None:
            trace = Path(self.trace_path)
            return str(trace.with_name(f"PROVENANCE_{trace.stem}.jsonl"))
        return None

    def _after_timestamp(self, time: float) -> None:
        if self._capacity_dirty:
            self._capacity_dirty = False
            self._dispatch(time)
            # Utilization only changes when dispatch ran (placements,
            # displacements, capacity changes), so sampling here captures
            # every step of the counter tracks without per-event cost.  A
            # configured interval throttles the samples further, bounding the
            # in-memory series by the horizon instead of the event count.
            if time - self._last_counter_sample >= self._counter_interval:
                self._last_counter_sample = time
                self._sample_counters(time)

    def _sample_counters(self, time: float) -> None:
        """One virtual-time sample of the live cluster state.

        Feeds both the registry gauges (latest value) and the Chrome-trace
        counter tracks (full time series) from a single measurement.
        """
        n_running = len(self._running_jobs)
        n_queued = len(self._queue)
        n_free = self.manager.n_free
        n_available = self.manager.n_available
        busy = n_available - n_free
        utilization = busy / n_available if n_available else 0.0
        self._m_running.set(n_running)
        self._m_queued.set(n_queued)
        self._m_free_gpus.set(n_free)
        self._m_utilization.set(utilization)
        service_delta = self.costing.service_stats_delta()
        self._counter_samples.append(
            (
                time,
                {
                    "running jobs": float(n_running),
                    "queued jobs": float(n_queued),
                    "free GPUs": float(n_free),
                    "busy GPUs": float(busy),
                    "GPU utilization": utilization,
                    "plan cache hit ratio": service_delta.hit_rate,
                    "plan search seconds": service_delta.search_seconds,
                    "online sessions": float(self._n_open_sessions),
                    "plan swaps": float(self._n_swaps_taken),
                },
            )
        )

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _handle_arrival(self, time: float, job: Job) -> None:
        self._queue.append(job)
        self._capacity_dirty = True
        self._log(time, "arrival", job, f"priority {job.spec.priority}")

    def _handle_iteration(self, time: float, payload: object) -> None:
        job, generation = payload
        if job.generation != generation or not job.is_running:
            return  # stale event from before a displacement
        self._settle(job)
        self._accrue(job, time)
        job.iterations_done += 1.0
        if job.iterations_done >= job.spec.target_iterations:
            self._complete(job, time)
        else:
            if self._maybe_swap(job, time):
                return  # _start_segment armed the next boundary
            job.iteration_started_at = time
            job.next_boundary_at = time + job.seconds_per_iteration
            self._arm_boundary(job)

    def _arm_boundary(self, job: Job) -> None:
        """Push the one kernel event of the next boundary something observes.

        A background session's hot swap is decided at every boundary
        (:meth:`_maybe_swap`), so a segment with a session gets an event per
        boundary.  Without one nothing reads the intermediate boundaries, and
        the event goes straight to the segment's last boundary, computed with
        the same float recurrence :meth:`_settle` banks them with.
        """
        ahead = 1 if job.session is not None else int(job.remaining_iterations)
        time = job.next_boundary_at
        step = job.seconds_per_iteration
        for _ in range(ahead - 1):
            time += step
        job.armed_boundaries = ahead
        job.pending_event = self._push(time, _ITERATION, (job, job.generation))

    def _settle(self, job: Job, until: float = float("inf"), inclusive: bool = True) -> None:
        """Bank the boundaries the armed event skipped (all but its own).

        Each banked boundary does exactly what its own kernel event would
        have: accrue GPU time up to it (:meth:`Job.accrue_gpu_time`, inlined
        with the same per-boundary float operations), complete one
        iteration, start the next.  A cut stops at its ``until`` time;
        ``inclusive`` says whether a boundary at that very time would already
        have been handled (cuts from dispatch run after the timestamp
        drained; failures run first).
        """
        limit = job.armed_boundaries - 1
        boundary = job.next_boundary_at
        step = job.seconds_per_iteration
        start = job.segment_started_at
        billed = start is not None and job.partition is not None
        n_gpus = job.partition.n_gpus if billed else 0
        gpu_seconds = job.gpu_seconds
        done = job.iterations_done
        busy = self._busy_until
        banked = 0
        while banked < limit and (boundary <= until if inclusive else boundary < until):
            # max(0.0, elapsed) and max(busy, boundary), spelled without calls.
            if billed:
                elapsed = boundary - start
                gpu_seconds += (elapsed if elapsed > 0.0 else 0.0) * n_gpus
            start = boundary
            if boundary > busy:
                busy = boundary
            done += 1.0
            boundary += step
            banked += 1
        if banked:
            if job.segment_started_at is not None:
                job.segment_started_at = start
            job.gpu_seconds = gpu_seconds
            job.iterations_done = done
            job.iteration_started_at = start
            job.next_boundary_at = boundary
            job.armed_boundaries -= banked
            self._busy_until = busy
            self._n_banked_boundaries += banked

    def _complete(self, job: Job, time: float) -> None:
        self._stop_session(job)
        job.phase = JobPhase.COMPLETED
        self._unmark_running(job)
        job.completed_at = time
        job.segment_started_at = None
        job.pending_event = None
        self._close_segment(job, time)
        self.manager.release(job.uid)
        self._capacity_dirty = True
        self._log(time, "completion", job, f"{job.iterations_done:.1f} iterations")
        job.partition = None

    def _handle_failure(self, time: float, node: int) -> None:
        self._n_failures += 1
        failed_ids = self.manager.fail_node(node)
        self._capacity_dirty = True
        self._log(time, "failure", None, f"node {node} down")
        for job in self._running():
            if job.partition is not None and job.partition.device_id_set & failed_ids:
                self._displace(job, time, reason="failure")

    def _handle_recovery(self, time: float, node: int) -> None:
        self._n_recoveries += 1
        self.manager.restore_node(node)
        self._capacity_dirty = True
        self._log(time, "recovery", None, f"node {node} back")

    # ------------------------------------------------------------------ #
    # Online re-planning: background sessions and hot swaps
    # ------------------------------------------------------------------ #
    def _maybe_start_session(self, job: Job, time: float) -> None:
        """Open a background search for a freshly (re)planned running job.

        The session searches the job's *current* partition with the generous
        online budget, seeded from the active plan (so ``best_so_far`` can
        only be at least as good); nearly-finished jobs skip it — nothing
        left to amortise a swap over.
        """
        if not self.config.online_replanning:
            return
        if job.partition is None or job.plan is None or job.session is not None:
            return
        if job.remaining_iterations < 2:
            return
        request = PlanRequest(
            graph=job.graph,
            workload=job.workload,
            cluster=job.partition.spec,
            search=self.config.resolved_online_search(),
        )
        job.session = self.service.start_session(
            request,
            slice_iterations=self.config.poll_iterations,
            seed_plans=(job.plan,),
        )
        self._n_sessions_started += 1
        self._n_open_sessions += 1
        self._ensure_poll_scheduled(time)

    def _stop_session(self, job: Job) -> None:
        """Settle and unregister a job's background session (idempotent)."""
        session = job.session
        if session is None:
            return
        job.session = None
        self._n_open_sessions -= 1
        try:
            self.service.stop_session(session.session_id)
        except KeyError:
            # Already unregistered (e.g. the service was shut down first).
            session.stop()

    def _ensure_poll_scheduled(self, time: float) -> None:
        if self._poll_event is not None:
            return
        interval = max(self.config.poll_interval_s, 1e-6)
        self._poll_event = self._push(time + interval, _SEARCH_POLL, None)

    def _handle_search_poll(self, time: float, _payload: object) -> None:
        """Advance every running job's background search by one slice.

        Reschedules itself only while some session still has budget left, so
        the simulation always terminates once the searches run dry.
        """
        self._poll_event = None
        any_active = False
        for job in self._running():
            session = job.session
            if session is None or session.closed or session.done:
                continue
            session.poll()
            self._n_search_polls += 1
            self._m_polls.inc()
            if not session.done:
                any_active = True
        if any_active:
            self._ensure_poll_scheduled(time)

    def _maybe_swap(self, job: Job, time: float) -> bool:
        """Hot-swap to the session's best plan at an iteration boundary.

        The decision charges the real parameter-switch cost: with ``r``
        iterations remaining, the candidate's effective iteration time is
        ``cost + switch / r``, and the swap is taken only when the current
        planned iteration time exceeds that by ``swap_margin``.  Taking it
        cuts the segment (stopping the old session), restarts on the same
        partition with the new plan, and opens a fresh session seeded from
        it — so the timeline, trace and counters all see the swap.
        """
        session = job.session
        if session is None or session.closed:
            return False
        plan, cost = session.best_so_far()
        planned = job.planned_seconds_per_iteration
        if plan is None or cost <= 0 or not cost < planned:
            return False
        remaining = job.remaining_iterations
        if remaining < 1:
            return False
        if job.plan is not None and plan.to_dict() == job.plan.to_dict():
            return False
        switch = self.migration.switch_seconds(
            job, job.partition, job.plan, job.partition, plan
        )
        effective = cost + switch / remaining
        ratio = planned / effective if effective > 0 else 0.0
        if effective <= 0 or ratio < self.config.swap_margin:
            self._n_swaps_rejected += 1
            self._m_swaps.labels(outcome="rejected").inc()
            self._ledger.record(
                "swap",
                outcome="rejected",
                job=job.name,
                time=time,
                planned=planned,
                cost=cost,
                switch=switch,
                remaining=remaining,
                effective=effective,
                ratio=ratio,
                threshold=self.config.swap_margin,
            )
            return False
        saved = remaining * (planned - cost) - switch
        partition = job.partition
        # The swap span grafts under the session poll that found the winning
        # plan, closing the causal loop from the scheduler decision back to
        # the background search slice.
        with self._tracer.start_span(
            "plan swap",
            category="sched",
            parent=session.winning_poll_context,
            args={"job": job.name, "saved": saved, "ratio": ratio},
        ):
            self._cut_segment(job, time)
            charged = self._start_segment(job, partition, plan, cost, time)
        self._ledger.record(
            "swap",
            outcome="taken",
            job=job.name,
            time=time,
            planned=planned,
            cost=cost,
            switch=switch,
            remaining=remaining,
            effective=effective,
            ratio=ratio,
            threshold=self.config.swap_margin,
            saved=saved,
        )
        job.n_swaps += 1
        self._n_swaps_taken += 1
        self._swap_seconds_saved += saved
        self._m_swaps.labels(outcome="taken").inc()
        self._m_swap_saved.observe(saved)
        detail = (
            f"{job.seconds_per_iteration:.2f} s/iter "
            f"(planned {cost:.2f}, was {planned:.2f}, ~{saved:.1f} s saved)"
        )
        if charged > 0:
            detail += f", {charged:.2f} s param switch"
        self._log(time, "swap", job, detail)
        return True

    def _cut_segment(self, job: Job, time: float, before_boundaries: bool = False) -> None:
        """Shared teardown of a running segment (displacement or migration).

        Banks the iteration boundaries passed by ``time`` — one at exactly
        ``time`` too, unless the cut runs ``before_boundaries`` of its
        timestamp — and the GPU time, closes the trace segment, invalidates
        the pending iteration event and remembers the located layout that
        migration costs will be charged against.  The in-flight iteration is
        lost — progress is iteration-granular.
        """
        self._settle(job, until=time, inclusive=not before_boundaries)
        self._stop_session(job)
        self._accrue(job, time)
        self._close_segment(job, time)
        if job.pending_event is not None:
            self.kernel.cancel(job.pending_event)
            job.pending_event = None
        job.generation += 1
        job.prev_partition = job.partition
        job.prev_plan = job.plan

    def _displace(self, job: Job, time: float, reason: str) -> None:
        """Cut a running job's segment and send it back to the queue.

        The timeline names the interrupted intra-iteration phase.  After a
        node failure the resident parameter copy is gone, so the eventual
        re-placement pays a full reload instead of a relayout.
        """
        # Failure events precede same-time iteration boundaries in the kernel.
        self._cut_segment(job, time, before_boundaries=reason == "failure")
        phase = job.current_phase(time)
        if reason == "failure":
            job.lost_params = True
        self.manager.release(job.uid)
        job.partition = None
        job.plan = None
        job.profile = None
        job.seconds_per_iteration = float("inf")
        job.planned_seconds_per_iteration = float("inf")
        job.segment_started_at = None
        job.iteration_started_at = None
        job.phase = JobPhase.PENDING
        self._unmark_running(job)
        if reason == "preemption":
            job.n_preemptions += 1
        self._queue.append(job)
        self._capacity_dirty = True
        self._log(
            time,
            "displaced",
            job,
            f"{reason} during {phase} "
            f"(iteration {int(job.iterations_done) + 1} lost)",
        )

    # ------------------------------------------------------------------ #
    # Dispatch: placements, preemptions, elastic resizes
    # ------------------------------------------------------------------ #
    def _dispatch(self, time: float) -> None:
        while True:
            for _ in range(_MAX_DISPATCH_ROUNDS):
                decision = self.policy.decide(
                    self._queue, self._running(), self.manager, self.costing
                )
                if decision.preemptions:
                    for victim in decision.preemptions:
                        self._displace(victim, time, reason="preemption")
                    continue
                if decision.placement is None:
                    break
                self._place(decision.placement, time)
            # Dropping a hopeless job may unblock jobs queued behind it
            # (head-of-line policies), so dispatch again after a drop.
            if not self._drop_unplaceable(time):
                break
        if self.config.elastic and self.policy.allows_resize and not self._queue:
            self._try_resizes(time)

    def _start_segment(
        self,
        job: Job,
        partition: Partition,
        plan: ExecutionPlan,
        planned_seconds_per_iteration: float,
        time: float,
    ) -> float:
        """Begin a running segment: profile, charge migration, arm the clock.

        The single entry point for *every* active-plan change (placement,
        elastic resize, hot swap), so ``job.planned_seconds_per_iteration`` —
        the baseline resize and swap decisions compare against — always
        reflects the plan actually running.  Returns the parameter-switch
        seconds charged ahead of the first iteration.
        """
        profile = self.profiler.profile(job, partition, plan)
        switch = self.migration.switch_seconds(
            job, job.prev_partition, job.prev_plan, partition, plan,
            lost_params=job.lost_params,
        )
        job.lost_params = False
        job.partition = partition
        job.plan = plan
        job.profile = profile
        job.seconds_per_iteration = profile.seconds_per_iteration
        job.planned_seconds_per_iteration = planned_seconds_per_iteration
        job.phase = JobPhase.RUNNING
        self._mark_running(job)
        job.segment_started_at = time
        job.switch_seconds += switch
        job.iteration_started_at = time + switch
        job.next_boundary_at = time + switch + profile.seconds_per_iteration
        segment = _Segment(
            job=job.name,
            partition=partition.describe(),
            start=time,
            switch_seconds=switch,
            iter_seconds=profile.seconds_per_iteration,
            profile=profile,
            start_iteration=int(job.iterations_done),
        )
        self._segments.append(segment)
        self._open_segments[job.uid] = segment
        self._maybe_start_session(job, time)
        self._arm_boundary(job)  # after the session start: it decides the event
        return switch

    def _close_segment(self, job: Job, time: float) -> None:
        segment = self._open_segments.pop(job.uid, None)
        if segment is not None:
            segment.end = time
            segment.end_iteration = int(job.iterations_done)

    def _place(self, candidate: Candidate, time: float) -> None:
        job = candidate.job
        self._queue.remove(job)
        self.manager.allocate(candidate.partition, job.uid)
        switch = self._start_segment(
            job, candidate.partition, candidate.plan,
            candidate.seconds_per_iteration, time,
        )
        replanned = job.first_started_at is not None
        if replanned:
            job.n_replans += 1
        else:
            job.first_started_at = time
        kind = "replan" if replanned else "placement"
        stats = candidate.stats
        self._ledger.record(
            "placement",
            job=job.name,
            time=time,
            decision=kind,
            policy=self.policy.name,
            partition=candidate.partition.describe(),
            cost=candidate.seconds_per_iteration,
            switch=switch,
            lineage=stats.outcome if stats is not None else "unknown",
            fingerprint=stats.fingerprint if stats is not None else None,
            seeded_from=stats.seeded_from if stats is not None else None,
        )
        detail = (
            f"{candidate.partition.describe()}, "
            f"{job.seconds_per_iteration:.2f} s/iter"
        )
        if switch > 0:
            detail += f", {switch:.2f} s param switch"
        self._log(time, kind, job, detail)

    def _drop_unplaceable(self, time: float) -> bool:
        """Give up on jobs no partition of the fully idle cluster can host.

        Only triggers when nothing is running, nothing is failed and the
        queue still cannot drain — i.e. waiting longer cannot help.  Without
        this valve an infeasible job would leave the whole report pending.
        Returns whether any job was dropped.
        """
        if not self._queue or self._running_jobs or self.manager.failed_ids:
            return False
        dropped = False
        for job in list(self._queue):
            shapes = self.manager.distinct_shapes(job.spec.min_gpus, job.spec.gpu_ceiling)
            if any(c.feasible for c in self.costing.score_one(job, shapes)):
                continue
            self._queue.remove(job)
            job.phase = JobPhase.UNPLACEABLE
            dropped = True
            self._log(time, "unplaceable", job, "no feasible partition on idle cluster")
        return dropped

    def _try_resizes(self, time: float) -> None:
        """Grow running jobs onto free capacity when re-planning pays off.

        Candidates are compared on the estimator's iterations/sec (the cost
        model the search optimised) against the job's current *planned*
        throughput, so the threshold compares like with like; the accepted
        migration is then profiled through the engine and charged its real
        parameter-movement cost like any other switch.
        """
        for job in self._running():
            if job.partition is None or job.spec.gpu_ceiling <= job.partition.n_gpus:
                continue
            own_ids = self.manager.owner_ids(job.uid)
            shapes = [
                shape
                for shape in self.manager.distinct_shapes(
                    job.partition.n_gpus + 1, job.spec.gpu_ceiling, extra_free=own_ids
                )
                if shape.n_gpus > job.partition.n_gpus
            ]
            if not shapes:
                continue
            feasible = [c for c in self.costing.score_one(job, shapes) if c.feasible]
            if not feasible:
                continue
            best = max(feasible, key=lambda c: c.iterations_per_second)
            if best.iterations_per_second <= job.planned_throughput * _RESIZE_THRESHOLD:
                continue
            # Migrate: close the current segment (the in-flight iteration is
            # lost), move the parameters, restart on the bigger partition.
            self._cut_segment(job, time)
            self.manager.release(job.uid)
            self.manager.allocate(best.partition, job.uid)
            switch = self._start_segment(
                job, best.partition, best.plan, best.seconds_per_iteration, time
            )
            job.n_resizes += 1
            detail = (
                f"grew to {best.partition.describe()}, "
                f"{job.seconds_per_iteration:.2f} s/iter"
            )
            if switch > 0:
                detail += f", {switch:.2f} s param switch"
            self._log(time, "resize", job, detail)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _job_metrics(self) -> List[JobMetrics]:
        return [
            JobMetrics(
                name=job.name,
                priority=job.spec.priority,
                arrival_time=job.spec.arrival_time,
                first_started_at=job.first_started_at,
                completed_at=job.completed_at,
                iterations=job.iterations_done,
                n_replans=job.n_replans,
                n_preemptions=job.n_preemptions,
                n_resizes=job.n_resizes,
                gpu_seconds=job.gpu_seconds,
                phase=job.phase.value,
                n_swaps=job.n_swaps,
            )
            for job in self.jobs
        ]

    def _report(self) -> ScheduleReport:
        """Build the report from one scan of the per-job metrics."""
        job_metrics = self._job_metrics()
        completions = [m.completed_at for m in job_metrics if m.completed_at is not None]
        start = min((m.arrival_time for m in job_metrics), default=0.0)
        return ScheduleReport(
            policy=self.policy.name,
            cluster_gpus=self.cluster.n_gpus,
            jobs=job_metrics,
            makespan=(max(completions) - start) if completions else 0.0,
            busy_horizon=max(0.0, self._busy_until - start),
            total_iterations=sum((m.iterations for m in job_metrics), 0.0),
            n_failures=self._n_failures,
            n_recoveries=self._n_recoveries,
            candidates_scored=self.costing.candidates_scored,
            cold_searches=self.costing.cold_stats,
            replan_searches=self.costing.replan_stats,
            service_stats=self._service_stats_delta(),
            timeline=self._timeline,
            n_events=self.kernel.n_processed + self._n_banked_boundaries,
            engine_profile_runs=self.profiler.engine_runs,
            total_switch_seconds=sum(job.switch_seconds for job in self.jobs),
            n_search_polls=self._n_search_polls,
            n_swaps_rejected=self._n_swaps_rejected,
            swap_seconds_saved=self._swap_seconds_saved,
            online_sessions=self._n_sessions_started,
        )

    def _service_stats_delta(self) -> Dict[str, float]:
        """This run's share of the (possibly shared) service's counters.

        A shared service accumulates across runs; the costing's baseline
        snapshot (taken at construction) turns the cumulative counters into
        this run's delta, with the hit rate recomputed from the delta.
        """
        return self.costing.service_stats_delta().to_dict()

    # ------------------------------------------------------------------ #
    # Unified trace export
    # ------------------------------------------------------------------ #
    def record_chrome(self, recorder: TraceRecorder) -> None:
        """Emit the run into a recorder: cluster events + per-job segments.

        One merged trace: a ``cluster`` process carries the decision-level
        timeline as instant events plus live counter tracks (running/queued
        jobs, free/busy GPUs, utilization, plan-cache hit ratio, search
        seconds); each job gets a process with its running segments and
        parameter-switch windows.

        A segment runs one plan, so each of its completed iterations repeats
        the same engine profile shifted by ``iter_seconds``.  The segment
        span's args hold everything needed to rebuild them:
        ``first_boundary_s``, ``iter_seconds``, ``start_iteration``,
        ``n_iterations`` and ``phases`` (call name → ``[start, end]`` offset
        inside an iteration).  Completed iteration ``k`` (``0 <= k <
        n_iterations``) is ``iter {start_iteration + k}`` starting at
        ``first_boundary_s + k * iter_seconds``, its call phases at that base
        plus their offsets.  Only the first and the last completed iteration
        are written as explicit ``iteration``/``phase`` spans; an iteration
        cut off by the segment's end is not exported.

        The run's causal span tree (decision waves → plan requests → search
        chains, plus session polls and swaps) merges in as async events with
        flow arrows on a ``planning`` process.
        """
        self._tracer.record_chrome(recorder, since=self._trace_baseline)
        record_counter_tracks(recorder, "cluster", self._counter_samples)
        for entry in self._timeline:
            label = entry["event"] if entry["job"] is None else f"{entry['event']}: {entry['job']}"
            recorder.add_instant(
                "cluster",
                "events",
                label,
                float(entry["time"]),
                category=str(entry["event"]),
                args={"detail": entry["detail"]},
            )
        for segment in self._segments:
            process = f"job {segment.job}"
            end = segment.end if segment.end is not None else self._busy_until
            first_boundary = segment.start + segment.switch_seconds
            end_iteration = (
                segment.end_iteration
                if segment.end_iteration is not None
                else segment.start_iteration
            )
            n_iterations = end_iteration - segment.start_iteration
            calls = sorted(segment.profile.call_spans.items())
            recorder.add_span(
                process, "segments", segment.partition, segment.start, end,
                category="segment",
                args={
                    "first_boundary_s": first_boundary,
                    "iter_seconds": segment.iter_seconds,
                    "start_iteration": segment.start_iteration,
                    "n_iterations": n_iterations,
                    "phases": {call: list(span) for call, span in calls},
                },
            )
            if segment.switch_seconds > 0:
                # A segment cut inside its switch-in window ends before the
                # switch would have finished; clamp so the drawn span never
                # outlives the segment.
                recorder.add_span(
                    process, "segments", "param switch", segment.start,
                    min(segment.start + segment.switch_seconds, end),
                    category="switch",
                )
            for k in sorted({0, n_iterations - 1}) if n_iterations > 0 else ():
                base = first_boundary + k * segment.iter_seconds
                recorder.add_span(
                    process, "iterations", f"iter {segment.start_iteration + k}",
                    base, base + segment.iter_seconds, category="iteration",
                )
                for call, (span_start, span_end) in calls:
                    recorder.add_span(
                        process, call, call, base + span_start, base + span_end,
                        category="phase",
                    )

    def export_chrome_trace(self, path: str) -> str:
        """Write the merged Chrome trace of this run; returns the path."""
        recorder = TraceRecorder()
        self.record_chrome(recorder)
        return str(recorder.save(path))


def schedule_trace(
    cluster: ClusterSpec,
    jobs: Sequence[JobSpec],
    policy: Union[str, SchedulingPolicy] = "best_throughput",
    config: Optional[SchedulerConfig] = None,
    service: Optional[PlanService] = None,
    failures: Sequence[NodeFailure] = (),
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    provenance_path: Optional[str] = None,
) -> ScheduleReport:
    """Convenience wrapper: build a :class:`ClusterScheduler` and run it once."""
    scheduler = ClusterScheduler(
        cluster=cluster,
        jobs=jobs,
        policy=policy,
        config=config,
        service=service,
        failures=failures,
        trace_path=trace_path,
        metrics_path=metrics_path,
        provenance_path=provenance_path,
    )
    return scheduler.run()
