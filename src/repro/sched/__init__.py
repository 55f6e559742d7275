"""Multi-job cluster scheduler: elastic, plan-service-driven GPU scheduling.

The paper plans one RLHF job on a dedicated cluster; this subsystem carves
one shared cluster into mesh-shaped partitions and multiplexes a stream of
concurrent RLHF jobs across them:

* :mod:`repro.sched.job` — job specs (algorithm, sizes, priority, arrival,
  target iterations, elastic GPU range) and runtime records.
* :mod:`repro.sched.partition` — located mesh-shaped partitions carved via
  :meth:`ClusterSpec.sub_cluster`, plus free/failed GPU bookkeeping.
* :mod:`repro.sched.costing` — scoring (job, partition) candidates through
  the shared :class:`~repro.service.server.PlanService` (exact-key cache
  across same-shaped partitions, a per-run memo that sends each (job type,
  shape) key once, warm-started replans for displaced jobs).
* :mod:`repro.sched.policies` — first-fit, best-aggregate-throughput
  packing, priority/preemption, and the naive static-equal baseline.
* :mod:`repro.sched.scheduler` — the discrete-event loop over arrivals,
  completions, elastic resizes and injected node failures.
* :mod:`repro.sched.metrics` — per-job and cluster-level schedule metrics.
"""

from .costing import Candidate, PlanCosting
from .job import Job, JobPhase, JobSpec
from .metrics import JobMetrics, ScheduleReport, SearchTimeStats
from .partition import Partition, PartitionManager
from .profiles import IterationProfile, IterationProfiler, MigrationCostModel
from .policies import (
    BestThroughputPolicy,
    FirstFitPolicy,
    PolicyDecision,
    PriorityPolicy,
    SchedulingPolicy,
    StaticEqualPolicy,
    available_policies,
    get_policy,
)
from .scheduler import ClusterScheduler, NodeFailure, SchedulerConfig, schedule_trace

__all__ = [
    "JobSpec",
    "JobPhase",
    "Job",
    "Partition",
    "PartitionManager",
    "Candidate",
    "PlanCosting",
    "IterationProfile",
    "IterationProfiler",
    "MigrationCostModel",
    "PolicyDecision",
    "SchedulingPolicy",
    "FirstFitPolicy",
    "BestThroughputPolicy",
    "PriorityPolicy",
    "StaticEqualPolicy",
    "available_policies",
    "get_policy",
    "NodeFailure",
    "SchedulerConfig",
    "ClusterScheduler",
    "schedule_trace",
    "JobMetrics",
    "SearchTimeStats",
    "ScheduleReport",
]
