"""repro: a reproduction of "ReaL: Efficient RLHF Training of Large Language
Models with Parameter Reallocation" (MLSys 2025).

The package is organised by subsystem:

* :mod:`repro.cluster` — the simulated hardware substrate (GPUs, meshes, links).
* :mod:`repro.model` — LLaMA-3 configurations and analytical FLOP/memory models.
* :mod:`repro.core` — dataflow graphs, execution plans, the profiling-assisted
  estimator and the MCMC execution-plan search (the paper's core contribution).
* :mod:`repro.realloc` — parameter reallocation between 3D layouts (Figure 6).
* :mod:`repro.runtime` — the runtime engine (list scheduling on GPU timelines).
* :mod:`repro.algorithms` — PPO, DPO, GRPO and ReMax dataflow graphs.
* :mod:`repro.baselines` — DeepSpeed-Chat, OpenRLHF, NeMo-Aligner, veRL and the
  Megatron heuristic as strategy models, plus ReaL itself.
* :mod:`repro.service` — planner-as-a-service: workload fingerprinting, an
  in-memory LRU plan cache, warm-started searches and a plan server that
  serves each request on the caller's thread.
* :mod:`repro.sched` — multi-job cluster scheduler: elastic, plan-service-
  driven scheduling of concurrent RLHF jobs over one shared cluster.
* :mod:`repro.sim` — the discrete-event kernel the scheduler runs on, and the
  resource timelines and Chrome-trace exporter both simulators share.
* :mod:`repro.capacity` — synthetic fleet traces and capacity what-if grids.
* :mod:`repro.obs` — metrics registry, structured logging, causal tracing,
  the decision-provenance ledger and the run-report CLI.
* :mod:`repro.experiments` — settings, metrics and runners for every figure.
* :mod:`repro.knobs` — the declared ``REPRO_*`` environment knobs and their
  one strict parser.
"""

from . import (
    algorithms,
    baselines,
    cluster,
    core,
    experiments,
    model,
    realloc,
    runtime,
    sched,
    service,
)
from .cluster import ClusterSpec, DeviceMesh, make_cluster
from .core import (
    Allocation,
    DataflowGraph,
    ExecutionPlan,
    FunctionCallType,
    ModelFunctionCall,
    ParallelStrategy,
    RLHFWorkload,
    RuntimeEstimator,
    SearchConfig,
    instructgpt_workload,
)
from .runtime import RuntimeEngine
from .sched import ClusterScheduler, JobSpec, NodeFailure, ScheduleReport, schedule_trace
from .service import PlanRequest, PlanService

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "cluster",
    "model",
    "core",
    "realloc",
    "runtime",
    "algorithms",
    "baselines",
    "experiments",
    "sched",
    "service",
    "ClusterSpec",
    "DeviceMesh",
    "make_cluster",
    "FunctionCallType",
    "ModelFunctionCall",
    "DataflowGraph",
    "ParallelStrategy",
    "Allocation",
    "ExecutionPlan",
    "RLHFWorkload",
    "instructgpt_workload",
    "RuntimeEstimator",
    "SearchConfig",
    "RuntimeEngine",
    "PlanService",
    "PlanRequest",
    "JobSpec",
    "NodeFailure",
    "ClusterScheduler",
    "ScheduleReport",
    "schedule_trace",
]
