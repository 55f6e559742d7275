"""User-facing experiment API, mirroring the interface of the paper (Figure 18).

Users describe their RLHF workflow as a list of :class:`ModelFunctionCallDef`
objects (model name, model type, function-call type and data dependencies),
wrap the experiment in :func:`auto`, and ReaL derives an efficient execution
plan automatically.  :func:`find_execution_plan` is the programmatic
equivalent used by the examples and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..runtime.engine import IterationTrace
    from ..capacity.whatif import CapacityCandidate, CapacityReport
    from ..sched.metrics import ScheduleReport
    from ..sched.scheduler import NodeFailure, SchedulerConfig
    from ..service.server import PlanService

from ..cluster.hardware import ClusterSpec, make_cluster
from ..model.config import ModelConfig, get_model_config
from .dataflow import DataflowGraph, FunctionCallType, ModelFunctionCall
from .estimator import RuntimeEstimator
from .plan import ExecutionPlan
from .pruning import PruneConfig
from .search import MCMCSearcher, SearchConfig, SearchResult
from .workload import RLHFWorkload

__all__ = [
    "GENERATE",
    "INFERENCE",
    "TRAIN_STEP",
    "ModelFunctionCallDef",
    "ExperimentConfig",
    "auto",
    "build_graph_from_defs",
    "find_execution_plan",
    "run_iteration_trace",
    "schedule_jobs",
    "capacity_whatif",
]

# Aliases matching the paper's API surface.
GENERATE = FunctionCallType.GENERATE
INFERENCE = FunctionCallType.INFERENCE
TRAIN_STEP = FunctionCallType.TRAIN_STEP


@dataclass(frozen=True)
class ModelFunctionCallDef:
    """Declarative definition of one model function call.

    ``model_type`` names the architecture (e.g. ``"llama7b"`` or
    ``"llama7b-critic"``); calls sharing the same ``model_name`` must use the
    same architecture and share parameters.
    """

    model_name: str
    interface_type: FunctionCallType
    input_data: Tuple[str, ...] = ()
    output_data: Tuple[str, ...] = ()
    model_type: Optional[str] = None
    call_name: Optional[str] = None
    batch_scale: float = 1.0

    def resolved_name(self, index: int) -> str:
        """Unique call name: explicit name or ``<model>_<type>_<index>``."""
        if self.call_name:
            return self.call_name
        return f"{self.model_name}_{self.interface_type.value}_{index}"


def _parse_model_type(model_type: str) -> ModelConfig:
    """Parse a model-type string such as ``"llama7b"`` or ``"llama13b-critic"``."""
    text = model_type.lower()
    critic = "critic" in text
    for size in ("70b", "34b", "13b", "7b"):
        if size in text:
            return get_model_config(size, critic=critic)
    raise ValueError(f"cannot parse model type {model_type!r}")


def build_graph_from_defs(
    defs: Sequence[ModelFunctionCallDef],
    external_inputs: Sequence[str] = ("prompts",),
) -> Tuple[DataflowGraph, Dict[str, ModelConfig]]:
    """Build a dataflow graph and model-config map from call definitions."""
    calls: List[ModelFunctionCall] = []
    configs: Dict[str, ModelConfig] = {}
    for index, call_def in enumerate(defs):
        calls.append(
            ModelFunctionCall(
                name=call_def.resolved_name(index),
                model_name=call_def.model_name,
                call_type=call_def.interface_type,
                input_keys=tuple(call_def.input_data),
                output_keys=tuple(call_def.output_data),
                batch_scale=call_def.batch_scale,
            )
        )
        if call_def.model_type is not None:
            config = _parse_model_type(call_def.model_type)
            existing = configs.get(call_def.model_name)
            if existing is not None and existing.name != config.name:
                raise ValueError(
                    f"model {call_def.model_name!r} declared with two architectures "
                    f"({existing.name} vs {config.name})"
                )
            configs[call_def.model_name] = config
    graph = DataflowGraph(calls=calls, external_inputs=tuple(external_inputs), name="custom")
    missing = set(graph.model_names()) - set(configs)
    if missing:
        raise ValueError(f"no model_type declared for models: {sorted(missing)}")
    return graph, configs


@dataclass
class ExperimentConfig:
    """A fully specified experiment ready for plan search and execution."""

    graph: DataflowGraph
    workload: RLHFWorkload
    cluster: ClusterSpec
    search: SearchConfig = field(default_factory=SearchConfig)
    prune: PruneConfig = field(default_factory=PruneConfig)
    estimator: Optional[RuntimeEstimator] = None
    """Shared fast-path estimator.  Built lazily on the first search and
    reused by every subsequent one, so the memoised per-call/per-edge costs
    carry over across repeated searches of the same experiment."""

    def get_estimator(self) -> RuntimeEstimator:
        """The (lazily built) estimator for this experiment."""
        if self.estimator is None:
            self.estimator = RuntimeEstimator(self.graph, self.workload, self.cluster)
        return self.estimator

    def run_search(self) -> SearchResult:
        """Search for an efficient execution plan for this experiment.

        The search runs directly on the experiment's shared estimator; for
        cached, warm-started planning, send a
        :class:`~repro.service.server.PlanRequest` to
        :meth:`PlanService.plan <repro.service.server.PlanService.plan>`.
        """
        return MCMCSearcher(
            graph=self.graph,
            workload=self.workload,
            cluster=self.cluster,
            estimator=self.get_estimator(),
            prune=self.prune,
            config=self.search,
        ).search()


def auto(
    rpcs: Sequence[ModelFunctionCallDef],
    n_gpus: int,
    batch_size: int = 512,
    prompt_len: int = 1024,
    gen_len: int = 1024,
    n_ppo_minibatches: int = 8,
    gpus_per_node: int = 8,
    search: SearchConfig = SearchConfig(),
    prune: PruneConfig = PruneConfig(),
    external_inputs: Sequence[str] = ("prompts",),
) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from declarative function-call defs.

    This mirrors the ``@auto`` decorator of the paper's user API: given the
    RPC definitions, the batch size and the cluster size, it assembles the
    dataflow graph, the workload and the cluster so that calling
    :meth:`ExperimentConfig.run_search` yields the execution plan.
    """
    graph, configs = build_graph_from_defs(rpcs, external_inputs=external_inputs)
    workload = RLHFWorkload(
        model_configs=configs,
        batch_size=batch_size,
        prompt_len=prompt_len,
        gen_len=gen_len,
        n_ppo_minibatches=n_ppo_minibatches,
    )
    cluster = make_cluster(n_gpus, gpus_per_node=gpus_per_node)
    return ExperimentConfig(
        graph=graph, workload=workload, cluster=cluster, search=search, prune=prune
    )


def _named_experiment(
    algorithm: str,
    actor_size: str,
    critic_size: str,
    n_gpus: int,
    batch_size: int,
    prompt_len: int,
    gen_len: int,
    n_ppo_minibatches: int,
    gpus_per_node: int,
    search: SearchConfig,
    prune: PruneConfig,
) -> ExperimentConfig:
    """The experiment of a named RLHF algorithm on an InstructGPT workload."""
    from ..algorithms.registry import build_graph  # local import avoids a cycle
    from .workload import instructgpt_workload

    return ExperimentConfig(
        graph=build_graph(algorithm),
        workload=instructgpt_workload(
            actor_size=actor_size,
            critic_size=critic_size,
            batch_size=batch_size,
            prompt_len=prompt_len,
            gen_len=gen_len,
            n_ppo_minibatches=n_ppo_minibatches,
        ),
        cluster=make_cluster(n_gpus, gpus_per_node=gpus_per_node),
        search=search,
        prune=prune,
    )


def find_execution_plan(
    algorithm: str,
    actor_size: str,
    critic_size: str,
    n_gpus: int,
    batch_size: int = 512,
    prompt_len: int = 1024,
    gen_len: int = 1024,
    n_ppo_minibatches: int = 8,
    gpus_per_node: int = 8,
    search: SearchConfig = SearchConfig(),
    prune: PruneConfig = PruneConfig(),
) -> Tuple[SearchResult, ExperimentConfig]:
    """One-call entry point: search a plan for a named RLHF algorithm.

    Returns the search result together with the assembled experiment (graph,
    workload and cluster) so callers can evaluate or execute the plan.
    """
    experiment = _named_experiment(
        algorithm, actor_size, critic_size, n_gpus, batch_size, prompt_len,
        gen_len, n_ppo_minibatches, gpus_per_node, search, prune,
    )
    return experiment.run_search(), experiment


def run_iteration_trace(
    algorithm: str,
    actor_size: str = "7b",
    critic_size: str = "7b",
    n_gpus: int = 16,
    batch_size: int = 512,
    prompt_len: int = 1024,
    gen_len: int = 1024,
    n_ppo_minibatches: int = 8,
    gpus_per_node: int = 8,
    plan: Optional[ExecutionPlan] = None,
    search: SearchConfig = SearchConfig(),
    prune: PruneConfig = PruneConfig(),
    trace_path: Optional[str] = None,
) -> Tuple["IterationTrace", ExperimentConfig]:
    """Simulate one RLHF iteration on the runtime engine and return its trace.

    When ``plan`` is omitted the execution plan is searched first (exactly
    like :func:`find_execution_plan`); the plan is then executed for one
    iteration on the discrete-event runtime engine, yielding the full
    :class:`~repro.runtime.engine.IterationTrace` — per-call spans and
    per-GPU cost-category seconds (the plan's memory estimate is
    ``experiment.get_estimator().max_memory(plan)``).  ``trace_path`` exports
    the iteration as Chrome-trace JSON (``chrome://tracing`` / Perfetto).
    """
    from ..runtime.engine import RuntimeEngine  # local import avoids a cycle

    named = (algorithm, actor_size, critic_size, n_gpus, batch_size, prompt_len,
             gen_len, n_ppo_minibatches, gpus_per_node, search, prune)
    if plan is None:
        result, experiment = find_execution_plan(*named)
        plan = result.best_plan
    else:
        experiment = _named_experiment(*named)
    engine = RuntimeEngine(experiment.cluster, experiment.workload)
    trace = engine.run_iteration(experiment.graph, plan)
    if trace_path is not None:
        trace.export_chrome_trace(trace_path)
    return trace, experiment


def schedule_jobs(
    jobs: Sequence["object"],
    n_gpus: int,
    gpus_per_node: int = 8,
    policy: str = "best_throughput",
    config: Optional["SchedulerConfig"] = None,
    service: Optional["PlanService"] = None,
    failures: Sequence["NodeFailure"] = (),
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> "ScheduleReport":
    """One-call entry point of the multi-job cluster scheduler.

    ``jobs`` is a sequence of :class:`~repro.sched.job.JobSpec` objects; the
    shared cluster is assembled like :func:`find_execution_plan` does, the
    jobs are scheduled under the named policy (``first_fit``,
    ``best_throughput``, ``priority`` or ``static_equal``) and the schedule
    report (per-job queue waits, makespan, aggregate iterations/sec, GPU
    utilization) is returned.  Passing a
    :class:`~repro.service.server.PlanService` shares the plan cache with
    other callers; otherwise the scheduler owns (and closes) a private one.
    ``trace_path`` exports one merged Chrome trace spanning cluster events,
    live counter tracks and every job's engine-profiled iteration phases;
    ``metrics_path`` writes the run's ``METRICS_*.json`` registry snapshot
    (defaults to ``METRICS_<trace stem>.json`` next to an exported trace).
    """
    from ..sched.scheduler import schedule_trace  # local import avoids a cycle

    cluster = make_cluster(n_gpus, gpus_per_node=gpus_per_node)
    return schedule_trace(
        cluster=cluster,
        jobs=jobs,
        policy=policy,
        config=config,
        service=service,
        failures=failures,
        trace_path=trace_path,
        metrics_path=metrics_path,
    )


def capacity_whatif(
    jobs: Sequence["object"],
    candidates: Sequence["CapacityCandidate"],
    config: Optional["SchedulerConfig"] = None,
    service: Optional["PlanService"] = None,
    report_path: Optional[str] = None,
) -> "CapacityReport":
    """One-call capacity what-if: replay a job trace against a cluster grid.

    ``jobs`` is a sequence of :class:`~repro.sched.job.JobSpec` objects (for
    fleet-sized traces, see
    :func:`~repro.capacity.fleet.generate_fleet_trace`); ``candidates`` is
    the grid of :class:`~repro.capacity.whatif.CapacityCandidate` cluster
    shapes × policies to compare.  Every candidate replays the same trace
    through one shared :class:`~repro.service.server.PlanService` — carved
    partition specs are location- and parent-size-erased, so plans searched
    for the first candidate are cache hits for the rest.  Returns the
    :class:`~repro.capacity.whatif.CapacityReport` with per-candidate
    outcomes and the Pareto cost/throughput ``frontier``; ``report_path``
    additionally writes the machine-readable report JSON there.
    """
    from ..capacity.whatif import capacity_whatif as _capacity_whatif

    report = _capacity_whatif(jobs, candidates, config=config, service=service)
    if report_path is not None:
        report.save(report_path)
    return report
