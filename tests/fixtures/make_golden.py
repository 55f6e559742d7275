"""Regenerate the golden trace fixtures used by ``tests/test_golden_traces.py``.

The fixtures pin the observable outputs of the two discrete-event simulators
*before* they were rebuilt on the shared :mod:`repro.sim` kernel:

* ``golden_engine_<scenario>.json`` — full :class:`IterationTrace` dumps of
  the runtime engine on the Figure 11/12 setups (PPO and GRPO, symmetric and
  heterogeneous plans).  The kernel-based engine must reproduce these
  **bit-identically** (floats are stored at full ``repr`` precision and
  compared with ``==``).
* ``golden_schedule_<scenario>.json`` — :class:`ScheduleReport` dumps of the
  cluster scheduler on a small deterministic two-job (PPO + GRPO) trace.
  The trace-driven scheduler intentionally improves the progress model
  (engine-derived per-iteration times instead of the estimator scalar,
  iteration-granular progress, migration costs), so the golden test asserts
  agreement within a documented tolerance rather than equality.

Run from the repository root (only needed when intentionally re-baselining)::

    PYTHONPATH=src python tests/fixtures/make_golden.py

This rewrites the engine fixtures only.  The schedule fixtures hold the
*pre-kernel* baseline that ``TestSchedulerWithinTolerance`` and
``test_failure_delta_is_the_documented_improvement`` measure the current
scheduler against; regenerating them from current code would make those
tests compare the scheduler with itself.  They are rewritten only with an
explicit ``--schedule-baselines``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.algorithms import build_graph
from repro.cluster import DeviceMesh, make_cluster
from repro.core import (
    Allocation,
    ParallelStrategy,
    RuntimeEstimator,
    SearchConfig,
    instructgpt_workload,
    symmetric_plan,
)
from repro.runtime import RuntimeEngine
from repro.sched import JobSpec, NodeFailure, SchedulerConfig, schedule_trace

FIXTURES = Path(__file__).resolve().parent


def _trace_payload(engine, graph, plan):
    trace = engine.run_iteration(graph, plan)
    return {
        "total_seconds": trace.total_seconds,
        "call_spans": {name: list(span) for name, span in trace.call_spans.items()},
        "call_totals": {
            name: bd.total for name, bd in trace.call_breakdowns.items()
        },
        "gpu_category_seconds": {
            str(gpu): dict(sorted(cats.items()))
            for gpu, cats in trace.gpu_category_seconds.items()
        },
        "realloc_seconds": trace.realloc_seconds,
        "data_transfer_seconds": trace.data_transfer_seconds,
        "memory_max_bytes": RuntimeEstimator(
            graph, engine.workload, engine.cluster, use_cuda_graph=engine.use_cuda_graph
        ).max_memory(plan).max_bytes,
        "gpu_time_fractions": trace.gpu_time_fractions(),
        "category_totals": dict(sorted(trace.category_totals().items())),
    }


def engine_scenarios():
    cluster = make_cluster(16)
    workload = instructgpt_workload("7b", "7b", batch_size=128)

    ppo = build_graph("ppo")
    sym = symmetric_plan(ppo, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
    node0 = DeviceMesh(cluster, 0, 1, 0, 8)
    node1 = DeviceMesh(cluster, 1, 1, 0, 8)
    hetero = (
        sym.with_assignment("ref_inference", Allocation(node0, ParallelStrategy(1, 8, 1), 2))
        .with_assignment("reward_inference", Allocation(node1, ParallelStrategy(1, 8, 1), 2))
        .with_assignment("critic_inference", Allocation(node1, ParallelStrategy(1, 8, 1), 2))
    )
    grpo = build_graph("grpo")
    grpo_sym = symmetric_plan(grpo, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)

    scenarios = {
        "ppo_symmetric": (ppo, sym),
        "ppo_heterogeneous": (ppo, hetero),
        "grpo_symmetric": (grpo, grpo_sym),
    }
    engine = RuntimeEngine(cluster, workload)
    for name, (graph, plan) in scenarios.items():
        payload = {
            "scenario": name,
            "cluster": {"n_gpus": cluster.n_gpus, "gpus_per_node": cluster.gpus_per_node},
            "plan": plan.to_dict(),
            "trace": _trace_payload(engine, graph, plan),
            "throughput": {
                "seconds_per_iteration":
                    engine.measure_throughput(graph, plan).seconds_per_iteration,
            },
        }
        yield name, payload


def golden_scheduler_config() -> SchedulerConfig:
    """Deterministic scheduler budget shared by capture and regression test."""
    return SchedulerConfig(
        search=SearchConfig(
            max_iterations=40,
            time_budget_s=60.0,
            record_history=False,
            seed=0,
        )
    )


def golden_jobs():
    return [
        JobSpec(name="ppo-a", algorithm="ppo", batch_size=64,
                target_iterations=6, min_gpus=8, max_gpus=8),
        JobSpec(name="grpo-b", algorithm="grpo", batch_size=64,
                target_iterations=4, min_gpus=8, max_gpus=8,
                arrival_time=10.0),
    ]


def schedule_scenarios():
    scenarios = {
        "clean": (),
        "failure": (NodeFailure(time=40.0, node=0, recovery_time=90.0),),
    }
    for name, failures in scenarios.items():
        report = schedule_trace(
            cluster=make_cluster(16),
            jobs=golden_jobs(),
            policy="first_fit",
            config=golden_scheduler_config(),
            failures=list(failures),
        )
        payload = {
            "scenario": name,
            "makespan": report.makespan,
            "busy_horizon": report.busy_horizon,
            "total_iterations": report.total_iterations,
            "n_replans": report.n_replans,
            "n_preemptions": report.n_preemptions,
            "n_resizes": report.n_resizes,
            "jobs": {
                job.name: {
                    "first_started_at": job.first_started_at,
                    "completed_at": job.completed_at,
                    "iterations": job.iterations,
                    "gpu_seconds": job.gpu_seconds,
                    "phase": job.phase,
                }
                for job in report.jobs
            },
            "timeline_events": [e["event"] for e in report.timeline],
        }
        yield name, payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--schedule-baselines", action="store_true",
        help="also overwrite the pre-kernel golden_schedule_*.json baselines",
    )
    args = parser.parse_args()
    for name, payload in engine_scenarios():
        path = FIXTURES / f"golden_engine_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if not args.schedule_baselines:
        return
    for name, payload in schedule_scenarios():
        path = FIXTURES / f"golden_schedule_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
