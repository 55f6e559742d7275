"""Regenerate the engine pins used by ``tests/test_golden_engine_plans.py``.

``golden_engine_plans.json`` pins, bit for bit, the runtime engine's
:class:`~repro.runtime.IterationTrace` on plans the Figure 11/12 goldens
(``golden_engine_*.json``, see ``make_golden.py``) do not cover:

* ``remax_symmetric`` and ``dpo_symmetric`` — the other two algorithms on
  the symmetric 16-GPU plan;
* ``ppo_subnode`` — PPO with its inference and training calls on disjoint
  4-GPU sub-node meshes, so ready calls tie on their start time (the
  dispatch order falls back to the call name) and a reallocation runs over
  the union of two disjoint meshes;
* ``random_00`` .. ``random_19`` — seeded random plans, one option per call
  drawn from :func:`~repro.core.allocation_options`, alternating PPO and
  GRPO.

Each pin holds the plan, every field of ``make_golden._trace_payload`` and a
sha256 per GPU of that GPU's busy spans ``(name, category, start, end)`` in
order, floats at ``repr`` precision.

Run from the repository root (only needed when intentionally re-baselining)::

    PYTHONPATH=src python tests/fixtures/make_golden_engine_plans.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

FIXTURES = Path(__file__).resolve().parent
GOLDEN_PATH = FIXTURES / "golden_engine_plans.json"
sys.path.insert(0, str(FIXTURES))

from make_golden import _trace_payload  # noqa: E402
from repro.algorithms import build_graph  # noqa: E402
from repro.cluster import DeviceMesh, make_cluster  # noqa: E402
from repro.core import (  # noqa: E402
    Allocation,
    DataflowGraph,
    ExecutionPlan,
    ParallelStrategy,
    allocation_options,
    instructgpt_workload,
    symmetric_plan,
)
from repro.runtime import RuntimeEngine  # noqa: E402

N_RANDOM_PLANS = 20


def gpu_span_digests(trace) -> Dict[str, str]:
    """sha256 of each GPU's busy spans ``(name, category, start, end)``."""
    digests = {}
    for gpu, spans in sorted(trace.gpu_spans.items()):
        rows = [[s.name, s.category, s.start, s.end] for s in spans]
        digests[str(gpu)] = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    return digests


def _subnode_plan(graph: DataflowGraph, cluster) -> ExecutionPlan:
    def quarter(node: int, gpu_start: int) -> Allocation:
        return Allocation(DeviceMesh(cluster, node, 1, gpu_start, 4), ParallelStrategy(1, 4, 1), 2)

    plan = symmetric_plan(graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
    return (
        plan.with_assignment("ref_inference", quarter(0, 0))
        .with_assignment("reward_inference", quarter(0, 4))
        .with_assignment("critic_inference", quarter(1, 0))
        .with_assignment("critic_train", quarter(1, 4))
    )


def _random_plan(graph: DataflowGraph, options, seed: int) -> ExecutionPlan:
    rng = random.Random(seed)
    return ExecutionPlan(
        {name: rng.choice(options[name]) for name in graph.call_names},
        name=f"random_{seed:02d}",
    )


def scenarios() -> Iterator[Tuple[str, DataflowGraph, ExecutionPlan]]:
    """``(name, graph, plan)`` of every pinned scenario, on one 16-GPU cluster."""
    cluster = make_cluster(16)
    workload = instructgpt_workload("7b", "7b", batch_size=128)
    for algorithm in ("remax", "dpo"):
        graph = build_graph(algorithm)
        yield (f"{algorithm}_symmetric", graph,
               symmetric_plan(graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8))
    ppo = build_graph("ppo")
    yield "ppo_subnode", ppo, _subnode_plan(ppo, cluster)
    graphs = {algorithm: build_graph(algorithm) for algorithm in ("ppo", "grpo")}
    options = {
        algorithm: allocation_options(graph, workload, cluster)
        for algorithm, graph in graphs.items()
    }
    for seed in range(N_RANDOM_PLANS):
        algorithm = ("ppo", "grpo")[seed % 2]
        graph = graphs[algorithm]
        yield f"random_{seed:02d}", graph, _random_plan(graph, options[algorithm], seed)


def engine() -> RuntimeEngine:
    return RuntimeEngine(make_cluster(16), instructgpt_workload("7b", "7b", batch_size=128))


def pin(engine: RuntimeEngine, graph: DataflowGraph, plan: ExecutionPlan) -> dict:
    """The pinned payload of one scenario."""
    payload = _trace_payload(engine, graph, plan)
    payload["gpu_span_sha256"] = gpu_span_digests(engine.run_iteration(graph, plan))
    return {"plan": plan.to_dict(), "trace": payload}


def main() -> None:
    runtime = engine()
    golden = {name: pin(runtime, graph, plan) for name, graph, plan in scenarios()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} scenarios)")


if __name__ == "__main__":
    main()
