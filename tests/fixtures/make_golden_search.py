"""Regenerate the MCMC search pins used by ``tests/test_golden_search.py``.

``golden_search.json`` pins the outcome of seeded, iteration-bound plan
searches: ``repr(best_cost)``, ``best_plan.to_dict()`` and ``n_accepted``
for PPO and GRPO, two seeds and two iteration budgets.  Every case is run
both as one-shot :meth:`MCMCSearcher.search` and as a :class:`SearchSession`
polled in slices; both must reproduce the pins exactly.  Any change to the
proposal stream, the acceptance rule or the cost model shows up here.

Run from the repository root (only needed when intentionally re-baselining)::

    PYTHONPATH=src python tests/fixtures/make_golden_search.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.algorithms import build_grpo_graph, build_ppo_graph
from repro.cluster import make_cluster
from repro.core import MCMCSearcher, SearchConfig, SearchSession, instructgpt_workload

FIXTURES = Path(__file__).resolve().parent
GOLDEN_PATH = FIXTURES / "golden_search.json"

ALGORITHMS = ("ppo", "grpo")
SEEDS = (1, 7)
ITERATIONS = (60, 400)
SLICE_ITERATIONS = 37


def case_name(algorithm: str, seed: int, iterations: int) -> str:
    return f"{algorithm}_seed{seed}_it{iterations}"


def cases() -> Iterator[Tuple[str, str, int, int]]:
    for algorithm in ALGORITHMS:
        for seed in SEEDS:
            for iterations in ITERATIONS:
                yield case_name(algorithm, seed, iterations), algorithm, seed, iterations


def make_searcher(algorithm: str, seed: int, iterations: int) -> MCMCSearcher:
    graph = build_ppo_graph() if algorithm == "ppo" else build_grpo_graph()
    workload = instructgpt_workload("7b", "7b", batch_size=128)
    config = SearchConfig(
        max_iterations=iterations,
        time_budget_s=600.0,
        seed=seed,
        n_chains=1,
    )
    return MCMCSearcher(graph, workload, make_cluster(16), config=config)


def pin(result) -> Dict:
    return {
        "best_cost": repr(result.best_cost),
        "best_plan": result.best_plan.to_dict(),
        "n_accepted": result.n_accepted,
    }


def run_oneshot(algorithm: str, seed: int, iterations: int) -> Dict:
    return pin(make_searcher(algorithm, seed, iterations).search())


def run_sliced(algorithm: str, seed: int, iterations: int) -> Dict:
    session = SearchSession(
        make_searcher(algorithm, seed, iterations),
        slice_iterations=SLICE_ITERATIONS,
    )
    while not session.done:
        session.poll()
    return pin(session.stop())


def main() -> None:
    golden = {
        name: run_oneshot(algorithm, seed, iterations)
        for name, algorithm, seed, iterations in cases()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
