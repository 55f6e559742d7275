"""Regenerate the MCMC search pins used by ``tests/test_golden_search.py``.

``golden_search.json`` pins the outcome of seeded, iteration-bound plan
searches: ``repr(best_cost)``, ``best_plan.to_dict()`` and ``n_accepted``
for PPO and GRPO, two seeds and two iteration budgets.  Every case is run
both as one-shot :meth:`MCMCSearcher.search` and as a :class:`SearchSession`
polled in slices; both must reproduce the pins exactly.  Any change to the
proposal stream, the acceptance rule or the cost model shows up here.

The multi-chain cases (``chains3_``) also pin what the cross-chain merge
decides: ``n_iterations`` (the budget remainder goes to the first chains),
``repr(initial_cost)`` and the merged history's ``(iteration, best_cost)``
pairs (chain-major iteration offsets, a running best that moves only on a
strict ``<``).  The history's wall-clock ``elapsed`` field is left out.

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
MULTI_CHAIN_CHAINS = 3
MULTI_CHAIN_ITERATIONS = 100
"""Not a multiple of the chain count, so the first chain takes a remainder."""


def case_name(algorithm: str, seed: int, iterations: int, n_chains: int = 1) -> str:
    name = f"{algorithm}_seed{seed}_it{iterations}"
    return name if n_chains == 1 else f"chains{n_chains}_{name}"


def cases() -> Iterator[Tuple[str, str, int, int]]:
    for algorithm in ALGORITHMS:
        for seed in SEEDS:
            for iterations in ITERATIONS:
                yield case_name(algorithm, seed, iterations), algorithm, seed, iterations


def multi_chain_cases() -> Iterator[Tuple[str, str, int, int, int]]:
    for algorithm in ALGORITHMS:
        for seed in SEEDS:
            yield (
                case_name(algorithm, seed, MULTI_CHAIN_ITERATIONS, MULTI_CHAIN_CHAINS),
                algorithm,
                seed,
                MULTI_CHAIN_ITERATIONS,
                MULTI_CHAIN_CHAINS,
            )


def make_searcher(
    algorithm: str, seed: int, iterations: int, n_chains: int = 1
) -> MCMCSearcher:
    graph = build_ppo_graph() if algorithm == "ppo" else build_grpo_graph()
    workload = instructgpt_workload("7b", "7b", batch_size=128)
    config = SearchConfig(
        max_iterations=iterations,
        time_budget_s=600.0,
        seed=seed,
        n_chains=n_chains,
    )
    return MCMCSearcher(graph, workload, make_cluster(16), config=config)


def pin(result) -> Dict:
    pinned = {
        "best_cost": repr(result.best_cost),
        "best_plan": result.best_plan.to_dict(),
        "n_accepted": result.n_accepted,
    }
    if result.n_chains > 1:
        pinned.update(
            n_iterations=result.n_iterations,
            initial_cost=repr(result.initial_cost),
            history=[[iteration, repr(best)] for iteration, _, best in result.history],
        )
    return pinned


def run_oneshot(algorithm: str, seed: int, iterations: int, n_chains: int = 1) -> Dict:
    return pin(make_searcher(algorithm, seed, iterations, n_chains).search())


def run_sliced(algorithm: str, seed: int, iterations: int, n_chains: int = 1) -> Dict:
    session = SearchSession(
        make_searcher(algorithm, seed, iterations, n_chains),
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
    golden.update(
        (name, run_oneshot(algorithm, seed, iterations, n_chains))
        for name, algorithm, seed, iterations, n_chains in multi_chain_cases()
    )
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
