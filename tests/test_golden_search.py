"""Golden pins for seeded MCMC plan searches.

``tests/fixtures/golden_search.json`` (see
``tests/fixtures/make_golden_search.py``) holds ``repr(best_cost)``,
``best_plan.to_dict()`` and ``n_accepted`` of iteration-bound searches for
PPO and GRPO, two seeds and two budgets, plus three-chain cases that also
pin the cross-chain merge (``n_iterations``, ``initial_cost`` and the merged
history's ``(iteration, best_cost)`` pairs).  Every case must reproduce its pin
exactly — floats compared through ``repr`` — both as one uninterrupted
``search()`` and as a :class:`SearchSession` polled in slices.  Any change
to the proposal stream, the one-uniform-per-proposal acceptance draw or the
cost model moves at least one pin.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_golden_search import (  # noqa: E402  (fixture helpers double as regeneration script)
    GOLDEN_PATH,
    cases,
    multi_chain_cases,
    run_oneshot,
    run_sliced,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = list(cases())
MULTI_CHAIN_CASES = list(multi_chain_cases())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(name for name, *_ in CASES + MULTI_CHAIN_CASES)


@pytest.mark.parametrize("runner", [run_oneshot, run_sliced], ids=["oneshot", "sliced"])
@pytest.mark.parametrize(
    "name,algorithm,seed,iterations", CASES, ids=[name for name, *_ in CASES]
)
def test_search_matches_pin(runner, name, algorithm, seed, iterations):
    fresh = runner(algorithm, seed, iterations)
    golden = GOLDEN[name]
    assert fresh["best_cost"] == golden["best_cost"]
    assert fresh["n_accepted"] == golden["n_accepted"]
    # JSON round-trip: the pin stores tuples as lists.
    assert json.loads(json.dumps(fresh["best_plan"])) == golden["best_plan"]


@pytest.mark.parametrize("runner", [run_oneshot, run_sliced], ids=["oneshot", "sliced"])
@pytest.mark.parametrize(
    "name,algorithm,seed,iterations,n_chains",
    MULTI_CHAIN_CASES,
    ids=[name for name, *_ in MULTI_CHAIN_CASES],
)
def test_multi_chain_search_matches_pin(runner, name, algorithm, seed, iterations, n_chains):
    fresh = runner(algorithm, seed, iterations, n_chains)
    assert json.loads(json.dumps(fresh)) == GOLDEN[name]
