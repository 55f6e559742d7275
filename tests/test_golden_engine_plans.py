"""Exact runtime-engine pins beyond the Figure 11/12 setups.

``tests/fixtures/golden_engine_plans.json`` (regenerated by
``tests/fixtures/make_golden_engine_plans.py``) pins the engine's iteration
trace on ReMax and DPO symmetric plans, a PPO plan on disjoint sub-node
meshes (tied dispatch starts, reallocation over two meshes) and 20 seeded
random plans.  Floats are compared with ``==`` and every GPU's span list by
digest, so any change to dispatch order or to the time arithmetic fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_golden_engine_plans import (  # noqa: E402  (fixture helpers double as regeneration script)
    GOLDEN_PATH,
    engine,
    pin,
    scenarios,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh():
    runtime = engine()
    return {name: pin(runtime, graph, plan) for name, graph, plan in scenarios()}


def test_every_scenario_is_pinned(fresh):
    assert sorted(fresh) == sorted(GOLDEN)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_plan_unchanged(fresh, scenario):
    assert fresh[scenario]["plan"] == GOLDEN[scenario]["plan"]


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_trace_bit_identical(fresh, scenario):
    assert json.loads(json.dumps(fresh[scenario]["trace"])) == GOLDEN[scenario]["trace"]


def test_subnode_plan_exercises_ties_and_two_mesh_realloc():
    """The sub-node scenario keeps covering what it was built to cover."""
    trace = GOLDEN["ppo_subnode"]["trace"]
    starts = {trace["call_spans"][name][0]
              for name in ("ref_inference", "reward_inference", "critic_inference")}
    assert len(starts) == 1
    assert trace["realloc_seconds"] > 0
