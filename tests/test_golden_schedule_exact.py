"""Exact scheduler pins for the paths the fleet benchmark never takes.

``tests/fixtures/golden_schedule_exact.json`` (regenerated by
``tests/fixtures/make_golden_schedule_exact.py``) pins priority preemption,
elastic resizes, node failures (one exactly on an iteration boundary) and
online hot swaps bit for bit: report outcome, event count, timeline and
every running segment.  Any change to event ordering or to the float
arithmetic of progress and GPU-time accounting fails here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_golden_schedule_exact import (  # noqa: E402  (fixture helpers double as regeneration script)
    GOLDEN_PATH,
    SCENARIOS,
    pin,
    run_scenario,
)
from repro.sched import NodeFailure  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh(golden):
    pinned_failures = [
        NodeFailure(
            time=float(f["time"]), node=f["node"], recovery_time=float(f["recovery_time"])
        )
        for f in golden["failures"]["failures"]
    ]
    return {
        name: pin(*run_scenario(name, pinned_failures if name == "failures" else ()))
        for name in SCENARIOS
    }


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("part", ["outcome", "n_events", "timeline", "segments"])
def test_bit_identical(golden, fresh, scenario, part):
    assert fresh[scenario][part] == golden[scenario][part]


def test_scenarios_exercise_their_paths(golden):
    """The pins cover what they claim: preemptions, resizes, failures, swaps."""
    jobs = {name: golden[name]["outcome"]["jobs"] for name in SCENARIOS}
    assert sum(job["n_preemptions"] for job in jobs["priority"]) > 0
    assert sum(job["n_resizes"] for job in jobs["elastic"]) > 0
    assert golden["online"]["outcome"]["n_swaps"] > 0
    failures = golden["failures"]
    assert len(failures["failures"]) == 4
    # The failure placed on an iteration boundary displaced a running job.
    on_boundary = repr(round(float(failures["failures"][-1]["time"]), 4))
    assert any(
        entry["event"] == "displaced" and entry["time"] == on_boundary
        and entry["detail"].startswith("failure")
        for entry in failures["timeline"]
    )
