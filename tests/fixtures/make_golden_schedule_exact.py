"""Regenerate the exact scheduler pins used by ``tests/test_golden_schedule_exact.py``.

``golden_schedule_exact.json`` pins, bit for bit, the outcome of four seeded
scheduling runs over the code paths the fleet benchmark never takes:

* ``priority`` — the priority policy preempting lower-priority jobs;
* ``elastic`` — ``best_throughput`` growing running jobs onto freed capacity;
* ``failures`` — ``first_fit`` with four node failures and recoveries, one
  of them landing exactly on an iteration boundary of a running job (the
  failure is handled first, so that boundary is lost);
* ``online`` — background re-planning with hot plan swaps.

Each pin holds the benchmark's report outcome (every float as its ``repr``),
the event count, the timeline, and the start, end, start iteration and end
iteration of every running segment.  Unlike the tolerance-based
``golden_schedule_*.json`` pins, any drift in event ordering or float
arithmetic shows up here.

Run from the repository root (only needed when intentionally re-baselining)::

    PYTHONPATH=src python tests/fixtures/make_golden_schedule_exact.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

FIXTURES = Path(__file__).resolve().parent
GOLDEN_PATH = FIXTURES / "golden_schedule_exact.json"
sys.path.insert(0, str(FIXTURES.parents[1]))  # the repository root, for perfbench

from perfbench.workloads import _report_outcome, fleet_trace, online_config  # noqa: E402
from repro.cluster import make_cluster  # noqa: E402
from repro.core import SearchConfig  # noqa: E402
from repro.sched import (  # noqa: E402
    ClusterScheduler,
    NodeFailure,
    ScheduleReport,
    SchedulerConfig,
)
from repro.service import PlanService  # noqa: E402

SCENARIOS = ("priority", "elastic", "failures", "online")


def _search() -> SearchConfig:
    return SearchConfig(max_iterations=30, time_budget_s=600.0, seed=0)


def _reprs(value: Any) -> Any:
    """``value`` with every float replaced by its ``repr`` (exact pins)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _reprs(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reprs(item) for item in value]
    return value


def _run(
    jobs: Sequence[Any],
    n_gpus: int,
    policy: str,
    config: SchedulerConfig,
    failures: Sequence[NodeFailure] = (),
) -> Tuple[ClusterScheduler, ScheduleReport]:
    with PlanService() as service:
        scheduler = ClusterScheduler(
            make_cluster(n_gpus), jobs, policy=policy, config=config,
            service=service, failures=failures,
        )
        return scheduler, scheduler.run()


def _boundary_failure(scheduler: ClusterScheduler, before: float) -> NodeFailure:
    """A failure exactly at the third iteration boundary of some segment.

    The boundary time follows the scheduler's own float recurrence (first
    boundary at ``(start + switch) + seconds_per_iteration``, each later one
    a further ``+ seconds_per_iteration``), so the failure and the boundary
    share one timestamp.  Only segments that reach the boundary before
    ``before`` qualify, so the other injected failures cannot have moved it.
    """
    for segment in scheduler._segments:
        boundary = segment.start + segment.switch_seconds + segment.iter_seconds
        boundary += segment.iter_seconds
        boundary += segment.iter_seconds
        if (
            segment.end is not None
            and segment.end_iteration - segment.start_iteration > 3
            and boundary < before
        ):
            # Partitions describe their hosts as ``trainerNN...`` (1-based).
            node = int(re.match(r"trainer\[?(\d+)", segment.partition).group(1)) - 1
            return NodeFailure(time=boundary, node=node, recovery_time=boundary + 900.0)
    raise RuntimeError("no segment reaches a third boundary before the failures")


def run_scenario(
    name: str, failures: Sequence[NodeFailure] = ()
) -> Tuple[ClusterScheduler, ScheduleReport]:
    """Run one scenario; ``failures`` replays a pinned failure list."""
    if name == "priority":
        jobs = [
            dataclasses.replace(spec, priority=index % 3)
            for index, spec in enumerate(fleet_trace(40, 7200.0, 3))
        ]
        return _run(jobs, 64, "priority", SchedulerConfig(search=_search()))
    if name == "elastic":
        jobs = fleet_trace(24, 7200.0, 5)
        return _run(jobs, 64, "best_throughput", SchedulerConfig(search=_search(), elastic=True))
    if name == "failures":
        jobs = fleet_trace(30, 7200.0, 4)
        config = SchedulerConfig(search=_search(), elastic=False)
        if not failures:
            failures = [
                NodeFailure(time=2400.0, node=1, recovery_time=3600.0),
                NodeFailure(time=4000.0, node=3, recovery_time=5000.0),
                NodeFailure(time=6100.0, node=0, recovery_time=7000.0),
            ]
            probe, _report = _run(jobs, 64, "first_fit", config, failures)
            failures.append(_boundary_failure(probe, before=failures[0].time))
        return _run(jobs, 64, "first_fit", config, failures)
    if name == "online":
        return _run(fleet_trace(20, 7200.0, 6), 128, "best_throughput", online_config())
    raise ValueError(f"unknown scenario {name!r}")


def pin(scheduler: ClusterScheduler, report: ScheduleReport) -> Dict[str, Any]:
    segments: List[List[Any]] = [
        [s.job, s.start, s.end, s.start_iteration, s.end_iteration]
        for s in scheduler._segments
    ]
    return _reprs(
        {
            "outcome": _report_outcome(report),
            "n_events": report.n_events,
            "timeline": report.timeline,
            "segments": segments,
            "failures": [dataclasses.asdict(f) for f in scheduler.failures],
        }
    )


def scenarios() -> Iterator[Tuple[str, Dict[str, Any]]]:
    for name in SCENARIOS:
        yield name, pin(*run_scenario(name))


def main() -> None:
    payload = dict(scenarios())
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
