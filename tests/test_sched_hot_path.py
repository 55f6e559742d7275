"""The fleet replay's hot path keeps every outcome of the plain version.

* ``ClusterScheduler._settle`` banks skipped iteration boundaries in one
  loop over locals; it must equal, field for field, banking each boundary
  through :meth:`Job.accrue_gpu_time` as its own kernel event would.
* A scheduler builds each job type's graph and workload once and hands the
  same objects to every job of that type; graphs are frozen so sharing is
  safe.
* A :class:`PlanService` keeps one exact remap cost model per carved
  cluster, so a replay on a service that already ran it plans no remap,
  while a fresh service plans them again.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import (
    ALGORITHMS,
    build_dpo_graph,
    build_grpo_graph,
    build_ppo_graph,
    register_algorithm,
)
from repro.capacity import FleetTraceConfig, fleet_scheduler_config, generate_fleet_trace
from repro.cluster import DeviceMesh, make_cluster
from repro.core import (
    Allocation,
    ParallelStrategy,
    SearchConfig,
    instructgpt_workload,
    symmetric_plan,
)
from repro.model import get_model_config
from repro.realloc import ReallocCostModel
from repro.realloc import cost as realloc_cost
from repro.sched import ClusterScheduler, Job, JobSpec, Partition
from repro.service import PlanService, server

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root
from perfbench.workloads import _report_outcome  # noqa: E402

SPEC = JobSpec(name="probe", batch_size=64)
GRAPH = SPEC.build_graph()
WORKLOAD = SPEC.build_workload()
PARTITIONS = {
    n_gpus: Partition(DeviceMesh(make_cluster(32), 0, n_gpus // 8, 0, 8)) for n_gpus in (8, 16, 32)
}
SCHEDULER = ClusterScheduler(make_cluster(8), [], service=PlanService())


# ---------------------------------------------------------------------- #
# Settling skipped boundaries
# ---------------------------------------------------------------------- #
def _reference_settle(job: Job, busy_until: float, until: float, inclusive: bool):
    """One boundary at a time, each through ``Job.accrue_gpu_time``."""
    limit = job.armed_boundaries - 1
    boundary = job.next_boundary_at
    banked = 0
    while banked < limit and (boundary <= until if inclusive else boundary < until):
        job.accrue_gpu_time(boundary)
        busy_until = max(busy_until, boundary)
        job.iterations_done += 1.0
        job.iteration_started_at = boundary
        boundary += job.seconds_per_iteration
        banked += 1
    job.next_boundary_at = boundary
    job.armed_boundaries -= banked
    return busy_until, banked


def _settled_fields(job: Job):
    return (
        job.gpu_seconds,
        job.iterations_done,
        job.iteration_started_at,
        job.segment_started_at,
        job.next_boundary_at,
        job.armed_boundaries,
    )


@given(
    start=st.floats(0.0, 1e5),
    switch=st.sampled_from([0.0, 0.1, 7.25]),
    step=st.floats(1e-3, 1e4),
    armed=st.integers(1, 120),
    gpu_seconds=st.floats(0.0, 1e7),
    done=st.integers(0, 50),
    busy_offset=st.floats(-1e6, 1e6),
    until_kind=st.sampled_from(["inf", "boundary", "between", "before"]),
    until_index=st.integers(0, 130),
    inclusive=st.booleans(),
    n_gpus=st.sampled_from([None, 8, 16, 32]),
)
def test_settle_matches_per_boundary_banking(
    start, switch, step, armed, gpu_seconds, done, busy_offset,
    until_kind, until_index, inclusive, n_gpus,
):
    def fresh_job() -> Job:
        job = Job(spec=SPEC, graph=GRAPH, workload=WORKLOAD)
        job.partition = None if n_gpus is None else PARTITIONS[n_gpus]
        job.seconds_per_iteration = step
        job.segment_started_at = start
        job.iteration_started_at = start + switch
        job.next_boundary_at = start + switch + step
        job.armed_boundaries = armed
        job.gpu_seconds = gpu_seconds
        job.iterations_done = float(done)
        return job

    # Boundaries by the same recurrence, to cut exactly at one of them.
    boundary = start + switch + step
    for _ in range(min(until_index, armed)):
        boundary += step
    until = {
        "inf": float("inf"),
        "boundary": boundary,
        "between": boundary + step / 2,
        "before": start,
    }[until_kind]
    busy_until = start + switch + busy_offset

    expected_job = fresh_job()
    expected_busy, expected_banked = _reference_settle(
        expected_job, busy_until, until, inclusive
    )
    job = fresh_job()
    SCHEDULER._busy_until = busy_until
    SCHEDULER._n_banked_boundaries = 0
    SCHEDULER._settle(job, until=until, inclusive=inclusive)

    assert _settled_fields(job) == _settled_fields(expected_job)
    assert SCHEDULER._busy_until == expected_busy
    assert SCHEDULER._n_banked_boundaries == expected_banked


def test_settle_without_an_open_segment_bills_nothing():
    job = Job(spec=SPEC, graph=GRAPH, workload=WORKLOAD)
    job.partition = PARTITIONS[8]
    job.seconds_per_iteration = 2.0
    job.next_boundary_at = 10.0
    job.armed_boundaries = 4
    SCHEDULER._busy_until = 0.0
    SCHEDULER._settle(job)
    assert (job.gpu_seconds, job.segment_started_at) == (0.0, None)
    assert (job.iterations_done, job.iteration_started_at) == (3.0, 14.0)
    assert (job.next_boundary_at, job.armed_boundaries) == (16.0, 1)
    assert SCHEDULER._busy_until == 14.0


# ---------------------------------------------------------------------- #
# Job types built once per scheduler
# ---------------------------------------------------------------------- #
class TestJobTypes:
    def test_equal_types_share_one_graph_and_workload(self):
        specs = [
            JobSpec(name="a", batch_size=64),
            JobSpec(name="b", batch_size=64, priority=3, arrival_time=5.0,
                    target_iterations=9, min_gpus=16, max_gpus=32),
            JobSpec(name="c", algorithm="PPO", batch_size=64),
        ]
        jobs = ClusterScheduler(make_cluster(32), specs).jobs
        assert len({id(job.graph) for job in jobs}) == 1
        assert len({id(job.workload) for job in jobs}) == 1
        assert jobs[0].graph.name == "ppo"
        assert jobs[0].workload == SPEC.build_workload()

    @pytest.mark.parametrize(
        "change",
        [
            {"algorithm": "grpo"},
            {"actor_size": "13b"},
            {"critic_size": "13b"},
            {"batch_size": 128},
            {"prompt_len": 512},
            {"gen_len": 512},
            {"n_ppo_minibatches": 4},
        ],
    )
    def test_different_types_do_not_share(self, change):
        other = JobSpec(name="b", **{"batch_size": 64, **change})
        first, second = ClusterScheduler(make_cluster(32), [SPEC, other]).jobs
        assert first.graph is not second.graph
        assert first.workload is not second.workload

    def test_builder_overwritten_between_schedulers_is_used(self):
        register_algorithm("swap-algo", build_dpo_graph)
        try:
            spec = JobSpec(name="x", algorithm="swap-algo", batch_size=64)
            before = ClusterScheduler(make_cluster(8), [spec]).jobs[0]
            register_algorithm("swap-algo", build_grpo_graph, overwrite=True)
            after = ClusterScheduler(make_cluster(8), [spec]).jobs[0]
        finally:
            ALGORITHMS.pop("swap-algo", None)
        assert before.graph.name == "dpo"
        assert after.graph.name == "grpo"

    def test_graphs_are_frozen(self):
        graph = build_ppo_graph()
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.name = "renamed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph._edges = []
        assert graph.topological_order() == build_ppo_graph().topological_order()


# ---------------------------------------------------------------------- #
# Exact remap costs shared per plan service
# ---------------------------------------------------------------------- #
SMOKE_JOBS = generate_fleet_trace(FleetTraceConfig(n_jobs=10, horizon_s=3600.0, seed=7))
SMOKE_CONFIG = dataclasses.replace(
    fleet_scheduler_config(),
    search=SearchConfig(max_iterations=60, time_budget_s=600.0, record_history=False),
)


def _replay(service: PlanService):
    return ClusterScheduler(
        make_cluster(32), SMOKE_JOBS, policy="first_fit", config=SMOKE_CONFIG, service=service
    ).run()


def test_remaps_are_planned_once_per_service(monkeypatch):
    planned = []
    real = realloc_cost.plan_reallocation

    def counting(src, dst):
        planned.append((src, dst))
        return real(src, dst)

    monkeypatch.setattr(realloc_cost, "plan_reallocation", counting)
    with PlanService() as service:
        cold = _replay(service)
        n_cold = len(planned)
        warm = _replay(service)
        n_warm = len(planned) - n_cold
    with PlanService() as fresh_service:
        fresh = _replay(fresh_service)
        n_fresh = len(planned) - n_cold - n_warm

    assert n_cold > 0
    assert n_warm == 0
    assert n_fresh == n_cold
    assert _report_outcome(warm) == _report_outcome(cold)
    assert _report_outcome(fresh) == _report_outcome(cold)
    assert warm.engine_profile_runs == cold.engine_profile_runs > 0


def test_service_shares_one_exact_model_per_cluster():
    with PlanService() as service:
        model = service.realloc_model_for(make_cluster(16))
        assert model.exact
        assert service.realloc_model_for(make_cluster(16)) is model
        assert service.realloc_model_for(make_cluster(8)) is not model


def test_service_keeps_the_most_recently_used_exact_models(monkeypatch):
    monkeypatch.setattr(server, "_MAX_REALLOC_MODELS", 2)
    small, medium, large = make_cluster(8), make_cluster(16), make_cluster(32)
    with PlanService() as service:
        first_small = service.realloc_model_for(small)
        service.realloc_model_for(medium)
        assert service.realloc_model_for(small) is first_small  # now the most recent
        service.realloc_model_for(large)  # evicts medium, the least recent
        assert service.realloc_model_for(small) is first_small
        assert list(service._realloc_models) == [large, small]


def test_remap_memo_keys_on_the_full_model_config():
    cluster = make_cluster(16)
    model = ReallocCostModel(cluster, exact=True)
    config = get_model_config("7b")
    deeper = dataclasses.replace(config, n_layers=config.n_layers * 2)  # same name
    plan = symmetric_plan(build_ppo_graph(), cluster, ParallelStrategy(dp=2, tp=4, pp=2))
    src = next(alloc for _name, alloc in plan.items())
    dst = Allocation(mesh=src.mesh, parallel=ParallelStrategy(dp=4, tp=4, pp=1))
    shallow_cost = model.cost(config, src, dst)
    assert model.cost(deeper, src, dst).bytes_sent > shallow_cost.bytes_sent
    assert model.cost(config, src, dst) is shallow_cost

