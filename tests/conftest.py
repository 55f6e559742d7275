"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.algorithms import build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    Allocation,
    ParallelStrategy,
    RuntimeEstimator,
    instructgpt_workload,
    symmetric_plan,
)

# Keep hypothesis fast for CI-style runs.  Examples stay randomized (the
# profile is not derandomized), so a failure prints a reproduction blob:
# paste it into ``@reproduce_failure`` to replay a failure seen only in CI.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def small_cluster():
    """A single 8-GPU node."""
    return make_cluster(8)


@pytest.fixture(scope="session")
def two_node_cluster():
    """Two 8-GPU nodes (16 GPUs)."""
    return make_cluster(16)


@pytest.fixture(scope="session")
def ppo_graph():
    """The six-call PPO dataflow graph."""
    return build_ppo_graph()


@pytest.fixture(scope="session")
def small_workload():
    """A 7B+7B workload with a modest batch, suitable for 8-16 GPUs."""
    return instructgpt_workload("7b", "7b", batch_size=128)


@pytest.fixture(scope="session")
def base_workload():
    """The paper's base InstructGPT setting (batch 512, context 2048)."""
    return instructgpt_workload("7b", "7b", batch_size=512)


@pytest.fixture(scope="session")
def symmetric_ppo_plan(ppo_graph, two_node_cluster):
    """A symmetric full-cluster plan (dp=2, tp=8, pp=1) for the PPO graph."""
    return symmetric_plan(
        ppo_graph,
        two_node_cluster,
        ParallelStrategy(dp=2, tp=8, pp=1),
        n_microbatches=8,
    )


@pytest.fixture(scope="session")
def small_estimator(ppo_graph, small_workload, two_node_cluster):
    """An estimator for the PPO graph on the two-node cluster."""
    return RuntimeEstimator(ppo_graph, small_workload, two_node_cluster)
