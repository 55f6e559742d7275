"""Property tests: cross-cluster warm-start adaptation yields admissible plans.

The scheduler (and any shrinking cluster) relies on
:func:`repro.service.warm_start.adapt_plan` projecting a cached plan onto a
*smaller* cluster.  These tests check the adaptation contract for the PPO and
GRPO graphs: whenever every call has at least one pruned allocation option on
the target cluster, the adapted plan exists, covers the graph, uses only
admissible options (so it respects the per-call static memory cap encoded by
``PruneConfig.prune_static_oom``) and only meshes that fit the target
cluster's shape.  Each adapted plan must also equal its pin in
``tests/fixtures/golden_warm_start.json`` (see
``tests/fixtures/make_golden_warm_start.py``), so the nearest-option choice
itself cannot drift.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.core import PruneConfig, allocation_options, instructgpt_workload
from repro.service import adapt_plan

FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_golden_warm_start import (  # noqa: E402  (fixture helpers double as regeneration script)
    GOLDEN_PATH,
    GRAPHS,
    adapt,
    cached_entry,
    cases,
    pin,
    shrink_case,
    slice_case,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(name for name, *_ in cases())


def _assert_admissible(plan, graph, cluster, options):
    plan.validate(graph, cluster)  # covers the graph, meshes fit the cluster
    for call_name, alloc in plan.items():
        choices = options[call_name]
        assert alloc in choices, (
            f"{call_name} adapted to an allocation outside the pruned options "
            f"of the target cluster"
        )
        # Within the cluster's mesh-shape rules and memory-capped options.
        assert alloc.mesh.device_id_set <= set(range(cluster.n_gpus))


def _check_adaptation(name, graph, cluster, options, plan):
    assert pin(plan) == GOLDEN[name]
    if any(not options.get(call) for call in graph.call_names):
        assert plan is None
        return
    assert plan is not None
    _assert_admissible(plan, graph, cluster, options)


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
@settings(max_examples=8, deadline=None)
@given(
    src_nodes=st.integers(min_value=2, max_value=3),
    dst_nodes=st.integers(min_value=1, max_value=2),
    batch_size=st.sampled_from([32, 64]),
)
def test_adapted_plan_is_admissible_on_smaller_cluster(
    algorithm, src_nodes, dst_nodes, batch_size
):
    src_cluster = make_cluster(src_nodes * 8)
    dst_cluster = make_cluster(min(dst_nodes, src_nodes) * 8)
    graph, options, plan = adapt(algorithm, batch_size, src_cluster, dst_cluster)
    name = shrink_case(algorithm, src_nodes, dst_nodes, batch_size)
    _check_adaptation(name, graph, dst_cluster, options, plan)


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
@pytest.mark.parametrize("dst_width", [2, 4, 8])
def test_adaptation_to_sub_node_slices(algorithm, dst_width):
    """Shrinking onto a sub-node partition (the scheduler's smallest shapes)."""
    dst_cluster = make_cluster(dst_width, gpus_per_node=dst_width)
    graph, options, plan = adapt(algorithm, 32, make_cluster(16), dst_cluster)
    _check_adaptation(slice_case(algorithm, dst_width), graph, dst_cluster, options, plan)


@pytest.mark.parametrize("algorithm", sorted(GRAPHS))
def test_same_shape_adaptation_is_identity(algorithm):
    graph = GRAPHS[algorithm]()
    workload = instructgpt_workload("7b", "7b", batch_size=32)
    cluster = make_cluster(16)
    entry = cached_entry(graph, workload, cluster)
    options = allocation_options(graph, workload, cluster, PruneConfig())
    plan = adapt_plan(entry, graph, cluster, options)
    assert plan is not None and plan.name == "warm-start"
    assert dict(plan.items()) == entry.plan.assignments
