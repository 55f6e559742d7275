"""Tests for execution plans and their derived reallocation edges."""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.cluster import DeviceMesh, full_cluster_mesh, make_cluster
from repro.core import (
    Allocation,
    ExecutionPlan,
    ParallelStrategy,
    RuntimeEstimator,
    reallocation_edges,
    symmetric_plan,
)
from repro.realloc import ReallocCostModel


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(16)


class TestAllocation:
    def test_strategy_must_fill_mesh(self, cluster):
        mesh = full_cluster_mesh(cluster)
        with pytest.raises(ValueError):
            Allocation(mesh=mesh, parallel=ParallelStrategy(1, 8, 1))

    def test_microbatches_positive(self, cluster):
        mesh = full_cluster_mesh(cluster)
        with pytest.raises(ValueError):
            Allocation(mesh=mesh, parallel=ParallelStrategy(2, 8, 1), n_microbatches=0)

    def test_describe_mentions_zero3(self, cluster):
        mesh = full_cluster_mesh(cluster)
        alloc = Allocation(mesh=mesh, parallel=ParallelStrategy(16, 1, 1), zero3=True)
        assert "zero3" in alloc.describe()


class TestAllocationKey:
    """``Allocation.key`` is the identity every allocation memo reads."""

    @staticmethod
    def _alloc(cluster):
        return Allocation(DeviceMesh(cluster, 1, 1, 4, 4), ParallelStrategy(2, 2, 1), 3, True)

    def test_key_is_the_attribute_tuple(self, cluster):
        assert self._alloc(cluster).key == (1, 1, 4, 4, 2, 2, 1, 3, True)

    def test_key_stays_out_of_eq_hash_repr_and_json(self, ppo_graph, cluster):
        alloc = self._alloc(cluster)
        twin = self._alloc(cluster)
        object.__setattr__(twin, "key", ("not", "the", "key"))
        assert twin == alloc and hash(twin) == hash(alloc)
        assert "key" not in repr(alloc)
        assert set(alloc.to_dict()) == {"mesh", "parallel", "n_microbatches", "zero3"}
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        assert '"key"' not in json.dumps(plan.to_dict())

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda alloc: pickle.loads(pickle.dumps(alloc))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_carry_the_key(self, cluster, duplicate):
        alloc = self._alloc(cluster)
        clone = duplicate(alloc)
        assert clone == alloc and clone.key == alloc.key

    def test_replace_rebuilds_the_key(self, cluster):
        alloc = self._alloc(cluster)
        assert dataclasses.replace(alloc, n_microbatches=5).key == (1, 1, 4, 4, 2, 2, 1, 5, True)
        assert dataclasses.replace(alloc, zero3=False).key == (1, 1, 4, 4, 2, 2, 1, 3, False)
        moved = dataclasses.replace(
            alloc, mesh=DeviceMesh(cluster, 0, 1, 0, 8), parallel=ParallelStrategy(1, 4, 2)
        )
        assert moved.key == (0, 1, 0, 8, 1, 4, 2, 3, True)

    @pytest.mark.parametrize(
        "change", [{"zero3": True}, {"n_microbatches": 4}], ids=["zero3", "microbatches"]
    )
    def test_estimator_tells_apart_plans_that_differ_in_one_field(
        self, ppo_graph, small_workload, cluster, change
    ):
        """A key that drops a field would serve one plan's memoised cost for the other."""
        base = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=2)
        estimator = RuntimeEstimator(ppo_graph, small_workload, cluster)
        for call_name in ppo_graph.call_names:
            moved = dataclasses.replace(base[call_name], **change)
            estimator.cost(base)
            fresh = RuntimeEstimator(ppo_graph, small_workload, cluster)
            expected = fresh.cost(base.with_assignment(call_name, moved))
            assert estimator.cost_delta(base, call_name, moved) == expected
            assert estimator.cost(base.with_assignment(call_name, moved)) == expected

    def test_remap_cache_is_keyed_by_parameter_layout(self, small_workload, cluster):
        """Micro-batches and ZeRO-3 do not change a parameter layout, so
        allocations that differ only there share one cached remap cost."""
        config = small_workload.model_config("actor")
        model = ReallocCostModel(cluster, exact=True)
        src = Allocation(full_cluster_mesh(cluster), ParallelStrategy(2, 8, 1))
        dst = Allocation(DeviceMesh(cluster, 0, 1, 0, 8), ParallelStrategy(1, 4, 2))
        cost = model.cost(config, src, dst)
        variant = dataclasses.replace(dst, n_microbatches=4, zero3=True)
        assert model.cost(config, src, variant) is cost
        assert list(model._cache) == [(config, src.key[:7], dst.key[:7])]


class TestExecutionPlan:
    def test_symmetric_plan_covers_graph(self, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        assert len(plan) == len(ppo_graph)
        plan.validate(ppo_graph, cluster)

    def test_symmetric_plan_rejects_partial_strategy(self, ppo_graph, cluster):
        with pytest.raises(ValueError):
            symmetric_plan(ppo_graph, cluster, ParallelStrategy(1, 8, 1))

    def test_validate_detects_missing_call(self, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        del plan.assignments["actor_train"]
        with pytest.raises(ValueError):
            plan.validate(ppo_graph, cluster)

    def test_validate_detects_extra_call(self, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        plan.assignments["ghost"] = plan["actor_train"]
        with pytest.raises(ValueError):
            plan.validate(ppo_graph, cluster)

    def test_validate_detects_wrong_cluster_shape(self, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        other = make_cluster(32)
        with pytest.raises(ValueError):
            plan.validate(ppo_graph, other)

    def test_with_assignment_returns_new_plan(self, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        node0 = DeviceMesh(cluster, 0, 1, 0, 8)
        new_alloc = Allocation(mesh=node0, parallel=ParallelStrategy(1, 8, 1))
        new_plan = plan.with_assignment("actor_generate", new_alloc)
        assert new_plan["actor_generate"].mesh == node0
        assert plan["actor_generate"].mesh != node0  # original untouched

    def test_describe_lists_all_calls(self, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        text = plan.describe(ppo_graph)
        for name in ppo_graph.call_names:
            assert name in text

    def test_per_call_microbatch_override(self, ppo_graph, cluster):
        plan = symmetric_plan(
            ppo_graph, cluster, ParallelStrategy(2, 8, 1),
            n_microbatches=1, per_call_microbatches={"actor_train": 8},
        )
        assert plan["actor_train"].n_microbatches == 8
        assert plan["actor_generate"].n_microbatches == 1


class TestDerivedEdges:
    def test_symmetric_plan_has_no_reallocations(self, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        assert reallocation_edges(ppo_graph, plan) == []

    def test_changing_actor_strategy_adds_reallocation(self, ppo_graph, cluster):
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1))
        mesh = full_cluster_mesh(cluster)
        plan = plan.with_assignment(
            "actor_generate", Allocation(mesh=mesh, parallel=ParallelStrategy(4, 4, 1))
        )
        edges = reallocation_edges(ppo_graph, plan)
        actor_edges = [e for e in edges if e.model_name == "actor"]
        # generate -> train and the wrap-around train -> generate both realloc.
        assert len(actor_edges) == 2
        assert all(not e.is_noop for e in actor_edges)
