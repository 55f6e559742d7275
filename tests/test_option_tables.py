"""Oracle tests for compiled option tables (``core/pruning.py``).

A search problem reads each call's options through a
:class:`~repro.core.pruning._CallOptions`: a by-mesh index of ``range``
spans and ``(dp, tp, pp)`` sets, and the representatives the greedy start
prices.  The references below are the per-option loops these replaced: the
grouping of every option by mesh, ``min(options, key=call_time)`` and the
proposal step that indexed the grouped lists.  Hypothesis draws algorithms,
model sizes, batch sizes, clusters of 8-128 GPUs and prune variants.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import build_dpo_graph, build_grpo_graph, build_ppo_graph, build_remax_graph
from repro.cluster import make_cluster
from repro.core import (
    ExecutionPlan,
    MCMCSearcher,
    PruneConfig,
    RuntimeEstimator,
    SearchProblem,
    allocation_options,
    instructgpt_workload,
)
from repro.core.pruning import _CallOptions, _OptionTable
from repro.service import PlanRequest, PlanService

GRAPHS = {
    "ppo": build_ppo_graph,
    "grpo": build_grpo_graph,
    "dpo": build_dpo_graph,
    "remax": build_remax_graph,
}
SIZES = ("7b", "13b", "34b", "70b")
PRUNES = (
    PruneConfig(),
    PruneConfig(mesh_stride=2),
    PruneConfig(power_of_two_meshes=False),
    PruneConfig(min_mesh_gpus=8),
    PruneConfig(max_mesh_gpus=16),
    PruneConfig(sub_node_mesh_gpu_limit=128),
    PruneConfig(power_of_two_meshes=False, mesh_stride=2, microbatch_choices=[1, 3, 8]),
)

# Tables outlive examples on purpose: a table compiled for other graphs and
# workloads must hand out exactly what a fresh enumeration does.
_TABLES = {}


def _shared_table(n_gpus, prune_index):
    key = (n_gpus, prune_index)
    if key not in _TABLES:
        _TABLES[key] = _OptionTable(make_cluster(n_gpus), PRUNES[prune_index])
    return _TABLES[key]


scenarios = st.fixed_dictionaries(
    {
        "algorithm": st.sampled_from(sorted(GRAPHS)),
        "actor": st.sampled_from(SIZES),
        "critic": st.sampled_from(SIZES),
        "batch_size": st.sampled_from((2, 24, 64, 128, 512)),
        "n_gpus": st.sampled_from((8, 16, 24, 32, 64, 128)),
        "prune_index": st.integers(0, len(PRUNES) - 1),
    }
)


def _mesh_key(mesh):
    return (mesh.node_start, mesh.n_nodes, mesh.gpu_start, mesh.gpus_per_node)


def _reference_index(choices):
    """The per-option grouping the compiled index replaced."""
    by_mesh, layouts = {}, set()
    for alloc in choices:
        key = _mesh_key(alloc.mesh)
        by_mesh.setdefault(key, []).append(alloc)
        layouts.add(key + (alloc.parallel.dp, alloc.parallel.tp, alloc.parallel.pp))
    return by_mesh, layouts


def _reference_propose(call_names, options, indexes, plan, rng):
    """The proposal step over the grouped option lists."""
    call_name = call_names[int(rng.integers(len(call_names)))]
    choices = options[call_name]
    by_mesh, layouts = indexes[call_name]
    roll = rng.random()
    if roll < 0.2 and len(call_names) > 1:
        other = call_names[int(rng.integers(len(call_names)))]
        if other != call_name:
            other_alloc = plan[other]
            parallel = other_alloc.parallel
            layout = _mesh_key(other_alloc.mesh) + (parallel.dp, parallel.tp, parallel.pp)
            if layout in layouts:
                return call_name, other_alloc
    elif roll < 0.45:
        same_mesh = by_mesh.get(_mesh_key(plan[call_name].mesh))
        if same_mesh:
            return call_name, same_mesh[int(rng.integers(len(same_mesh)))]
    return call_name, choices[int(rng.integers(len(choices)))]


def _problem(scenario, table=None):
    """The drawn problem, or ``None`` when pruning leaves a call no option
    (then the shared table and a fresh enumeration must both say so)."""
    graph = GRAPHS[scenario["algorithm"]]()
    workload = instructgpt_workload(
        scenario["actor"], scenario["critic"], batch_size=scenario["batch_size"]
    )
    cluster = make_cluster(scenario["n_gpus"])
    prune = PRUNES[scenario["prune_index"]]
    try:
        fresh = allocation_options(graph, workload, cluster, prune)
    except ValueError:
        with pytest.raises(ValueError, match="no feasible allocation"):
            SearchProblem(graph, workload, cluster, prune=prune, table=table)
        return None
    problem = SearchProblem(graph, workload, cluster, prune=prune, table=table)
    return graph, workload, cluster, fresh, problem


@settings(max_examples=40)
@given(scenario=scenarios)
def test_shared_table_compiles_fresh_options_and_reference_index(scenario):
    table = _shared_table(scenario["n_gpus"], scenario["prune_index"])
    # Other graphs and workloads use the table first.
    other = dict(scenario, algorithm="grpo", actor="13b", critic="7b", batch_size=128)
    _problem(other, table)
    drawn = _problem(scenario, table)
    if drawn is None:
        return
    graph, workload, cluster, fresh, problem = drawn
    assert problem.options == fresh  # value for value and in order
    for call_name, choices in problem.options.items():
        compiled = problem.compiled[call_name]
        by_mesh, layouts = _reference_index(choices)
        assert list(compiled.by_mesh) == list(by_mesh)
        for key, (span, strategies) in compiled.by_mesh.items():
            assert isinstance(span, range) and span.step == 1
            assert [choices[i] for i in span] == by_mesh[key]
            assert all(choices[i] is alloc for i, alloc in zip(span, by_mesh[key]))
            assert isinstance(strategies, frozenset)
        assert {
            key + strategy
            for key, (_span, strategies) in compiled.by_mesh.items()
            for strategy in strategies
        } == layouts
        # Meshes of one size admit the same strategies: one set per size.
        per_size = {}
        for key, (_span, strategies) in compiled.by_mesh.items():
            assert per_size.setdefault(key[1] * key[3], strategies) is strategies


@settings(max_examples=30)
@given(scenario=scenarios)
def test_greedy_pick_is_min_over_all_options(scenario):
    table = _shared_table(scenario["n_gpus"], scenario["prune_index"])
    drawn = _problem(scenario, table)
    if drawn is None:
        return
    graph, workload, cluster, _fresh, problem = drawn
    greedy = problem.greedy_assignments()
    call_time = RuntimeEstimator(graph, workload, cluster).call_time
    for call_name, choices in problem.options.items():
        fastest = min(choices, key=lambda alloc: call_time(call_name, alloc))
        assert greedy[call_name] is fastest


@settings(max_examples=30)
@given(scenario=scenarios, seed=st.integers(0, 2**16))
def test_proposal_stream_matches_reference(scenario, seed):
    drawn = _problem(scenario, _shared_table(scenario["n_gpus"], scenario["prune_index"]))
    if drawn is None:
        return
    graph, _workload, _cluster, _fresh, problem = drawn
    indexes = {name: _reference_index(choices) for name, choices in problem.options.items()}
    searcher = MCMCSearcher(problem=problem)
    plan = reference_plan = ExecutionPlan(problem.greedy_assignments())
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        call_name, alloc = searcher._propose(plan, rng)
        expected = _reference_propose(
            graph.call_names, problem.options, indexes, reference_plan, reference_rng
        )
        assert (call_name, alloc) == expected and alloc is expected[1]
        # Take every move, so the stream visits many meshes and layouts.
        plan = plan.with_assignment(call_name, alloc)
        reference_plan = reference_plan.with_assignment(*expected)
    assert rng.random() == reference_rng.random()


class TestCompiledOptions:
    def test_greedy_ties_go_to_the_first_option(self):
        graph = build_ppo_graph()
        workload = instructgpt_workload(batch_size=64)
        cluster = make_cluster(16)
        estimator = RuntimeEstimator(graph, workload, cluster)
        estimator.call_time = lambda call_name, alloc: 1.0
        problem = SearchProblem(graph, workload, cluster, estimator=estimator)
        for call_name, alloc in problem.greedy_assignments().items():
            assert alloc is problem.options[call_name][0]
            assert len(problem.compiled[call_name].representatives) > 1

    def test_split_mesh_raises(self):
        cluster = make_cluster(16)
        workload = instructgpt_workload(batch_size=64)
        options = allocation_options(build_ppo_graph(), workload, cluster)["actor_train"]
        first_mesh = options[0].mesh
        moved = next(i for i, alloc in enumerate(options) if alloc.mesh != first_mesh)
        split = options[1:moved] + [options[moved], options[0]] + options[moved + 1 :]
        with pytest.raises(ValueError, match="not contiguous"):
            _CallOptions(split)

    def test_explicit_options_go_through_the_builder(self):
        graph = build_ppo_graph()
        workload = instructgpt_workload(batch_size=64)
        cluster = make_cluster(8)
        options = allocation_options(graph, workload, cluster)
        pinned = options["actor_generate"][0]
        options["actor_generate"] = [pinned]
        problem = SearchProblem(graph, workload, cluster, options=options)
        compiled = problem.compiled["actor_generate"]
        assert compiled.options == [pinned] and compiled.representatives == [pinned]
        (span, strategies), = compiled.by_mesh.values()
        assert span == range(1)
        assert strategies == {(pinned.parallel.dp, pinned.parallel.tp, pinned.parallel.pp)}
        assert problem.greedy_assignments()["actor_generate"] is pinned


class TestServiceTables:
    @staticmethod
    def _request(
        algorithm, batch_size=64, critic="7b", microbatch_choices=(1, 2, 4, 8, 16, 32)
    ):
        from repro.core import SearchConfig

        return PlanRequest(
            graph=GRAPHS[algorithm](),
            workload=instructgpt_workload("7b", critic, batch_size=batch_size),
            cluster=make_cluster(8),
            search=SearchConfig(max_iterations=10, seed=0),
            prune=PruneConfig(microbatch_choices=microbatch_choices),
        )

    @staticmethod
    def _problem(service, request):
        return service._searcher_for(request, request.fingerprint(), [])[0].problem

    def test_problems_of_one_cluster_share_compiled_options(self):
        with PlanService() as service:
            first = self._problem(service, self._request("ppo"))
            # A list is a legal (unhashable) microbatch_choices: the table is
            # keyed on the canonical content, so it is the same table.
            second = self._problem(
                service, self._request("ppo", critic="13b", microbatch_choices=[1, 2, 4, 8, 16, 32])
            )
            assert len(service._option_tables) == 1
            # Equal actors share their calls' options; other critics do not.
            assert second.compiled["actor_generate"] is first.compiled["actor_generate"]
            assert second.compiled["actor_train"] is first.compiled["actor_train"]
            assert second.compiled["critic_train"] is not first.compiled["critic_train"]
            third = self._problem(service, self._request("ppo", batch_size=128))
            assert third.compiled["actor_train"] is not first.compiled["actor_train"]
            self._problem(service, dataclasses.replace(
                self._request("ppo"), prune=PruneConfig(mesh_stride=2)
            ))
            assert len(service._option_tables) == 2

    def test_shared_tables_change_no_outcome(self):
        requests = [self._request(a, batch_size=b) for a in ("ppo", "grpo") for b in (64, 128)]
        with PlanService(warm_start=False) as shared:
            costs = [shared.plan(request).cost for request in requests]
        for request, cost in zip(requests, costs):
            with PlanService(warm_start=False) as fresh:
                assert fresh.plan(request).cost == cost


def test_option_table_key_ignores_graph_workload_and_search():
    from repro.core import SearchConfig

    base = TestServiceTables._request("ppo").fingerprint()
    other = dataclasses.replace(
        TestServiceTables._request("grpo", batch_size=128),
        search=SearchConfig(max_iterations=3, seed=9),
    ).fingerprint()
    assert other.option_table_key == base.option_table_key
    assert other.problem_key != base.problem_key
    strided = dataclasses.replace(
        TestServiceTables._request("ppo"), prune=PruneConfig(mesh_stride=2)
    ).fingerprint()
    assert strided.option_table_key != base.option_table_key
    wider = dataclasses.replace(
        TestServiceTables._request("ppo"), cluster=make_cluster(16)
    ).fingerprint()
    assert wider.option_table_key != base.option_table_key
