"""Tests for the user-facing experiment API (paper Figure 18 style)."""

import pytest

from repro.core import (
    GENERATE,
    INFERENCE,
    TRAIN_STEP,
    ExperimentConfig,
    ModelFunctionCallDef,
    PruneConfig,
    SearchConfig,
    auto,
    build_graph_from_defs,
)


def ppo_like_defs():
    return [
        ModelFunctionCallDef(
            model_name="actor", model_type="llama7b", interface_type=GENERATE,
            input_data=("prompts",), output_data=("seq", "logp"),
        ),
        ModelFunctionCallDef(
            model_name="reward", model_type="llama7b-critic", interface_type=INFERENCE,
            input_data=("seq",), output_data=("r",),
        ),
        ModelFunctionCallDef(
            model_name="actor", interface_type=TRAIN_STEP, model_type="llama7b",
            input_data=("seq", "logp", "r"),
        ),
    ]


class TestBuildGraphFromDefs:
    def test_basic_graph(self):
        graph, configs = build_graph_from_defs(ppo_like_defs())
        assert len(graph.calls) == 3
        assert configs["actor"].name == "llama3-7b"
        assert configs["reward"].is_critic
        assert graph.model_names() == ["actor", "reward"]

    def test_call_names_unique_and_descriptive(self):
        graph, _ = build_graph_from_defs(ppo_like_defs())
        assert "actor_generate_0" in graph.call_names
        assert "actor_train_step_2" in graph.call_names

    def test_explicit_call_name(self):
        defs = ppo_like_defs()
        defs[0] = ModelFunctionCallDef(
            model_name="actor", model_type="llama7b", interface_type=GENERATE,
            input_data=("prompts",), output_data=("seq", "logp"), call_name="rollout",
        )
        graph, _ = build_graph_from_defs(defs)
        assert "rollout" in graph.call_names

    def test_missing_model_type_rejected(self):
        defs = [
            ModelFunctionCallDef(model_name="actor", interface_type=GENERATE,
                                 input_data=("prompts",), output_data=("seq",)),
        ]
        with pytest.raises(ValueError):
            build_graph_from_defs(defs)

    def test_conflicting_architectures_rejected(self):
        defs = ppo_like_defs()
        defs.append(
            ModelFunctionCallDef(model_name="actor", model_type="llama13b",
                                 interface_type=INFERENCE, input_data=("seq",),
                                 output_data=("x",))
        )
        with pytest.raises(ValueError):
            build_graph_from_defs(defs)

    def test_unparseable_model_type_rejected(self):
        defs = [ModelFunctionCallDef(model_name="actor", model_type="gpt-oss-120b",
                                     interface_type=GENERATE, input_data=("prompts",),
                                     output_data=("seq",))]
        with pytest.raises(ValueError):
            build_graph_from_defs(defs)


class TestAuto:
    def test_auto_builds_experiment(self):
        experiment = auto(ppo_like_defs(), n_gpus=8, batch_size=32)
        assert isinstance(experiment, ExperimentConfig)
        assert experiment.cluster.n_gpus == 8
        assert experiment.workload.batch_size == 32
        assert len(experiment.graph.calls) == 3

    def test_auto_search_returns_feasible_plan(self):
        experiment = auto(
            ppo_like_defs(),
            n_gpus=8,
            batch_size=32,
            search=SearchConfig(max_iterations=150, time_budget_s=10, seed=0),
        )
        result = experiment.run_search()
        assert set(result.best_plan.assignments) == set(experiment.graph.call_names)
        from repro.core import RuntimeEstimator

        estimator = RuntimeEstimator(experiment.graph, experiment.workload, experiment.cluster)
        assert estimator.is_feasible(result.best_plan)


class TestFindExecutionPlan:
    def test_find_plan_for_named_algorithm(self):
        from repro.core import find_execution_plan

        result, experiment = find_execution_plan(
            algorithm="dpo",
            actor_size="7b",
            critic_size="7b",
            n_gpus=8,
            batch_size=32,
            search=SearchConfig(max_iterations=150, time_budget_s=10, seed=0),
        )
        assert result.best_cost > 0
        assert experiment.graph.name == "dpo"

    def test_unknown_algorithm_raises(self):
        from repro.core import find_execution_plan

        with pytest.raises(KeyError):
            find_execution_plan("alpaca", "7b", "7b", n_gpus=8)


class TestRunIterationTrace:
    def test_search_then_simulate_with_export(self, tmp_path):
        from repro.core import run_iteration_trace
        from repro.sim import load_chrome_trace

        path = tmp_path / "iteration.json"
        trace, experiment = run_iteration_trace(
            "ppo",
            n_gpus=8,
            batch_size=64,
            search=SearchConfig(max_iterations=60, time_budget_s=5, seed=0),
            trace_path=str(path),
        )
        assert trace.total_seconds > 0
        assert set(trace.call_spans) == set(experiment.graph.call_names)
        events = load_chrome_trace(path)
        span_names = {e["name"] for e in events if e["ph"] == "X"}
        assert set(experiment.graph.call_names) <= span_names

    def test_explicit_plan_skips_search(self):
        from repro.cluster import make_cluster
        from repro.core import ParallelStrategy, run_iteration_trace, symmetric_plan
        from repro.algorithms import build_graph

        plan = symmetric_plan(
            build_graph("grpo"), make_cluster(8), ParallelStrategy(1, 8, 1),
            n_microbatches=4,
        )
        trace, experiment = run_iteration_trace(
            "grpo", n_gpus=8, batch_size=64, plan=plan
        )
        assert experiment.graph.name == "grpo"
        assert trace.total_seconds > 0
