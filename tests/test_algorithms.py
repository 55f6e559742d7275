"""Tests for the PPO / DPO / GRPO / ReMax dataflow graphs and the registry."""

import pytest

from repro.algorithms import (
    ALGORITHMS,
    PPO_CALL_NAMES,
    available_algorithms,
    build_dpo_graph,
    build_graph,
    build_grpo_graph,
    build_ppo_graph,
    build_remax_graph,
    register_algorithm,
)
from repro.core import FunctionCallType


class TestPPOGraph:
    def test_six_calls_four_models(self):
        graph = build_ppo_graph()
        assert len(graph.calls) == 6
        assert set(graph.model_names()) == {"actor", "reward", "ref", "critic"}
        assert set(graph.call_names) == set(PPO_CALL_NAMES)

    def test_dependencies_match_figure1(self):
        graph = build_ppo_graph()
        assert set(graph.parents_map()["reward_inference"]) == {"actor_generate"}
        assert "reward_inference" in graph.parents_map()["actor_train"]
        assert "ref_inference" in graph.parents_map()["actor_train"]
        assert "critic_inference" in graph.parents_map()["critic_train"]
        sources = [name for name, parents in graph.parents_map().items() if not parents]
        sinks = [name for name, children in graph.children_map().items() if not children]
        assert sources == ["actor_generate"]
        assert set(sinks) == {"actor_train", "critic_train"}

    def test_trainable_models(self):
        trainable = {call.model_name for call in build_ppo_graph().calls if call.is_trainable}
        assert trainable == {"actor", "critic"}

    def test_inference_calls_independent_of_each_other(self):
        graph = build_ppo_graph()
        for a in ("reward_inference", "ref_inference", "critic_inference"):
            for b in ("reward_inference", "ref_inference", "critic_inference"):
                if a != b:
                    assert b not in graph.parents_map()[a]


class TestDPOGraph:
    def test_two_calls_no_critic(self):
        graph = build_dpo_graph()
        assert len(graph.calls) == 2
        assert set(graph.model_names()) == {"actor", "ref"}
        assert graph.get("actor_train").call_type is FunctionCallType.TRAIN_STEP

    def test_paired_batch_scale(self):
        graph = build_dpo_graph()
        assert graph.get("ref_inference").batch_scale == 2.0
        assert graph.get("actor_train").batch_scale == 2.0

    def test_training_depends_on_reference(self):
        graph = build_dpo_graph()
        assert "ref_inference" in graph.parents_map()["actor_train"]


class TestGRPOGraph:
    def test_group_size_scales_batch(self):
        graph = build_grpo_graph(group_size=8)
        assert graph.get("actor_generate").batch_scale == 8.0
        assert graph.get("actor_train").batch_scale == 8.0

    def test_no_critic_model(self):
        graph = build_grpo_graph()
        assert "critic" not in graph.model_names()

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            build_grpo_graph(group_size=0)

    def test_dependencies(self):
        graph = build_grpo_graph()
        assert set(graph.parents_map()["actor_train"]) >= {"actor_generate", "reward_inference", "ref_inference"}


class TestReMaxGraph:
    def test_two_generation_calls_are_independent(self):
        graph = build_remax_graph()
        gens = [c.name for c in graph.calls if c.call_type is FunctionCallType.GENERATE]
        assert len(gens) == 2
        for a in gens:
            for b in gens:
                if a != b:
                    assert b not in graph.parents_map()[a]

    def test_training_needs_both_rewards(self):
        graph = build_remax_graph()
        parents = set(graph.parents_map()["actor_train"])
        assert {"sample_reward_inference", "greedy_reward_inference"} <= parents

    def test_no_critic(self):
        assert "critic" not in build_remax_graph().model_names()


class TestRegistry:
    def test_all_four_algorithms_registered(self):
        assert set(available_algorithms()) >= {"ppo", "dpo", "grpo", "remax"}

    def test_build_graph_case_insensitive(self):
        assert build_graph("PPO").name == "ppo"

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            build_graph("rlaif")

    def test_register_new_algorithm(self):
        def builder():
            return build_dpo_graph()

        register_algorithm("test-algo", builder)
        try:
            assert build_graph("test-algo").name == "dpo"
            with pytest.raises(ValueError):
                register_algorithm("test-algo", builder)
            register_algorithm("test-algo", builder, overwrite=True)
        finally:
            ALGORITHMS.pop("test-algo", None)

    def test_every_registered_graph_is_valid(self):
        for name in available_algorithms():
            graph = build_graph(name)
            assert graph.topological_order()
