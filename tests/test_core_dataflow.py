"""Tests for dataflow graphs and model function calls."""

import pytest

from repro.core import DataflowGraph, FunctionCallType, ModelFunctionCall


def simple_graph():
    calls = [
        ModelFunctionCall("gen", "actor", FunctionCallType.GENERATE, ("prompts",), ("seq",)),
        ModelFunctionCall("score", "reward", FunctionCallType.INFERENCE, ("seq",), ("r",)),
        ModelFunctionCall("train", "actor", FunctionCallType.TRAIN_STEP, ("seq", "r"), ()),
    ]
    return DataflowGraph(calls=calls)


class TestModelFunctionCall:
    def test_trainable_flag(self):
        call = ModelFunctionCall("t", "actor", FunctionCallType.TRAIN_STEP)
        assert call.is_trainable
        assert not ModelFunctionCall("g", "actor", FunctionCallType.GENERATE).is_trainable

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ModelFunctionCall("", "actor", FunctionCallType.GENERATE)

    def test_rejects_bad_batch_scale(self):
        with pytest.raises(ValueError):
            ModelFunctionCall("g", "actor", FunctionCallType.GENERATE, batch_scale=0.0)


class TestDataflowGraph:
    def test_edges_derived_from_keys(self):
        graph = simple_graph()
        assert ("gen", "score") in graph.edges
        assert ("gen", "train") in graph.edges
        assert ("score", "train") in graph.edges

    def test_parents_and_children(self):
        graph = simple_graph()
        assert set(graph.parents_map()["train"]) == {"gen", "score"}
        assert graph.children_map()["gen"] == ["score", "train"]
        assert graph.parents_map()["gen"] == []

    def test_topological_order(self):
        order = simple_graph().topological_order()
        assert order.index("gen") < order.index("score") < order.index("train")

    def test_sources_and_sinks(self):
        graph = simple_graph()
        assert [name for name, parents in graph.parents_map().items() if not parents] == ["gen"]
        assert [name for name, kids in graph.children_map().items() if not kids] == ["train"]

    def test_model_names_preserve_order(self):
        assert simple_graph().model_names() == ["actor", "reward"]

    def test_calls_of_model_in_topo_order(self):
        calls = simple_graph().calls_of_model("actor")
        assert [c.name for c in calls] == ["gen", "train"]

    def test_trainable_models(self):
        assert {call.model_name for call in simple_graph().calls if call.is_trainable} == {"actor"}

    def test_contains_and_get(self):
        graph = simple_graph()
        assert "gen" in graph
        assert graph.get("gen").model_name == "actor"
        assert "missing" not in graph

    def test_duplicate_names_rejected(self):
        calls = [
            ModelFunctionCall("x", "actor", FunctionCallType.GENERATE, ("prompts",), ("a",)),
            ModelFunctionCall("x", "actor", FunctionCallType.INFERENCE, ("a",), ("b",)),
        ]
        with pytest.raises(ValueError):
            DataflowGraph(calls=calls)

    def test_unknown_input_key_rejected(self):
        calls = [ModelFunctionCall("x", "actor", FunctionCallType.GENERATE, ("mystery",), ())]
        with pytest.raises(ValueError):
            DataflowGraph(calls=calls)

    def test_duplicate_output_key_rejected(self):
        calls = [
            ModelFunctionCall("a", "actor", FunctionCallType.GENERATE, ("prompts",), ("seq",)),
            ModelFunctionCall("b", "actor", FunctionCallType.GENERATE, ("prompts",), ("seq",)),
        ]
        with pytest.raises(ValueError):
            DataflowGraph(calls=calls)

    def test_cycle_detected_via_extra_edges(self):
        calls = [
            ModelFunctionCall("a", "actor", FunctionCallType.GENERATE, ("prompts",), ("x",)),
            ModelFunctionCall("b", "actor", FunctionCallType.INFERENCE, ("x",), ("y",)),
        ]
        with pytest.raises(ValueError):
            DataflowGraph(calls=calls, extra_edges=[("b", "a")])

    def test_extra_edge_unknown_call_rejected(self):
        calls = [ModelFunctionCall("a", "actor", FunctionCallType.GENERATE, ("prompts",), ("x",))]
        with pytest.raises(ValueError):
            DataflowGraph(calls=calls, extra_edges=[("a", "ghost")])
