"""Tests for workload derivation (per-call data sizes and FLOPs)."""

import pytest

from repro.core import FunctionCallType, instructgpt_workload
from repro.core.workload import CallWorkload, RLHFWorkload
from repro.model import get_model_config


class TestCallWorkload:
    def test_seqlen_and_tokens(self):
        wl = CallWorkload(batch_size=8, prompt_len=128, gen_len=128)
        assert wl.seqlen == 256


class TestInstructGPTWorkload:
    def test_defaults_match_appendix_a(self):
        wl = instructgpt_workload()
        assert wl.batch_size == 512
        assert wl.prompt_len == 1024
        assert wl.context_len == 2048
        assert wl.n_ppo_minibatches == 8

    def test_four_model_roles(self):
        wl = instructgpt_workload("13b", "7b")
        assert set(wl.model_configs) == {"actor", "ref", "critic", "reward"}
        assert wl.model_config("actor").name == "llama3-13b"
        assert wl.model_config("ref").name == "llama3-13b"
        assert wl.model_config("critic").is_critic
        assert wl.model_config("reward").is_critic

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            instructgpt_workload().model_config("judge")

    def test_with_context(self):
        wl = instructgpt_workload().with_context(4096, 4096)
        assert wl.context_len == 8192

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            RLHFWorkload(model_configs={"actor": get_model_config("7b")}, batch_size=0)
        with pytest.raises(ValueError):
            RLHFWorkload(model_configs={"actor": get_model_config("7b")}, n_ppo_minibatches=0)


class TestPerCallDerivation:
    def test_generate_call_workload(self, ppo_graph):
        wl = instructgpt_workload(batch_size=256)
        call = ppo_graph.get("actor_generate")
        derived = wl.call_workload(call)
        assert derived.batch_size == 256
        assert derived.gen_len == wl.gen_len
        assert derived.n_minibatches == 1

    def test_train_call_gets_minibatches(self, ppo_graph):
        wl = instructgpt_workload(batch_size=256)
        derived = wl.call_workload(ppo_graph.get("actor_train"))
        assert derived.n_minibatches == wl.n_ppo_minibatches

    def test_batch_scale_applied(self):
        from repro.algorithms import build_grpo_graph

        graph = build_grpo_graph(group_size=8)
        wl = instructgpt_workload(batch_size=64)
        derived = wl.call_workload(graph.get("actor_generate"))
        assert derived.batch_size == 64 * 8

    def test_call_flops_positive_and_ordered(self, ppo_graph):
        wl = instructgpt_workload(batch_size=128)
        gen = wl.call_flops(ppo_graph.get("actor_generate"))
        inf = wl.call_flops(ppo_graph.get("ref_inference"))
        train = wl.call_flops(ppo_graph.get("actor_train"))
        assert gen > 0 and inf > 0 and train > 0
        # Training does forward + backward, so it outweighs single inference.
        assert train > inf

    def test_iteration_flops_sums_calls(self, ppo_graph):
        wl = instructgpt_workload(batch_size=128)
        total = wl.iteration_flops(ppo_graph.calls)
        assert total == pytest.approx(sum(wl.call_flops(c) for c in ppo_graph.calls))

    def test_iteration_flops_requires_calls(self, ppo_graph):
        wl = instructgpt_workload()
        with pytest.raises(ValueError):
            wl.iteration_flops(None)
