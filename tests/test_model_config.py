"""Tests that the LLaMA-3 configurations reproduce Table 1 exactly."""

import dataclasses

import pytest

from repro.algorithms import build_ppo_graph
from repro.cluster import make_cluster
from repro.core import RLHFWorkload
from repro.model import LLAMA3_CONFIGS, MODEL_SIZES, ModelConfig, get_model_config
from repro.service import fingerprint_request

# (hidden, intermediate, layers, heads, kv_heads, total params, params w/o output embedding)
TABLE1 = {
    "7b": (4096, 14336, 32, 32, 8, 8030261248, 7504924672),
    "13b": (5120, 13824, 40, 40, 40, 14001525760, 13344855040),
    "34b": (8192, 22016, 48, 64, 8, 35321028608, 34270355456),
    "70b": (8192, 28672, 80, 64, 8, 70553706496, 69503033344),
}


class TestTable1:
    @pytest.mark.parametrize("size", MODEL_SIZES)
    def test_architecture_fields(self, size):
        hidden, inter, layers, heads, kv, _, _ = TABLE1[size]
        config = get_model_config(size)
        assert config.hidden_size == hidden
        assert config.intermediate_size == inter
        assert config.n_layers == layers
        assert config.n_heads == heads
        assert config.n_kv_heads == kv
        assert config.vocab_size == 128256
        assert config.max_position_embeddings == 8192

    @pytest.mark.parametrize("size", MODEL_SIZES)
    def test_total_param_count_matches_table1(self, size):
        assert get_model_config(size).param_count() == TABLE1[size][5]

    @pytest.mark.parametrize("size", MODEL_SIZES)
    def test_param_count_without_output_embedding(self, size):
        assert get_model_config(size).param_count_no_output_embedding() == TABLE1[size][6]

    def test_sizes_are_ordered(self):
        counts = [get_model_config(s).param_count() for s in MODEL_SIZES]
        assert counts == sorted(counts)


class TestModelConfig:
    def test_head_dim(self):
        assert get_model_config("7b").head_dim == 128

    def test_kv_dim_gqa(self):
        config = get_model_config("7b")
        assert config.kv_dim == 8 * 128

    def test_critic_variant_scalar_head(self):
        critic = get_model_config("7b", critic=True)
        assert critic.is_critic
        assert critic.output_head_params() == critic.hidden_size
        # The critic drops the huge LM head.
        assert critic.param_count() < get_model_config("7b").param_count()

    def test_critic_of_critic_is_idempotent(self):
        critic = get_model_config("7b", critic=True)
        assert critic.as_critic() is critic

    def test_lookup_accepts_prefixes(self):
        assert get_model_config("llama3-13b").name == "llama3-13b"
        assert get_model_config("LLAMA13B").name == "llama3-13b"

    def test_unknown_size_raises(self):
        with pytest.raises(KeyError):
            get_model_config("3b")

    def test_invalid_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(name="bad", hidden_size=100, intermediate_size=256,
                        n_layers=2, n_heads=3, n_kv_heads=3)

    def test_invalid_kv_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(name="bad", hidden_size=128, intermediate_size=256,
                        n_layers=2, n_heads=8, n_kv_heads=3)

    def test_registry_contains_all_sizes(self):
        assert set(LLAMA3_CONFIGS) == {"7b", "13b", "34b", "70b"}


class TestParamCountMemo:
    """``param_count``/``layer_params`` are memoised outside the dataclass
    fields, so nothing that reads a config's identity can see the memo."""

    @pytest.mark.parametrize("size", MODEL_SIZES)
    def test_memo_leaves_identity_unchanged(self, size):
        def fresh():
            return dataclasses.replace(get_model_config(size))

        config, twin = fresh(), fresh()
        workload = RLHFWorkload(
            {"actor": config, "ref": config, "critic": twin, "reward": twin}, batch_size=64
        )

        def identity():
            key = fingerprint_request(build_ppo_graph(), workload, make_cluster(8)).key
            return dataclasses.asdict(config), hash(config), repr(config), key

        before = identity()
        assert config.param_count() == TABLE1[size][5]
        assert config.layer_params() * config.n_layers < config.param_count()
        assert identity() == before
        assert config == twin and hash(config) == hash(twin)
        assert [f.name for f in dataclasses.fields(config)] == list(dataclasses.asdict(twin))

    @pytest.mark.parametrize("size", MODEL_SIZES)
    def test_variants_are_not_served_a_stale_memo(self, size):
        hidden = TABLE1[size][0]
        actor = dataclasses.replace(get_model_config(size))
        assert actor.param_count() == TABLE1[size][5]
        # The critic drops the LM head for a scalar one.
        assert actor.as_critic().param_count() == TABLE1[size][6] + hidden
        assert get_model_config(size, critic=True).param_count() == TABLE1[size][6] + hidden
        # A replaced config is a new instance: its counts are recomputed.
        deeper = dataclasses.replace(actor, n_layers=actor.n_layers + 1)
        assert deeper.param_count() == TABLE1[size][5] + actor.layer_params()
        assert dataclasses.replace(deeper, n_layers=actor.n_layers).param_count() == TABLE1[size][5]
