"""LLaMA-3 model configurations used throughout the paper (Table 1).

The reproduction never instantiates these models' weights; the configurations
drive analytical parameter counts, FLOP counts and memory footprints.  The
parameter-count formulas below reproduce Table 1 of the paper exactly
(``TotalParamCount`` and ``ParamCount w./o. Output Embedding``), which is
verified by unit tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

__all__ = [
    "ModelConfig",
    "LLAMA3_CONFIGS",
    "MODEL_SIZES",
    "get_model_config",
    "critic_variant",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a GPT-like (LLaMA-3 style) transformer.

    Attributes
    ----------
    name:
        Identifier such as ``"llama3-7b"`` or ``"llama3-7b-critic"``.
    hidden_size:
        Transformer hidden dimension.
    intermediate_size:
        MLP intermediate dimension (SwiGLU: gate, up and down projections).
    n_layers:
        Number of transformer layers.
    n_heads:
        Number of attention (query) heads.
    n_kv_heads:
        Number of key/value heads (grouped-query attention).
    vocab_size:
        Vocabulary size (128k for LLaMA-3).
    max_position_embeddings:
        Maximum supported context length.
    is_critic:
        Whether the output head produces a scalar value instead of logits.
        Critic and reward models in RLHF use a 1-dimensional head, which is
        why the paper identifies model sizes by the embedding-less count.
    """

    name: str
    hidden_size: int
    intermediate_size: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    vocab_size: int = 128256
    max_position_embeddings: int = 8192
    is_critic: bool = False

    def __post_init__(self) -> None:
        if self.hidden_size % self.n_heads != 0:
            raise ValueError("hidden_size must be divisible by n_heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be divisible by n_kv_heads")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")

    # ------------------------------------------------------------------ #
    # Derived dimensions
    # ------------------------------------------------------------------ #
    @property
    def head_dim(self) -> int:
        """Per-head dimension."""
        return self.hidden_size // self.n_heads

    @property
    def kv_dim(self) -> int:
        """Total key/value projection dimension (grouped-query attention)."""
        return self.n_kv_heads * self.head_dim

    # ------------------------------------------------------------------ #
    # Parameter counts (reproduce Table 1 exactly)
    #
    # ``layer_params`` and ``param_count`` are memoised in the instance
    # ``__dict__``, not in dataclass fields, so ``asdict``, ``==``, ``hash``
    # and ``repr`` (and every fingerprint built from them) never see the memo.
    # The instance is frozen, so the memo cannot go stale; ``replace`` and
    # ``as_critic`` build new instances with empty memos.
    # ------------------------------------------------------------------ #
    def attention_params(self) -> int:
        """Parameters of one attention block (Q, K, V, O projections)."""
        h = self.hidden_size
        return h * h + 2 * h * self.kv_dim + h * h

    def mlp_params(self) -> int:
        """Parameters of one SwiGLU MLP block (gate, up, down projections)."""
        return 3 * self.hidden_size * self.intermediate_size

    def layer_params(self) -> int:
        """Parameters of one transformer layer including the two RMSNorms."""
        memo = self.__dict__.get("_layer_params")
        if memo is None:
            memo = self.attention_params() + self.mlp_params() + 2 * self.hidden_size
            self.__dict__["_layer_params"] = memo
        return memo

    def embedding_params(self) -> int:
        """Parameters of the input token embedding."""
        return self.vocab_size * self.hidden_size

    def output_head_params(self) -> int:
        """Parameters of the output head (LM head or scalar critic head)."""
        if self.is_critic:
            return self.hidden_size
        return self.vocab_size * self.hidden_size

    def param_count(self) -> int:
        """Total parameter count (``TotalParamCount`` in Table 1 for actors)."""
        memo = self.__dict__.get("_param_count")
        if memo is None:
            memo = (
                self.embedding_params()
                + self.n_layers * self.layer_params()
                + self.hidden_size  # final RMSNorm
                + self.output_head_params()
            )
            self.__dict__["_param_count"] = memo
        return memo

    def param_count_no_output_embedding(self) -> int:
        """Parameter count excluding the output embedding (Table 1 identifier)."""
        return self.param_count() - (self.vocab_size * self.hidden_size if not self.is_critic else 0)

    def param_bytes(self, dtype_bytes: int = 2) -> int:
        """Bytes occupied by the parameters at ``dtype_bytes`` per element."""
        return self.param_count() * dtype_bytes

    # ------------------------------------------------------------------ #
    # Variants
    # ------------------------------------------------------------------ #
    def as_critic(self) -> "ModelConfig":
        """Return the critic/reward-model variant (scalar output head)."""
        if self.is_critic:
            return self
        return dataclasses.replace(self, name=f"{self.name}-critic", is_critic=True)


def _llama3(name: str, hidden: int, inter: int, layers: int, heads: int, kv: int) -> ModelConfig:
    return ModelConfig(
        name=name,
        hidden_size=hidden,
        intermediate_size=inter,
        n_layers=layers,
        n_heads=heads,
        n_kv_heads=kv,
    )


LLAMA3_CONFIGS: Dict[str, ModelConfig] = {
    "7b": _llama3("llama3-7b", 4096, 14336, 32, 32, 8),
    "13b": _llama3("llama3-13b", 5120, 13824, 40, 40, 40),
    "34b": _llama3("llama3-34b", 8192, 22016, 48, 64, 8),
    "70b": _llama3("llama3-70b", 8192, 28672, 80, 64, 8),
}
"""The four LLaMA-3 configurations of Table 1, keyed by their size identifier."""

MODEL_SIZES = tuple(LLAMA3_CONFIGS)
"""Size identifiers in increasing order: ``("7b", "13b", "34b", "70b")``."""


def get_model_config(size: str, critic: bool = False) -> ModelConfig:
    """Look up a LLaMA-3 configuration by size identifier.

    Parameters
    ----------
    size:
        One of ``"7b"``, ``"13b"``, ``"34b"``, ``"70b"`` (case-insensitive,
        a ``"llama"``/``"llama3-"`` prefix is tolerated).
    critic:
        If True, return the critic/reward variant with a scalar output head.
    """
    key = size.lower().replace("llama3-", "").replace("llama", "").strip("-")
    if key not in LLAMA3_CONFIGS:
        raise KeyError(f"unknown model size {size!r}; expected one of {MODEL_SIZES}")
    config = LLAMA3_CONFIGS[key]
    return config.as_critic() if critic else config


def critic_variant(size: str) -> ModelConfig:
    """Shorthand for :func:`get_model_config` with ``critic=True``."""
    return get_model_config(size, critic=True)
