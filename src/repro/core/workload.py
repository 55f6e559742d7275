"""Experiment workloads: which models, batch size, context length, algorithm.

The paper's base setting follows InstructGPT (Appendix A): a global batch of
512 prompts, context length 2048 with a maximum prompt length of 1024, and 8
PPO minibatches.  :class:`RLHFWorkload` captures these knobs together with the
model configurations of each LLM role and derives the per-function-call data
sizes consumed by the profiler, estimator, runtime engine and throughput
metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..model import flops as F
from ..model.config import ModelConfig, get_model_config
from .dataflow import FunctionCallType, ModelFunctionCall

__all__ = ["CallWorkload", "RLHFWorkload", "instructgpt_workload"]


@dataclass(frozen=True)
class CallWorkload:
    """Data sizes of a single model function call.

    ``n_minibatches`` only applies to training calls: the global batch is
    split into that many PPO minibatches whose parameter updates happen
    sequentially (this is *not* gradient accumulation, see Section 2.1).
    """

    batch_size: int
    prompt_len: int
    gen_len: int
    n_minibatches: int = 1

    @property
    def seqlen(self) -> int:
        """Full sequence length (prompt + generated response)."""
        return self.prompt_len + self.gen_len


@dataclass(frozen=True)
class RLHFWorkload:
    """A complete RLHF experiment configuration.

    Attributes
    ----------
    model_configs:
        Mapping from model name (``"actor"``, ``"critic"``, ``"ref"``,
        ``"reward"``) to its architecture.
    batch_size:
        Global number of prompts per RLHF iteration.
    prompt_len / gen_len:
        Maximum prompt and generation lengths.  The paper synthesises data at
        the maximum lengths for fair comparisons; we do the same.
    n_ppo_minibatches:
        Number of sequential PPO minibatches per training call.
    """

    model_configs: Mapping[str, ModelConfig]
    batch_size: int = 512
    prompt_len: int = 1024
    gen_len: int = 1024
    n_ppo_minibatches: int = 8

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.prompt_len < 1 or self.gen_len < 0:
            raise ValueError("prompt_len must be >= 1 and gen_len >= 0")
        if self.n_ppo_minibatches < 1:
            raise ValueError("n_ppo_minibatches must be >= 1")

    # ------------------------------------------------------------------ #
    # Model lookup
    # ------------------------------------------------------------------ #
    @property
    def context_len(self) -> int:
        """Total context length (prompt + generation)."""
        return self.prompt_len + self.gen_len

    def model_config(self, model_name: str) -> ModelConfig:
        """Architecture of the named model."""
        if model_name not in self.model_configs:
            raise KeyError(
                f"model {model_name!r} not in workload (have {sorted(self.model_configs)})"
            )
        return self.model_configs[model_name]

    # ------------------------------------------------------------------ #
    # Per-call workload derivation
    # ------------------------------------------------------------------ #
    def call_workload(self, call: ModelFunctionCall) -> CallWorkload:
        """Data sizes processed by ``call`` under this workload."""
        batch = max(1, int(round(self.batch_size * call.batch_scale)))
        gen_len = int(round(self.gen_len * call.gen_len_scale))
        n_minibatches = self.n_ppo_minibatches if call.is_trainable else 1
        return CallWorkload(
            batch_size=batch,
            prompt_len=self.prompt_len,
            gen_len=gen_len,
            n_minibatches=n_minibatches,
        )

    def call_flops(self, call: ModelFunctionCall) -> float:
        """Dense FLOPs performed by ``call`` (used for throughput accounting)."""
        config = self.model_config(call.model_name)
        wl = self.call_workload(call)
        if call.call_type is FunctionCallType.GENERATE:
            return F.generation_flops(config, wl.batch_size, wl.prompt_len, wl.gen_len)
        if call.call_type is FunctionCallType.INFERENCE:
            return F.inference_flops(config, wl.batch_size, wl.seqlen)
        return F.training_step_flops(config, wl.batch_size, wl.seqlen)

    def iteration_flops(self, calls: list[ModelFunctionCall] | None = None) -> float:
        """Total FLOPs of one iteration over all calls of a dataflow graph."""
        if calls is None:
            raise ValueError("pass the dataflow graph's calls")
        return sum(self.call_flops(call) for call in calls)


def instructgpt_workload(
    actor_size: str = "7b",
    critic_size: str = "7b",
    batch_size: int = 512,
    prompt_len: int = 1024,
    gen_len: int = 1024,
    n_ppo_minibatches: int = 8,
) -> RLHFWorkload:
    """The paper's base experiment configuration (Appendix A).

    The actor and reference models share the actor architecture; the critic
    and reward models share the critic architecture with a scalar output head.
    """
    actor = get_model_config(actor_size)
    critic = get_model_config(critic_size, critic=True)
    configs: Dict[str, ModelConfig] = {
        "actor": actor,
        "ref": actor,
        "critic": critic,
        "reward": critic,
    }
    return RLHFWorkload(
        model_configs=configs,
        batch_size=batch_size,
        prompt_len=prompt_len,
        gen_len=gen_len,
        n_ppo_minibatches=n_ppo_minibatches,
    )
