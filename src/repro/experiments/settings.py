"""Experiment settings matching the paper's evaluation (Section 8, Appendix A).

The base configuration follows InstructGPT: a global batch of 512 prompts,
context length 2048 (1024 prompt + 1024 generation) and 8 PPO minibatches.
Weak-scaling experiments grow the model and the batch with the cluster;
long-context experiments keep the token budget constant while stretching the
context; strong-scaling experiments keep the problem fixed and vary the GPU
count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..algorithms.registry import build_graph
from ..cluster.hardware import ClusterSpec, make_cluster
from ..core.dataflow import DataflowGraph
from ..core.workload import RLHFWorkload, instructgpt_workload

__all__ = [
    "ExperimentSetting",
    "BASE_BATCH_SIZE",
    "BASE_PROMPT_LEN",
    "BASE_GEN_LEN",
    "weak_scaling_settings",
    "figure8_settings",
    "strong_scaling_settings",
    "algorithm_settings",
    "gpus_for_actor",
]

BASE_BATCH_SIZE = 512
BASE_PROMPT_LEN = 1024
BASE_GEN_LEN = 1024
BASE_PPO_MINIBATCHES = 8

#: Weak-scaling association between actor size and cluster size (Appendix A):
#: 16, 32, 64, 128 GPUs host the 7B, 13B, 34B, 70B actors respectively.
ACTOR_TO_GPUS = {"7b": 16, "13b": 32, "34b": 64, "70b": 128}
#: Weak-scaling batch sizes for those cluster sizes.
GPUS_TO_BATCH = {8: 256, 16: 512, 32: 1024, 64: 2048, 96: 3072, 128: 4096}
#: Critic size of the weak-scaling, strong-scaling and algorithm sweeps (the
#: paper's 7B-critic panels).
CRITIC_SIZE = "7b"
#: The Figure 16 algorithms beyond PPO.
FIGURE16_ALGORITHMS = ("dpo", "grpo", "remax")


def gpus_for_actor(actor_size: str) -> int:
    """The weak-scaling cluster size associated with an actor size."""
    return ACTOR_TO_GPUS[actor_size.lower()]


@dataclass(frozen=True)
class ExperimentSetting:
    """One point of an evaluation figure: sizes, cluster and data shape."""

    name: str
    actor_size: str
    critic_size: str
    n_gpus: int
    batch_size: int = BASE_BATCH_SIZE
    prompt_len: int = BASE_PROMPT_LEN
    gen_len: int = BASE_GEN_LEN
    n_ppo_minibatches: int = BASE_PPO_MINIBATCHES
    algorithm: str = "ppo"
    gpus_per_node: int = 8

    @property
    def context_len(self) -> int:
        """Total context length."""
        return self.prompt_len + self.gen_len

    def workload(self) -> RLHFWorkload:
        """Build the :class:`RLHFWorkload` of this setting."""
        return instructgpt_workload(
            actor_size=self.actor_size,
            critic_size=self.critic_size,
            batch_size=self.batch_size,
            prompt_len=self.prompt_len,
            gen_len=self.gen_len,
            n_ppo_minibatches=self.n_ppo_minibatches,
        )

    def cluster(self) -> ClusterSpec:
        """Build the :class:`ClusterSpec` of this setting."""
        return make_cluster(self.n_gpus, gpus_per_node=self.gpus_per_node)

    def graph(self) -> DataflowGraph:
        """Build the dataflow graph of this setting's RLHF algorithm."""
        return build_graph(self.algorithm)

    def with_context(self, context_len: int) -> "ExperimentSetting":
        """Scale to a longer context while keeping the token budget constant.

        The paper fixes the number of tokens per global batch, so quadrupling
        the context from 2048 to 8192 divides the batch size by four.
        """
        scale = context_len / self.context_len
        new_batch = max(self.n_ppo_minibatches, int(round(self.batch_size / scale)))
        return replace(
            self,
            name=f"{self.name}-ctx{context_len}",
            prompt_len=context_len // 2,
            gen_len=context_len // 2,
            batch_size=new_batch,
        )


def weak_scaling_settings() -> List[ExperimentSetting]:
    """The Figure 7 weak-scaling sweep: actor and batch grow with the cluster."""
    return [
        ExperimentSetting(
            name=f"{actor}+{CRITIC_SIZE}-{n_gpus}gpus",
            actor_size=actor,
            critic_size=CRITIC_SIZE,
            n_gpus=n_gpus,
            batch_size=GPUS_TO_BATCH[n_gpus],
        )
        for actor, n_gpus in ACTOR_TO_GPUS.items()
    ]


def figure8_settings(context_len: int = 2048) -> List[ExperimentSetting]:
    """The Figure 8 actor/critic size pairs, at context 2048 or 8192."""
    pairs: List[Tuple[str, str]] = [
        ("7b", "7b"),
        ("13b", "7b"),
        ("13b", "13b"),
        ("34b", "7b"),
        ("34b", "13b"),
        ("70b", "7b"),
        ("70b", "13b"),
    ]
    settings = []
    for actor, critic in pairs:
        n_gpus = gpus_for_actor(actor)
        base = ExperimentSetting(
            name=f"{actor}+{critic}",
            actor_size=actor,
            critic_size=critic,
            n_gpus=n_gpus,
            batch_size=GPUS_TO_BATCH[n_gpus],
        )
        settings.append(base if context_len == base.context_len else base.with_context(context_len))
    return settings


def strong_scaling_settings(
    actor_size: str = "7b",
    gpu_counts: Tuple[int, ...] = (8, 16, 32, 64, 96, 128),
) -> List[ExperimentSetting]:
    """The Figure 17 strong-scaling sweep: fixed problem, growing cluster."""
    return [
        ExperimentSetting(
            name=f"{actor_size}+{CRITIC_SIZE}-{n}gpus",
            actor_size=actor_size,
            critic_size=CRITIC_SIZE,
            n_gpus=n,
            batch_size=BASE_BATCH_SIZE,
        )
        for n in gpu_counts
    ]


def algorithm_settings(
    actor_size: str = "70b", n_gpus: int = 128
) -> List[ExperimentSetting]:
    """The Figure 16 settings: RLHF algorithms beyond PPO on 16 nodes."""
    return [
        ExperimentSetting(
            name=f"{algorithm}-{actor_size}+{CRITIC_SIZE}",
            actor_size=actor_size,
            critic_size=CRITIC_SIZE,
            n_gpus=n_gpus,
            batch_size=GPUS_TO_BATCH[n_gpus],
            algorithm=algorithm,
        )
        for algorithm in FIGURE16_ALGORITHMS
    ]
