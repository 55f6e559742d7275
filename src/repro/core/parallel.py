"""3D parallelization strategies (data, tensor and pipeline parallelism).

Section 2.2 of the paper describes a parallelization strategy ``S`` as the
triple ``(dp, tp, pp)`` of data-, tensor- and pipeline-parallel degrees,
optionally combined with a number of micro-batches.  This module provides
the strategy value type, validation against a model and an enumeration
helper used by the plan search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..model.config import ModelConfig

__all__ = ["ParallelStrategy", "enumerate_strategies", "factorize_3d"]


@dataclass(frozen=True, slots=True)
class ParallelStrategy:
    """Degrees of data, tensor and pipeline parallelism.

    The product ``dp * tp * pp`` must equal the number of GPUs of the device
    mesh the strategy runs on (every coordinate of the 3D grid is mapped to a
    distinct GPU).
    """

    dp: int
    tp: int
    pp: int

    def __post_init__(self) -> None:
        for name, value in (("dp", self.dp), ("tp", self.tp), ("pp", self.pp)):
            if value < 1:
                raise ValueError(f"{name} degree must be >= 1, got {value}")

    @property
    def world_size(self) -> int:
        """Number of GPUs the strategy occupies."""
        return self.dp * self.tp * self.pp

    def is_compatible_with_model(self, config: ModelConfig) -> bool:
        """Whether the model can actually be sharded this way.

        Tensor parallelism must divide the number of KV heads (so every rank
        holds whole heads), and pipeline parallelism cannot exceed the number
        of layers.
        """
        if self.pp > config.n_layers:
            return False
        if config.n_heads % self.tp != 0:
            return False
        if self.tp > config.n_kv_heads and config.n_kv_heads % self.tp != 0 and self.tp % config.n_kv_heads != 0:
            return False
        return True

    def describe(self) -> str:
        """Human-readable summary, e.g. ``dp=4 tp=2 pp=2``."""
        return f"dp={self.dp} tp={self.tp} pp={self.pp}"


def factorize_3d(n: int) -> Iterator[tuple[int, int, int]]:
    """Yield all ordered triples ``(dp, tp, pp)`` with ``dp * tp * pp == n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for tp in range(1, n + 1):
        if n % tp != 0:
            continue
        rest = n // tp
        for pp in range(1, rest + 1):
            if rest % pp != 0:
                continue
            yield (rest // pp, tp, pp)


def enumerate_strategies(
    n_gpus: int,
    config: Optional[ModelConfig] = None,
    max_tp: Optional[int] = None,
) -> List[ParallelStrategy]:
    """Enumerate all 3D strategies occupying exactly ``n_gpus`` GPUs.

    ``config`` restricts strategies to those compatible with the model
    architecture; ``max_tp`` applies the search-space pruning rule from
    Section 8.2 of the paper that TP never exceeds the node width.
    """
    strategies: List[ParallelStrategy] = []
    for dp, tp, pp in factorize_3d(n_gpus):
        if max_tp is not None and tp > max_tp:
            continue
        strategy = ParallelStrategy(dp=dp, tp=tp, pp=pp)
        if config is not None and not strategy.is_compatible_with_model(config):
            continue
        strategies.append(strategy)
    return strategies
