"""Model substrate: LLaMA-3 configs, FLOP/memory models and the layer kernel model."""

from .config import (
    LLAMA3_CONFIGS,
    MODEL_SIZES,
    ModelConfig,
    get_model_config,
)
from .flops import (
    generation_flops,
    inference_flops,
    model_forward_flops,
    training_step_flops,
)
from .layers import LayerCostModel, LayerTiming
from .memory import (
    GRAD_BYTES,
    OPTIMIZER_BYTES_PER_PARAM,
    PARAM_BYTES,
    MemoryBreakdown,
    MemoryModel,
)

__all__ = [
    "ModelConfig",
    "LLAMA3_CONFIGS",
    "MODEL_SIZES",
    "get_model_config",
    "model_forward_flops",
    "training_step_flops",
    "generation_flops",
    "inference_flops",
    "LayerCostModel",
    "LayerTiming",
    "MemoryModel",
    "MemoryBreakdown",
    "PARAM_BYTES",
    "GRAD_BYTES",
    "OPTIMIZER_BYTES_PER_PARAM",
]
