"""Decoder-only transformer substrate (configs, layers, attention, generation)."""

from .attention import (
    AttentionOutput,
    ChunkedAttentionOutput,
    KVCache,
    MultiHeadAttention,
    causal_mask,
    ragged_selection_mask,
)
from .config import MODEL_CONFIGS, ModelConfig, get_model_config, scaled_down_config
from .generation import (
    GenerationResult,
    IncrementalDecoder,
    generate,
    greedy_sample,
    stage_gemm_macs,
)
from .layers import Embedding, Linear, gelu, layer_norm, relu, rms_norm, silu, softmax
from .transformer import (
    DecoderLayer,
    ForwardStats,
    QuantizedTransformer,
    TransformerModel,
)

__all__ = [
    "ModelConfig",
    "MODEL_CONFIGS",
    "get_model_config",
    "scaled_down_config",
    "Embedding",
    "Linear",
    "softmax",
    "gelu",
    "silu",
    "relu",
    "layer_norm",
    "rms_norm",
    "KVCache",
    "MultiHeadAttention",
    "AttentionOutput",
    "ChunkedAttentionOutput",
    "causal_mask",
    "ragged_selection_mask",
    "DecoderLayer",
    "TransformerModel",
    "QuantizedTransformer",
    "ForwardStats",
    "GenerationResult",
    "IncrementalDecoder",
    "generate",
    "greedy_sample",
    "stage_gemm_macs",
]
