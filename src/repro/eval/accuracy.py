"""Inference-fidelity experiments (paper Table 2, Fig. 24a and Fig. 25).

The paper reports task accuracy of FP16, INT8, MCBP-standard and
MCBP-aggressive models on MMLU/MBPP/GLUE/etc.  Pre-trained checkpoints and the
datasets are not available offline, so fidelity is measured instead: how
closely each execution mode reproduces the float model's outputs on synthetic
prompts.  The orderings the paper relies on -- INT8 is nearly lossless,
MCBP-standard matches INT8, MCBP-aggressive trades a small drop for more
sparsity, smaller alpha prunes more but hurts accuracy -- are all preserved by
these metrics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.bgpp import make_bgpp_predictor, make_value_topk_predictor
from ..model.config import get_model_config
from ..model.transformer import QuantizedTransformer, TransformerModel
from ..sparsity.metrics import plane_sparsity_profile, sparsity_report
from ..sparsity.synthetic import gaussian_int_weights
from ..workloads.profile import QUANT_SCHEMES, profile_model

__all__ = [
    "FidelityMetrics",
    "fidelity_metrics",
    "accuracy_proxy_table",
    "alpha_sweep",
    "quantization_sparsity_study",
]


class FidelityMetrics(dict):
    """Dict of fidelity metrics with attribute access for convenience."""

    def __getattr__(self, item: str) -> float:
        try:
            return self[item]
        except KeyError as exc:  # pragma: no cover - defensive
            raise AttributeError(item) from exc


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def fidelity_metrics(
    reference_logits: np.ndarray, candidate_logits: np.ndarray
) -> FidelityMetrics:
    """Compare candidate logits against the float reference.

    * ``cosine`` -- cosine similarity of the flattened logits;
    * ``top1_agreement`` -- fraction of positions with the same argmax token;
    * ``pseudo_perplexity`` -- exp of the candidate's cross-entropy against the
      reference argmax tokens (lower is better, mirrors Wikitext perplexity);
    * ``accuracy_proxy`` -- top-1 agreement expressed in percent, the stand-in
      for the task accuracies of Table 2.
    """
    ref = np.asarray(reference_logits, dtype=np.float64)
    cand = np.asarray(candidate_logits, dtype=np.float64)
    if ref.shape != cand.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {cand.shape}")
    # one reduction method for all three dot products, so identical inputs
    # give exactly 1.0 (sqrt(fl(x*x)) == x) whatever BLAS threading does
    r, c = ref.ravel(), cand.ravel()
    norm = np.sqrt(np.dot(r, r) * np.dot(c, c))
    cosine = float(np.clip(np.dot(r, c) / max(norm, 1e-12), -1.0, 1.0))
    ref_tokens = np.argmax(ref, axis=-1)
    cand_tokens = np.argmax(cand, axis=-1)
    top1 = float(np.mean(ref_tokens == cand_tokens))
    probs = _softmax(cand)
    picked = probs[np.arange(ref_tokens.size), ref_tokens]
    ce = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
    return FidelityMetrics(
        cosine=cosine,
        top1_agreement=top1,
        pseudo_perplexity=float(np.exp(ce)),
        accuracy_proxy=100.0 * top1,
    )


def _synthetic_prompts(
    vocab_size: int, n_prompts: int, prompt_len: int, seed: int
) -> List[List[int]]:
    rng = np.random.default_rng(seed)
    return [
        rng.integers(1, vocab_size, size=prompt_len).tolist() for _ in range(n_prompts)
    ]


def accuracy_proxy_table(
    model_name: str = "tiny",
    n_prompts: int = 3,
    prompt_len: int = 24,
    standard_alpha: float = 0.7,
    aggressive_alpha: float = 0.5,
    seed: int = 0,
) -> Dict[str, FidelityMetrics]:
    """Table 2 analogue: FP16 / INT8 / MCBP-standard / MCBP-aggressive fidelity.

    All modes are compared against the float model.  MCBP standard/aggressive
    run the INT8 model with the BGPP predictor at a conservative / aggressive
    alpha, mirroring the paper's two operating points.
    """
    config = get_model_config(model_name)
    model = TransformerModel(config, seed=seed)
    quantized = QuantizedTransformer(
        model, weight_bits=8, calibration_tokens=list(range(1, 33))
    )
    prompts = _synthetic_prompts(config.vocab_size, n_prompts, prompt_len, seed + 1)

    standard_pred = make_bgpp_predictor(alpha=[0.9, 0.8, standard_alpha])
    aggressive_pred = make_bgpp_predictor(alpha=[0.8, aggressive_alpha, aggressive_alpha])

    modes = {
        "FP16": lambda tokens: model.forward(tokens)[0],
        "INT8": lambda tokens: quantized.forward(tokens)[0],
        "MCBP (S)": lambda tokens: quantized.forward(tokens, predictor=standard_pred)[0],
        "MCBP (A)": lambda tokens: quantized.forward(tokens, predictor=aggressive_pred)[0],
    }

    accumulated: Dict[str, List[FidelityMetrics]] = {name: [] for name in modes}
    for tokens in prompts:
        reference = model.forward(tokens)[0]
        for name, fn in modes.items():
            accumulated[name].append(fidelity_metrics(reference, fn(tokens)))

    table: Dict[str, FidelityMetrics] = {}
    for name, entries in accumulated.items():
        table[name] = FidelityMetrics(
            {k: float(np.mean([e[k] for e in entries])) for k in entries[0]}
        )
    return table


def alpha_sweep(
    alphas: Sequence[float] = (0.8, 0.7, 0.6, 0.5, 0.4, 0.3),
    model_name: str = "tiny",
    prompt_len: int = 48,
    n_prompts: int = 2,
    seed: int = 0,
) -> Dict[float, Dict[str, float]]:
    """Impact of alpha on accuracy proxy and attention sparsity (Fig. 24a).

    Smaller alpha prunes more keys (higher attention sparsity) at the cost of
    output fidelity -- the same trade-off the paper tunes to pick alpha in
    0.5-0.6.
    """
    config = get_model_config(model_name)
    model = TransformerModel(config, seed=seed)
    prompts = _synthetic_prompts(config.vocab_size, n_prompts, prompt_len, seed + 3)
    references = [model.forward(tokens)[0] for tokens in prompts]

    out: Dict[float, Dict[str, float]] = {}
    for alpha in alphas:
        predictor = make_bgpp_predictor(alpha=alpha)
        fidelities, sparsities = [], []
        for tokens, reference in zip(prompts, references):
            logits, stats = model.forward(tokens, predictor=predictor)
            fidelities.append(fidelity_metrics(reference, logits)["accuracy_proxy"])
            sparsities.append(stats.attention_sparsity)
        out[float(alpha)] = {
            "accuracy_proxy": float(np.mean(fidelities)),
            "attention_sparsity": float(100.0 * np.mean(sparsities)),
        }
    return out


def quantization_sparsity_study(
    model_name: str = "Llama13B",
    rows: int = 256,
    seed: int = 0,
) -> Dict[str, Dict[str, object]]:
    """Bit vs value sparsity and BRCR/BSTC gains per quantisation scheme (Fig. 25).

    Covers PTQ-INT8, QAT-INT8 and PTQ-INT4 with the per-plane sparsity profile,
    mean bit sparsity, value sparsity, and the resulting normalised computation
    (via BRCR) and memory access (via BSTC) relative to the value-level dense
    execution of each scheme.
    """
    config = get_model_config(model_name)
    out: Dict[str, Dict[str, object]] = {}
    for scheme_name, scheme in QUANT_SCHEMES.items():
        bits = int(scheme["bits"])
        weights = gaussian_int_weights(
            (rows, min(config.hidden_size, 4096)),
            bits=bits,
            distribution=scheme["distribution"],
            seed=seed,
        )
        report = sparsity_report(weights, bits=bits)
        profile = profile_model(model_name, quant_scheme=scheme_name, seed=seed)
        out[scheme_name] = {
            "bits": bits,
            "plane_sparsity": plane_sparsity_profile(weights, bits=bits),
            "bit_sparsity": report.bit_sparsity,
            "value_sparsity": report.value_sparsity,
            "norm_computation_brcr": float(bits / profile.brcr_reduction / bits),
            "norm_memory_bstc": float(1.0 / profile.bstc_compression_ratio),
        }
    return out
