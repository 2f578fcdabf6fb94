"""Decoder-only transformer substrate executed in NumPy.

The model is deliberately small-scale and synthetic-weight friendly: the
accelerator study needs exact layer shapes, a working KV cache and a faithful
prefill/decode split, not trained weights.  A quantised execution mode routes
every linear projection through :class:`repro.quant.QuantizedLinear` so that
INT8 (or INT4) inference fidelity can be compared against the float model
(Table 2) and so that MCBP's BRCR path can be exercised end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import (
    AttentionOutput,
    KVCache,
    MultiHeadAttention,
    causal_mask,
    ragged_selection_mask,
)
from .config import ModelConfig
from .layers import ACTIVATIONS, Embedding, Linear, layer_norm, rms_norm, softmax

__all__ = ["DecoderLayer", "TransformerModel", "QuantizedTransformer", "ForwardStats"]

KeyPredictor = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class ForwardStats:
    """Aggregated statistics of one forward pass (per layer sums).

    ``row_keys_attended`` / ``row_keys_total`` optionally carry the same
    counts broken down per processed row (``(tokens_processed,)`` int64,
    summed over layers).  The serving prefix cache stores them per prompt
    page so cache-hit sessions can credit skipped rows' statistics exactly;
    they are excluded from equality/repr so ``ForwardStats`` comparisons
    keep meaning "same scalar totals".
    """

    keys_attended: int = 0
    keys_total: int = 0
    tokens_processed: int = 0
    row_keys_attended: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )
    row_keys_total: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )

    @property
    def attention_density(self) -> float:
        return self.keys_attended / self.keys_total if self.keys_total else 1.0

    @property
    def attention_sparsity(self) -> float:
        return 1.0 - self.attention_density

    def merge(self, attn: AttentionOutput) -> None:
        self.keys_attended += attn.keys_attended
        self.keys_total += attn.keys_total
        self.add_rows(
            getattr(attn, "row_keys_attended", None),
            getattr(attn, "row_keys_total", None),
        )

    def add_rows(
        self, row_attended: Optional[np.ndarray], row_total: Optional[np.ndarray]
    ) -> None:
        """Accumulate one layer's per-row counts (no-op when unavailable)."""
        if row_attended is None or row_total is None:
            return
        row_attended = np.asarray(row_attended, dtype=np.int64)
        row_total = np.asarray(row_total, dtype=np.int64)
        if self.row_keys_attended is None:
            self.row_keys_attended = row_attended.copy()
            self.row_keys_total = row_total.copy()
        else:
            self.row_keys_attended = self.row_keys_attended + row_attended
            self.row_keys_total = self.row_keys_total + row_total


class DecoderLayer:
    """One pre-norm decoder block: attention + feed-forward network."""

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        self.config = config
        h = config.hidden_size
        self.attention = MultiHeadAttention(h, config.n_heads, seed=seed * 10)
        self.ffn_up = Linear.random(h, config.ffn_hidden, seed=seed * 10 + 5)
        self.ffn_down = Linear.random(config.ffn_hidden, h, seed=seed * 10 + 6)
        self.activation = ACTIVATIONS[config.activation]
        self.norm_fn = rms_norm if config.norm == "rmsnorm" else layer_norm

    def linear_layers(self) -> Dict[str, Linear]:
        """Named float linear layers of this block (for quantisation)."""
        return {
            "wq": self.attention.wq,
            "wk": self.attention.wk,
            "wv": self.attention.wv,
            "wo": self.attention.wo,
            "ffn_up": self.ffn_up,
            "ffn_down": self.ffn_down,
        }

    def __call__(
        self,
        hidden: np.ndarray,
        cache: Optional[KVCache] = None,
        predictor: Optional[KeyPredictor] = None,
    ) -> Tuple[np.ndarray, AttentionOutput]:
        normed = self.norm_fn(hidden)
        attn = self.attention(normed, cache=cache, predictor=predictor)
        hidden = hidden + attn.output
        normed = self.norm_fn(hidden)
        ffn = self.ffn_down(self.activation(self.ffn_up(normed)))
        hidden = hidden + ffn
        return hidden, attn


class TransformerModel:
    """A float decoder-only transformer with synthetic Gaussian weights."""

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        self.config = config
        self.embedding = Embedding.random(
            config.vocab_size, config.hidden_size, seed=seed
        )
        self.layers = [
            DecoderLayer(config, seed=seed + i + 1) for i in range(config.n_layers)
        ]
        self.lm_head = Linear.random(
            config.hidden_size, config.vocab_size, seed=seed + 999
        )
        self.norm_fn = rms_norm if config.norm == "rmsnorm" else layer_norm

    def new_cache(self, arena=None) -> List[KVCache]:
        """Fresh per-layer KV caches (handles onto ``arena`` when given)."""
        if arena is not None:
            return arena.new_session_caches()
        return [KVCache() for _ in self.layers]

    def forward(
        self,
        token_ids: Sequence[int],
        caches: Optional[List[KVCache]] = None,
        predictor: Optional[KeyPredictor] = None,
    ) -> Tuple[np.ndarray, ForwardStats]:
        """Run the model over ``token_ids`` and return logits ``(seq, vocab)``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        hidden = self.embedding(token_ids)
        stats = ForwardStats(tokens_processed=int(token_ids.size))
        for i, layer in enumerate(self.layers):
            cache = caches[i] if caches is not None else None
            hidden, attn = layer(hidden, cache=cache, predictor=predictor)
            stats.merge(attn)
        hidden = self.norm_fn(hidden)
        logits = self.lm_head(hidden)
        return logits, stats

    def hidden_states(self, token_ids: Sequence[int]) -> np.ndarray:
        """Final-layer hidden states (used as a fidelity reference)."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        hidden = self.embedding(token_ids)
        for layer in self.layers:
            hidden, _ = layer(hidden)
        return self.norm_fn(hidden)

    def named_weight_matrices(self) -> Dict[str, np.ndarray]:
        """All GEMM weight matrices keyed ``layer{i}.{name}`` (plus the LM head)."""
        out: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, lin in layer.linear_layers().items():
                out[f"layer{i}.{name}"] = lin.weight
        out["lm_head"] = self.lm_head.weight
        return out


class QuantizedTransformer:
    """Integer-quantised execution of a :class:`TransformerModel`.

    Every linear projection is replaced by a calibrated
    :class:`repro.quant.QuantizedLinear`; non-linear operators stay in float,
    matching the paper's deployment (GEMMs INT8, softmax/norm FP16).
    ``sparse_predictor`` plugs a top-k / BGPP key selector into attention.

    Because every GEMM operand is an exact integer product, the model offers
    a fused serving path: :meth:`prefill_batch` advances ``B`` independent
    streams -- prompt chunks and one-row decode steps alike -- through
    **one** forward pass (one GEMM per projection for the whole batch, one
    ragged attention per layer) with bit-identical results to running each
    stream alone through :meth:`forward`.  :meth:`bind_engine` additionally
    routes every integer product through a shared
    :class:`repro.core.engine.MCBPEngine`, so the BSTC-compressed weights are
    decoded at most once per layer via the decoded-plane cache and the
    engine's traffic counters account for the serving run.
    """

    def __init__(
        self,
        model: TransformerModel,
        weight_bits: int = 8,
        activation_bits: int = 8,
        calibration_tokens: Optional[Sequence[int]] = None,
        clip_percentile: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        from ..quant.calibration import calibrate_linear

        self.model = model
        self.config = model.config
        self.weight_bits = weight_bits
        self.activation_bits = activation_bits
        self.engine = None  # set by bind_engine()
        rng = np.random.default_rng(seed)
        if calibration_tokens is None:
            calibration_tokens = rng.integers(
                0, model.config.vocab_size, size=min(64, model.config.max_seq_len)
            )
        # Calibrate each linear layer against the float model's activations at
        # that point in the network.
        calib_hidden = model.embedding(np.asarray(calibration_tokens, dtype=np.int64))
        self.quant_layers: List[Dict[str, object]] = []
        hidden = calib_hidden
        for layer in model.layers:
            normed = layer.norm_fn(hidden)
            entry: Dict[str, object] = {}
            for name in ("wq", "wk", "wv"):
                lin = layer.linear_layers()[name]
                entry[name] = calibrate_linear(
                    lin.weight, normed, weight_bits=weight_bits,
                    activation_bits=activation_bits, clip_percentile=clip_percentile,
                )
            attn = layer.attention
            context = attn.merged_context(attn.wq(normed), attn.wk(normed), attn.wv(normed))
            entry["wo"] = calibrate_linear(
                attn.wo.weight, context, weight_bits=weight_bits,
                activation_bits=activation_bits, clip_percentile=clip_percentile,
            )
            hidden = hidden + attn.wo(context)
            normed2 = layer.norm_fn(hidden)
            entry["ffn_up"] = calibrate_linear(
                layer.ffn_up.weight, normed2, weight_bits=weight_bits,
                activation_bits=activation_bits, clip_percentile=clip_percentile,
            )
            up = layer.activation(layer.ffn_up(normed2))
            entry["ffn_down"] = calibrate_linear(
                layer.ffn_down.weight, up, weight_bits=weight_bits,
                activation_bits=activation_bits, clip_percentile=clip_percentile,
            )
            hidden = hidden + layer.ffn_down(up)
            self.quant_layers.append(entry)
        self.lm_head = calibrate_linear(
            model.lm_head.weight, model.norm_fn(hidden), weight_bits=weight_bits,
            activation_bits=activation_bits, clip_percentile=clip_percentile,
        )

    def quantized_weight_matrices(self) -> Dict[str, np.ndarray]:
        """Integer weight matrices keyed like ``TransformerModel.named_weight_matrices``."""
        out: Dict[str, np.ndarray] = {}
        for i, entry in enumerate(self.quant_layers):
            for name, qlin in entry.items():
                out[f"layer{i}.{name}"] = qlin.weight_q  # type: ignore[union-attr]
        out["lm_head"] = self.lm_head.weight_q
        return out

    def bind_engine(self, engine, prefix: str = "") -> None:
        """Route every integer GEMM through a shared :class:`MCBPEngine`.

        Registers each quantised weight matrix (BSTC-compressed) under
        ``{prefix}layer{i}.{name}`` / ``{prefix}lm_head`` and makes
        :meth:`forward` / :meth:`prefill_batch` fetch their integer products
        from :meth:`repro.core.engine.MCBPEngine.matmul`: the decoded-plane
        LRU cache then pays at most one BSTC decode per matrix no matter how
        many steps or co-resident streams reuse it, and the engine's
        cache/traffic counters describe the serving run.  Outputs are
        bit-identical to the unbound model (the decode round-trip is exact).
        """
        for name, weight_q in self.quantized_weight_matrices().items():
            engine.register_weight(prefix + name, weight_q)
        self.engine = engine
        self._engine_prefix = prefix

    def _qlin_forward(self, qlin, name: str, x: np.ndarray) -> np.ndarray:
        """One quantised projection, routed through the bound engine if any."""
        if self.engine is None:
            out, _ = qlin.forward(x)
        else:
            full_name = self._engine_prefix + name
            out, _ = qlin.forward(
                x, product_fn=lambda xq: self.engine.matmul(full_name, xq)
            )
        return out

    def forward(
        self,
        token_ids: Sequence[int],
        caches: Optional[List[KVCache]] = None,
        predictor: Optional[KeyPredictor] = None,
    ) -> Tuple[np.ndarray, ForwardStats]:
        """Quantised forward pass returning float logits ``(seq, vocab)``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        hidden = self.model.embedding(token_ids)
        stats = ForwardStats(tokens_processed=int(token_ids.size))
        for i, (layer, qentry) in enumerate(zip(self.model.layers, self.quant_layers)):
            normed = layer.norm_fn(hidden)
            attn_mod = layer.attention
            q = self._qlin_forward(qentry["wq"], f"layer{i}.wq", normed)
            k = self._qlin_forward(qentry["wk"], f"layer{i}.wk", normed)
            v = self._qlin_forward(qentry["wv"], f"layer{i}.wv", normed)

            attn_out = self._attention(attn_mod, q, k, v, caches, layer, predictor)
            proj = self._qlin_forward(qentry["wo"], f"layer{i}.wo", attn_out.output)
            hidden = hidden + proj
            stats.merge(attn_out)

            normed2 = layer.norm_fn(hidden)
            up = self._qlin_forward(qentry["ffn_up"], f"layer{i}.ffn_up", normed2)
            act = layer.activation(up)
            down = self._qlin_forward(qentry["ffn_down"], f"layer{i}.ffn_down", act)
            hidden = hidden + down
        hidden = self.model.norm_fn(hidden)
        logits = self._qlin_forward(self.lm_head, "lm_head", hidden)
        return logits, stats

    def forward_batch(
        self,
        tokens: Sequence[int],
        caches_list: Sequence[List[KVCache]],
        predictor: Optional[KeyPredictor] = None,
    ) -> Tuple[np.ndarray, List[ForwardStats]]:
        """One decode row per stream: :meth:`prefill_batch` over 1-token chunks.

        The serving engine calls :meth:`prefill_batch` directly; this entry
        point stays because ``perfbench`` instruments the model by name.
        """
        return self.prefill_batch(
            [[int(t)] for t in tokens], caches_list, predictor=predictor
        )

    def prefill_batch(
        self,
        chunks: Sequence[Sequence[int]],
        caches_list: Sequence[List[KVCache]],
        predictor: Optional[KeyPredictor] = None,
        total_lens: Optional[Sequence[int]] = None,
        row_logits_for: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, List[ForwardStats]]:
        """One fused pass over ``B`` ragged prompt chunks (and decode rows).

        ``chunks[b]`` is stream ``b``'s next batch of accepted tokens -- a
        prompt chunk mid-prefill, or a single token for a co-scheduled decode
        stream -- and ``caches_list[b]`` its per-layer KV caches holding the
        stream's earlier tokens.  All chunk rows are stacked into one
        ``(total_rows, hidden)`` activation matrix, so each weight matrix is
        applied **once** per step for the whole mixed batch (one integer GEMM
        -- and, with a bound engine, at most one BSTC decode -- per
        projection) and attention runs as one ragged chunked pass per layer
        (:meth:`MultiHeadAttention.prefill_batch`).

        ``total_lens[b]`` is the final length of the serial forward stream
        ``b`` is reproducing: the full prompt length for a chunked prefill,
        the post-append context length for a decode row (the default).  Every
        float op is row-local, every integer GEMM is exact and every softmax
        reduces over exactly the serial pass's width, so per-stream
        statistics equal running each stream's whole prompt through
        :meth:`forward` in one shot, and so do the logits of every batch the
        fuzz suites draw -- regardless of chunk boundaries or batch
        composition.  (Decode rows reproduce :meth:`forward`'s attention bit
        for bit; a prompt chunk's attention rows can differ from it by a few
        ulp, see :meth:`MultiHeadAttention.prefill_batch`, which the next
        projection's activation quantisation absorbs.)

        Returns float logits ``(B, vocab)`` (one row per stream, the logits
        of that stream's **last chunk row**) and one :class:`ForwardStats`
        per stream covering only this chunk's rows.

        ``row_logits_for`` names stream indices whose *per-row* logits the
        caller needs -- the speculative verify pass samples one token after
        every chunk row, not just the last.  When given, a third return value
        is appended: ``{b: (row_counts[b], vocab) logits}`` for exactly those
        streams, produced by one extra LM-head projection over the selected
        rows (the LM head is row-local, so each row's logits equal what a
        serial forward ending at that row would produce).
        """
        chunks = [np.asarray(c, dtype=np.int64).reshape(-1) for c in chunks]
        n_streams = len(chunks)
        if n_streams == 0:
            raise ValueError("prefill_batch needs at least one stream")
        if any(c.size == 0 for c in chunks):
            raise ValueError("every chunk must contain at least one token")
        if len(caches_list) != n_streams:
            raise ValueError(
                f"expected {n_streams} cache lists, got {len(caches_list)}"
            )
        row_counts = np.array([c.size for c in chunks], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(row_counts)])
        if total_lens is not None:
            total_lens = np.asarray(total_lens, dtype=np.int64)
        hidden = self.model.embedding(np.concatenate(chunks))
        row_attended = np.zeros(int(offsets[-1]), dtype=np.int64)
        row_total = np.zeros(int(offsets[-1]), dtype=np.int64)
        for i, (layer, qentry) in enumerate(zip(self.model.layers, self.quant_layers)):
            normed = layer.norm_fn(hidden)
            q = self._qlin_forward(qentry["wq"], f"layer{i}.wq", normed)
            k = self._qlin_forward(qentry["wk"], f"layer{i}.wk", normed)
            v = self._qlin_forward(qentry["wv"], f"layer{i}.wv", normed)

            attn = layer.attention.prefill_batch(
                q,
                k,
                v,
                row_counts,
                [caches[i] for caches in caches_list],
                total_lens=total_lens,
                predictor=predictor,
            )
            proj = self._qlin_forward(qentry["wo"], f"layer{i}.wo", attn.output)
            hidden = hidden + proj
            row_attended += attn.row_keys_attended
            row_total += attn.row_keys_total

            normed2 = layer.norm_fn(hidden)
            up = self._qlin_forward(qentry["ffn_up"], f"layer{i}.ffn_up", normed2)
            act = layer.activation(up)
            down = self._qlin_forward(qentry["ffn_down"], f"layer{i}.ffn_down", act)
            hidden = hidden + down
        keys_attended = np.add.reduceat(row_attended, offsets[:-1])
        keys_total = np.add.reduceat(row_total, offsets[:-1])
        stats = [
            ForwardStats(
                keys_attended=int(keys_attended[b]),
                keys_total=int(keys_total[b]),
                tokens_processed=int(row_counts[b]),
                row_keys_attended=row_attended[offsets[b] : offsets[b + 1]],
                row_keys_total=row_total[offsets[b] : offsets[b + 1]],
            )
            for b in range(n_streams)
        ]
        hidden = self.model.norm_fn(hidden)
        # only each stream's last chunk row can be sampled from; the LM head
        # is row-local, so projecting just those B rows is exact
        last_rows = hidden[offsets[1:] - 1]
        logits = self._qlin_forward(self.lm_head, "lm_head", last_rows)
        if row_logits_for is None:
            return logits, stats
        sel = [int(b) for b in row_logits_for]
        if not sel:
            return logits, stats, {}
        rows = np.concatenate(
            [hidden[offsets[b] : offsets[b + 1]] for b in sel]
        )
        all_logits = self._qlin_forward(self.lm_head, "lm_head", rows)
        row_logits: Dict[int, np.ndarray] = {}
        pos = 0
        for b in sel:
            n = int(row_counts[b])
            row_logits[b] = all_logits[pos : pos + n]
            pos += n
        return logits, stats, row_logits

    def _attention(
        self,
        attn_mod: MultiHeadAttention,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        caches: Optional[List[KVCache]],
        layer: DecoderLayer,
        predictor: Optional[KeyPredictor],
    ) -> AttentionOutput:
        """Attention on pre-projected Q/K/V (projections already quantised)."""
        layer_index = self.model.layers.index(layer)
        cache = caches[layer_index] if caches is not None else None
        if cache is not None:
            cache.append(k, v)
            k_all, v_all = cache.keys, cache.values
        else:
            k_all, v_all = k, v

        qh = attn_mod._split_heads(np.atleast_2d(q))
        kh = attn_mod._split_heads(np.atleast_2d(k_all))
        vh = attn_mod._split_heads(np.atleast_2d(v_all))
        n_queries, n_keys = qh.shape[1], kh.shape[1]
        mask = causal_mask(n_queries, n_keys)

        selection_mask = np.ones((n_queries, n_keys), dtype=bool)
        if predictor is not None:
            selection_mask = ragged_selection_mask(
                predictor, np.atleast_2d(q), np.atleast_2d(k_all), mask
            )
        full_mask = mask & selection_mask

        scale = 1.0 / np.sqrt(attn_mod.head_dim)
        logits = np.einsum("hqd,hkd->hqk", qh, kh) * scale
        logits = np.where(full_mask[None, :, :], logits, -np.inf)
        probs = softmax(logits, axis=-1)
        context = np.einsum("hqk,hkd->hqd", probs, vh)
        merged = attn_mod._merge_heads(context)
        row_attended = full_mask.sum(axis=1).astype(np.int64)
        row_total = mask.sum(axis=1).astype(np.int64)
        keys_attended = int(row_attended.sum())
        keys_total = int(row_total.sum())
        return AttentionOutput(
            output=merged,
            keys_attended=keys_attended,
            keys_total=keys_total,
            selected_fraction=keys_attended / keys_total if keys_total else 1.0,
            row_keys_attended=row_attended,
            row_keys_total=row_total,
        )

    def new_cache(self, arena=None) -> List[KVCache]:
        return self.model.new_cache(arena=arena)
