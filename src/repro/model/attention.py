"""Multi-head self-attention with KV cache and optional sparse prediction.

Attention is where MCBP's BGPP operates: before the "formal compute" stage, a
predictor selects the vital keys for each query and the full-precision
``QK^T`` / softmax / ``PV`` computation only touches those keys (paper §2.2,
Fig. 3).  The predictor is pluggable so that the same module can run dense
attention, value-level top-k and bit-grained progressive prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

import numpy as np

from .layers import Linear, softmax

__all__ = [
    "KVCache",
    "AttentionOutput",
    "ChunkedAttentionOutput",
    "MultiHeadAttention",
    "causal_mask",
    "ragged_selection_mask",
]

# A predictor maps (query_row, keys) -> selected key indices.  Predictors may
# additionally expose a ``select_ragged(queries, keys, lengths)`` attribute
# (see repro.core.bgpp.make_bgpp_predictor) that runs a whole ragged query
# batch in one pass; ragged_selection_mask() uses it when present.
KeyPredictor = Callable[[np.ndarray, np.ndarray], np.ndarray]


def causal_mask(n_queries: int, n_keys: int) -> np.ndarray:
    """Boolean mask that is True where a query may attend (causal, right-aligned)."""
    offset = n_keys - n_queries
    q_idx = np.arange(n_queries)[:, None]
    k_idx = np.arange(n_keys)[None, :]
    return k_idx <= (q_idx + offset)


def ragged_selection_mask(
    predictor: KeyPredictor,
    q_rows: np.ndarray,
    keys: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Boolean ``(n_queries, n_keys)`` predictor-selection mask under ``mask``.

    Each query row may only attend where ``mask`` is True; the predictor
    ranks that row's allowed keys and at least one key (the most recent
    allowed one) is always kept.  Causal masks are prefix-shaped, so when the
    predictor exposes ``select_ragged`` the whole batch runs as one masked
    pass instead of ``n_queries`` separate predictor calls; the fallback loop
    is bit-identical.
    """
    n_queries, n_keys = mask.shape
    selection = np.zeros((n_queries, n_keys), dtype=bool)
    lengths = mask.sum(axis=1)
    select_ragged = getattr(predictor, "select_ragged", None)
    # the batched entry point assumes each row attends a key prefix
    prefix_shaped = bool(
        (mask == (np.arange(n_keys)[None, :] < lengths[:, None])).all()
    )
    if select_ragged is not None and prefix_shaped:
        for i, selected in enumerate(select_ragged(q_rows, keys, lengths)):
            if lengths[i] == 0:
                continue
            selected = np.asarray(selected, dtype=np.int64)
            selected = selected[selected < lengths[i]]
            if selected.size == 0:
                selected = np.array([lengths[i] - 1], dtype=np.int64)
            selection[i, selected] = True
        return selection
    for i in range(n_queries):
        allowed = np.flatnonzero(mask[i])
        selected = np.asarray(predictor(q_rows[i], keys[allowed]), dtype=np.int64)
        selected = allowed[selected[selected < allowed.size]]
        if selected.size == 0:
            selected = allowed[-1:]
        selection[i, selected] = True
    return selection


class KVCache:
    """Per-layer key/value cache for autoregressive decoding.

    Two storage modes share one interface:

    * **standalone** (the default): rows live in this cache's own
      capacity-doubling buffers, so each decode step appends in amortised
      O(1) instead of re-copying the whole history (the seed implementation
      vstacked O(seq) per token).  :attr:`keys` / :attr:`values` expose the
      live ``(seq, hidden)`` prefix as views; they stay valid until the next
      append.
    * **arena-backed**: constructed with ``arena``/``session_id``/``layer``
      (see :class:`repro.serve.kv_arena.PagedKVArena`), the cache is a thin
      handle -- appends write into the shared page pool and :attr:`keys` /
      :attr:`values` materialise contiguous copies on demand.  The fused
      batched attention path recognises arena-backed caches and reads the
      pool through :meth:`~repro.serve.kv_arena.PagedKVArena.gather_batch`
      instead, skipping the per-session materialisation entirely.  An
      arena in ``KVDtype.INT8`` mode is transparent here: appends are
      quantised and every read path (``keys``/``values``,
      ``gather_batch``) dequantises back to float through the arena's
      per-page scales, so attention always computes over float rows.
    """

    def __init__(
        self,
        keys: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
        *,
        arena=None,
        session_id: Optional[int] = None,
        layer: Optional[int] = None,
    ) -> None:
        self._arena = arena
        self._session_id = session_id
        self._layer = layer
        if arena is not None and (session_id is None or layer is None):
            raise ValueError("arena-backed caches need session_id and layer")
        self._keys: Optional[np.ndarray] = None  # (capacity, hidden)
        self._values: Optional[np.ndarray] = None
        self._len = 0
        if (keys is None) != (values is None):
            raise ValueError("keys and values must be provided together")
        if keys is not None:
            self.append(keys, values)

    # -- arena plumbing (None / unset on standalone caches) --------------------

    @property
    def arena(self):
        """The backing :class:`PagedKVArena`, or ``None`` when standalone."""
        return self._arena

    @property
    def arena_session(self) -> Optional[int]:
        return self._session_id

    @property
    def arena_layer(self) -> Optional[int]:
        return self._layer

    def release(self) -> None:
        """Free the backing storage (the whole arena session, or the buffers)."""
        if self._arena is not None:
            if self._arena.has_session(self._session_id):
                self._arena.free(self._session_id)
        else:
            self.clear()

    # -- storage ---------------------------------------------------------------

    @property
    def keys(self) -> Optional[np.ndarray]:
        if self._arena is not None:
            if self.seq_len == 0:  # covers released sessions too
                return None
            return self._arena.session_keys(self._session_id, self._layer)
        return None if self._len == 0 else self._keys[: self._len]

    @property
    def values(self) -> Optional[np.ndarray]:
        if self._arena is not None:
            if self.seq_len == 0:  # covers released sessions too
                return None
            return self._arena.session_values(self._session_id, self._layer)
        return None if self._len == 0 else self._values[: self._len]

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        if self._arena is not None:
            if not self._arena.has_session(self._session_id):
                raise RuntimeError(
                    f"KV cache was released (arena session {self._session_id} freed)"
                )
            self._arena.append(self._session_id, self._layer, keys, values)
            return
        keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        n_new = keys.shape[0]
        needed = self._len + n_new
        if self._keys is None or needed > self._keys.shape[0]:
            capacity = max(needed, 2 * (0 if self._keys is None else self._keys.shape[0]), 16)
            grown_k = np.empty((capacity, keys.shape[1]), dtype=np.float64)
            grown_v = np.empty((capacity, values.shape[1]), dtype=np.float64)
            if self._len:
                grown_k[: self._len] = self._keys[: self._len]
                grown_v[: self._len] = self._values[: self._len]
            self._keys, self._values = grown_k, grown_v
        self._keys[self._len : needed] = keys
        self._values[self._len : needed] = values
        self._len = needed

    @property
    def seq_len(self) -> int:
        if self._arena is not None:
            if not self._arena.has_session(self._session_id):
                return 0  # released: behave like a cleared standalone cache
            return self._arena.seq_len(self._session_id, self._layer)
        return self._len

    def clear(self) -> None:
        if self._arena is not None:
            if self._arena.has_session(self._session_id):
                self._arena.clear_layer(self._session_id, self._layer)
            return
        self._keys = None
        self._values = None
        self._len = 0


@dataclass
class AttentionOutput:
    """Attention result plus sparsity statistics for the cost models.

    ``row_keys_attended`` / ``row_keys_total`` break the scalar counts down
    per query row (``(n_queries,)`` int64); the serving layer's prefix cache
    records them per prompt row so a later cache-hit session can credit the
    skipped rows' statistics bit-exactly.
    """

    output: np.ndarray
    keys_attended: int
    keys_total: int
    selected_fraction: float
    row_keys_attended: Optional[np.ndarray] = None
    row_keys_total: Optional[np.ndarray] = None


@dataclass
class ChunkedAttentionOutput:
    """Result of one ragged chunked-prefill step over ``B`` streams.

    ``output`` is the merged-head context for *every chunk row*, flattened
    to ``(total_rows, hidden)`` in the same stream order the queries came in
    (stream 0's rows first), *before* the output projection.
    ``row_keys_attended`` / ``row_keys_total`` carry each chunk row's
    attended / causal key counts in the same flat order, so callers can
    split the batched step back into per-request statistics and the prefix
    cache can credit skipped rows bit-exactly.
    """

    output: np.ndarray
    row_keys_attended: np.ndarray  # (total_rows,) int64
    row_keys_total: np.ndarray  # (total_rows,) int64


class MultiHeadAttention:
    """Standard multi-head self-attention with an optional key predictor.

    Parameters
    ----------
    hidden_size, n_heads:
        Model dimensions; ``head_dim = hidden_size // n_heads``.
    wq, wk, wv, wo:
        Projection layers; random Gaussian projections are created when not
        supplied (used by the synthetic models).
    """

    def __init__(
        self,
        hidden_size: int,
        n_heads: int,
        wq: Optional[Linear] = None,
        wk: Optional[Linear] = None,
        wv: Optional[Linear] = None,
        wo: Optional[Linear] = None,
        seed: Optional[int] = None,
    ) -> None:
        if hidden_size % n_heads != 0:
            raise ValueError("hidden_size must be divisible by n_heads")
        self.hidden_size = hidden_size
        self.n_heads = n_heads
        self.head_dim = hidden_size // n_heads
        base_seed = 0 if seed is None else seed
        self.wq = wq or Linear.random(hidden_size, hidden_size, seed=base_seed + 1)
        self.wk = wk or Linear.random(hidden_size, hidden_size, seed=base_seed + 2)
        self.wv = wv or Linear.random(hidden_size, hidden_size, seed=base_seed + 3)
        self.wo = wo or Linear.random(hidden_size, hidden_size, seed=base_seed + 4)
        # KV bytes copied by prefill_batch's per-session stacking fallback;
        # the arena path's counterpart is ArenaStats.gather_bytes_copied
        self.stack_copy_bytes = 0

    # -- helpers -------------------------------------------------------------

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        seq = x.shape[0]
        return x.reshape(seq, self.n_heads, self.head_dim).transpose(1, 0, 2)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        n_heads, seq, head_dim = x.shape
        return x.transpose(1, 0, 2).reshape(seq, n_heads * head_dim)

    def merged_context(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Dense causal attention on pre-projected Q/K/V, before the output projection.

        Used by the quantisation calibration path, which needs the exact tensor
        that feeds the ``wo`` projection.
        """
        qh = self._split_heads(np.atleast_2d(np.asarray(q, dtype=np.float64)))
        kh = self._split_heads(np.atleast_2d(np.asarray(k, dtype=np.float64)))
        vh = self._split_heads(np.atleast_2d(np.asarray(v, dtype=np.float64)))
        mask = causal_mask(qh.shape[1], kh.shape[1])
        scale = 1.0 / np.sqrt(self.head_dim)
        logits = np.einsum("hqd,hkd->hqk", qh, kh) * scale
        logits = np.where(mask[None, :, :], logits, -np.inf)
        probs = softmax(logits, axis=-1)
        context = np.einsum("hqk,hkd->hqd", probs, vh)
        return self._merge_heads(context)

    # -- forward -------------------------------------------------------------

    def __call__(
        self,
        hidden_states: np.ndarray,
        cache: Optional[KVCache] = None,
        predictor: Optional[KeyPredictor] = None,
    ) -> AttentionOutput:
        """Compute attention for ``hidden_states`` of shape ``(seq, hidden)``.

        When ``cache`` is given, the new keys/values are appended to it and
        queries attend to the full cached sequence (decode mode for a single
        new token, prefill mode for a full prompt).  ``predictor`` restricts
        each query row to the key indices it returns; unselected keys receive
        ``-inf`` logits before the softmax, mirroring top-k sparse attention.
        """
        hidden_states = np.atleast_2d(np.asarray(hidden_states, dtype=np.float64))
        q = self.wq(hidden_states)
        k_new = self.wk(hidden_states)
        v_new = self.wv(hidden_states)

        if cache is not None:
            cache.append(k_new, v_new)
            k_all = cache.keys
            v_all = cache.values
        else:
            k_all = k_new
            v_all = v_new

        qh = self._split_heads(q)
        kh = self._split_heads(k_all)
        vh = self._split_heads(v_all)

        n_queries = qh.shape[1]
        n_keys = kh.shape[1]
        mask = causal_mask(n_queries, n_keys)

        selection_mask = np.ones((n_queries, n_keys), dtype=bool)
        if predictor is not None:
            # Predictors operate on the full (head-concatenated) Q/K rows, the
            # same granularity the BGPP unit sees (it processes Q x K^T per row).
            selection_mask = ragged_selection_mask(predictor, q, k_all, mask)
        full_mask = mask & selection_mask

        scale = 1.0 / np.sqrt(self.head_dim)
        logits = np.einsum("hqd,hkd->hqk", qh, kh) * scale
        logits = np.where(full_mask[None, :, :], logits, -np.inf)
        probs = softmax(logits, axis=-1)
        context = np.einsum("hqk,hkd->hqd", probs, vh)
        merged = self._merge_heads(context)
        output = self.wo(merged)

        row_attended = full_mask.sum(axis=1).astype(np.int64)
        row_total = mask.sum(axis=1).astype(np.int64)
        keys_attended = int(row_attended.sum())
        keys_total = int(row_total.sum())
        return AttentionOutput(
            output=output,
            keys_attended=keys_attended,
            keys_total=keys_total,
            selected_fraction=keys_attended / keys_total if keys_total else 1.0,
            row_keys_attended=row_attended,
            row_keys_total=row_total,
        )

    # -- chunked ragged batched prefill ---------------------------------------

    def prefill_batch(
        self,
        q: np.ndarray,
        k_new: np.ndarray,
        v_new: np.ndarray,
        row_counts: np.ndarray,
        caches: List[KVCache],
        total_lens: Optional[np.ndarray] = None,
        predictor: Optional[KeyPredictor] = None,
    ) -> ChunkedAttentionOutput:
        """Causal attention for ``B`` ragged chunks (prompt chunks and decode rows).

        ``q``/``k_new``/``v_new`` hold every stream's chunk rows stacked flat
        to ``(total_rows, hidden)`` (stream ``b`` owns ``row_counts[b]``
        consecutive rows); ``caches[b]`` is stream ``b``'s KV cache, which may
        already hold that stream's earlier chunks.  The new K/V rows are
        appended first -- through one multi-row
        :meth:`~repro.serve.kv_arena.PagedKVArena.append_batch` call when
        every cache is a handle onto one shared arena -- and each chunk row
        attends causally to its stream's full prefix (cached history plus the
        chunk rows at or before it).  Shared-arena batches read the pool
        through :meth:`~repro.serve.kv_arena.PagedKVArena.gather_batch`'s
        incrementally maintained padded view; otherwise each stream's cache
        is stacked into a fresh tensor (copy bytes tallied in
        :attr:`stack_copy_bytes`).

        ``total_lens[b]`` is the *final* prefill length of stream ``b`` (the
        key width of the one-shot serial forward this chunk sequence
        reproduces; a plain decode row passes its post-append length, the
        default).  Each query row's softmax runs over exactly that width --
        real logits on the causal prefix, ``-inf`` (hence exactly-zero
        probability) everywhere else -- the same values the serial pass
        reduces, whatever the chunking or batch composition.

        Two contractions serve the batch.  Streams whose chunk is one row at
        full width (``row_counts[b] == 1`` and ``total_lens[b]`` equal to the
        post-append length: decode rows) share :meth:`decode_batch`, one
        padded einsum over all of them, bit-identical to ``__call__``.
        Every other stream runs :meth:`chunk_attention` at its *exact*
        shapes; its softmax reduces a contiguous padded array where
        ``__call__`` reduces einsum's strided output, so its rows may differ
        from the serial pass by a few ulp (the quantised model's activation
        rounding absorbs that).  Mixed batches are extremely ragged (one-row
        streams next to whole-prompt chunks), so a padded ``(B, Lmax, W)``
        einsum would spend most of its FLOPs on padding, while the
        projections/FFN GEMMs (where the fused win lives) still run once for
        the whole stacked batch.

        Returns the merged-head context rows (before the output projection)
        plus per-row attended/total key counts covering only this chunk's
        rows, so partial statistics accumulate to the serial pass's totals.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        k_new = np.atleast_2d(np.asarray(k_new, dtype=np.float64))
        v_new = np.atleast_2d(np.asarray(v_new, dtype=np.float64))
        # per-stream bookkeeping runs on Python ints: batches are a handful
        # of streams, where each tiny NumPy op would cost more than the loop
        counts = np.asarray(row_counts, dtype=np.int64).tolist()
        n_streams = len(counts)
        if n_streams == 0:
            raise ValueError("prefill_batch needs at least one stream")
        if min(counts) < 1:
            raise ValueError("every stream must contribute at least one row")
        offsets = list(accumulate(counts, initial=0))
        if offsets[-1] != q.shape[0]:
            raise ValueError(
                f"row_counts sum to {offsets[-1]} but got {q.shape[0]} rows"
            )
        if len(caches) != n_streams:
            raise ValueError(f"expected {n_streams} caches, got {len(caches)}")

        # append the chunk rows: one batched multi-row arena append when every
        # cache shares the pool, per-cache appends otherwise
        arena = caches[0].arena
        layer = caches[0].arena_layer
        shared = arena is not None and all(
            c.arena is arena and c.arena_layer == layer for c in caches
        )
        spans = list(zip(offsets, offsets[1:]))
        k_blocks = [k_new[start:stop] for start, stop in spans]
        v_blocks = [v_new[start:stop] for start, stop in spans]
        if shared:
            sessions = [c.arena_session for c in caches]
            arena.append_batch(layer, sessions, k_blocks, v_blocks)
            keys, values, lengths = arena.gather_batch(layer, sessions)
        else:
            for cache, k_rows, v_rows in zip(caches, k_blocks, v_blocks):
                cache.append(k_rows, v_rows)
            lengths = np.array([c.seq_len for c in caches], dtype=np.int64)
            max_len = int(lengths.max())
            keys = np.zeros((n_streams, max_len, self.hidden_size))
            values = np.zeros((n_streams, max_len, self.hidden_size))
            for b, cache in enumerate(caches):
                keys[b, : lengths[b]] = cache.keys
                values[b, : lengths[b]] = cache.values
            self.stack_copy_bytes += (
                2 * int(lengths.sum()) * self.hidden_size * keys.itemsize
            )
        if total_lens is None:
            total_lens = lengths
        else:
            total_lens = np.asarray(total_lens, dtype=np.int64)
            if total_lens.shape != lengths.shape:
                raise ValueError("total_lens must carry one entry per stream")
            if (total_lens < lengths).any():
                raise ValueError("total_lens must be >= each stream's length")

        if offsets[-1] == n_streams and (
            total_lens is lengths or (total_lens == lengths).all()
        ):
            # a pure decode step: one full-width row per stream, so the
            # per-stream and per-row counts coincide
            context, attended = self.decode_batch(q, keys, values, lengths, predictor)
            return ChunkedAttentionOutput(context, attended, lengths)
        one_row = (np.asarray(counts) == 1) & (total_lens == lengths)
        n_total = offsets[-1]
        flat = np.empty((n_total, self.hidden_size))
        row_attended = np.empty(n_total, dtype=np.int64)
        row_total = np.empty(n_total, dtype=np.int64)
        rows = np.flatnonzero(one_row)
        if rows.size:
            # a contiguous run of streams (the usual case: decode rows follow
            # the prefill chunks) is sliced as a view, not gathered
            if rows.size == rows[-1] - rows[0] + 1:
                pick = slice(int(rows[0]), int(rows[-1]) + 1)
            else:
                pick = rows
            at = np.asarray(offsets)[rows]
            flat[at], row_attended[at] = self.decode_batch(
                q[at], keys[pick], values[pick], lengths[rows], predictor
            )
            row_total[at] = lengths[rows]
        for b in np.flatnonzero(~one_row):
            n_keys = int(lengths[b])
            span = slice(*spans[b])
            flat[span], row_attended[span], row_total[span] = self.chunk_attention(
                q[span],
                keys[b, :n_keys],
                values[b, :n_keys],
                int(total_lens[b]),
                predictor,
            )
        return ChunkedAttentionOutput(flat, row_attended, row_total)

    def chunk_attention(
        self,
        q_rows: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        width: int,
        predictor: Optional[KeyPredictor] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One stream's chunk: causal attention of ``q_rows`` over its prefix.

        ``keys``/``values`` hold the stream's whole materialised prefix (the
        chunk's own rows last) and ``width`` is the serial pass's key width
        the softmax reduces over (``>= len(keys)``).  Returns the merged-head
        context rows plus per-row attended/total key counts.
        """
        n_rows, n_keys = q_rows.shape[0], keys.shape[0]
        # causal chunk mask: row i (absolute position start + i) may attend
        # keys 0..start+i -- causal_mask right-aligns it
        mask = causal_mask(n_rows, n_keys)
        full_mask = mask
        if predictor is not None:
            # each chunk row ranks its own prefix, fed the same key values
            # the serial pass would (cache rows are exact copies)
            full_mask = mask & ragged_selection_mask(predictor, q_rows, keys, mask)
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = np.einsum(
            "hqd,hkd->hqk", self._split_heads(q_rows), self._split_heads(keys)
        ) * scale
        # each row's softmax must reduce over exactly the serial pass's key
        # width; keys past the materialised prefix are -inf like any other
        # masked position, probability exactly 0
        logits = np.full((self.n_heads, n_rows, width), -np.inf)
        logits[..., :n_keys] = np.where(full_mask[None, :, :], scores, -np.inf)
        probs = softmax(logits, axis=-1)
        context = np.einsum(
            "hqk,hkd->hqd", probs[..., :n_keys], self._split_heads(values)
        )
        return (
            self._merge_heads(context),
            full_mask.sum(axis=1).astype(np.int64),
            mask.sum(axis=1).astype(np.int64),
        )

    def decode_batch(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        lengths: np.ndarray,
        predictor: Optional[KeyPredictor] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`prefill_batch`'s one-row kernel: ``B`` decode rows at once.

        ``q`` holds one query row per stream ``(B, hidden)``; ``keys`` /
        ``values`` are the streams' padded ``(B, >= max(lengths), hidden)``
        prefixes (the query's own row last) and each row attends its whole
        prefix.  The score and context contractions each run as one einsum
        over the whole batch; the softmax runs on each stream's valid slice,
        so every row is bit-identical to ``__call__`` decoding that stream
        alone (padding positions carry exactly-zero probability and cannot
        perturb the contraction).  Returns the merged-head context
        ``(B, hidden)`` and per-stream attended key counts.
        """
        n_streams = q.shape[0]
        max_len = int(lengths.max())
        keys = keys[:, :max_len]
        values = values[:, :max_len]
        valid = np.arange(max_len)[None, :] < lengths[:, None]
        full_mask = valid
        if predictor is not None:
            # each stream has its own key set, so selection is inherently
            # per-stream; the predictor sees the same key values the serial
            # path feeds it (padded rows are sliced away)
            selection = np.zeros_like(valid)
            for b in range(n_streams):
                selected = np.asarray(
                    predictor(q[b], keys[b, : lengths[b]]), dtype=np.int64
                )
                selected = selected[selected < lengths[b]]
                if selected.size == 0:
                    selected = np.array([lengths[b] - 1], dtype=np.int64)
                selection[b, selected] = True
            full_mask = valid & selection

        qh = q.reshape(n_streams, self.n_heads, self.head_dim)
        kh = keys.reshape(n_streams, max_len, self.n_heads, self.head_dim)
        kh = kh.transpose(0, 2, 1, 3)
        vh = values.reshape(n_streams, max_len, self.n_heads, self.head_dim)
        vh = vh.transpose(0, 2, 1, 3)

        scale = 1.0 / np.sqrt(self.head_dim)
        logits = np.einsum("bhd,bhkd->bhk", qh, kh) * scale
        logits = np.where(full_mask[:, None, :], logits, -np.inf)
        # softmax reductions must run over each stream's true context length
        # to stay bit-identical to the serial path; with uniform lengths
        # there is no padding, so one batched call suffices
        if int(lengths.min()) == max_len:
            probs = softmax(logits, axis=-1)
        else:
            probs = np.zeros_like(logits)
            for b in range(n_streams):
                probs[b, :, : lengths[b]] = softmax(
                    logits[b, :, : lengths[b]], axis=-1
                )
        context = np.einsum("bhk,bhkd->bhd", probs, vh)
        return (
            context.reshape(n_streams, self.hidden_size),
            full_mask.sum(axis=1).astype(np.int64),
        )
