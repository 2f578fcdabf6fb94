"""Bit-Grained Progressive Prediction (BGPP, paper §3.3, Fig. 9 and Fig. 16).

BGPP replaces the value-level top-k attention predictor with a progressive,
bit-serial filter.  Key bit planes are streamed MSB-first; after every round
the partial attention estimates are compared against a radius-based threshold
(Eq. 1 in the paper)

``theta_r = max(A_hat_r) - alpha_r * radius``

and only the surviving keys fetch their next bit plane from memory.  This
terminates both the computation and the KV-cache traffic of obviously trivial
keys early.

The partial sums are computed without materialising bit planes.  Keys are
sign-magnitude, so magnitude plane ``j`` (MSB first) carries weight
``2**s_j`` with ``s_j = key_bits - 2 - j``, and the hardware's shift-
accumulate after round ``r`` holds, for a key that is still alive,

``sum_{j<=r} (sign(k) * bit_j(|k|) . q) << s_j = (trunc(k / 2**s_r) . q) << s_r``

because ``sum_{j<=r} bit_j(|k|) * 2**(s_j - s_r)`` is exactly
``|k| >> s_r``.  A key that survives round ``r`` has received every plane
``0..r`` (survivor sets only shrink), so each round recomputes its running
sum in one product of the truncated keys with the query, restricted to the
surviving rows.  Pruned keys keep the sum of the rounds they saw, exactly as
their accumulators freeze in hardware.  The product runs in float64 through
BLAS whenever ``|sum| <= d * (2**(key_bits-1) - 1) * max|q|`` stays below
``2**53``, where every partial sum is an exact integer; otherwise in int64.

The module provides:

* :func:`bgpp_select` -- the progressive filter for one query row, returning
  the selected key indices together with exact accounting of the KV bits
  loaded and the multiply-accumulate work performed;
* :func:`value_topk_select` -- the conventional value-level top-k predictor
  used as a baseline (paper §2.2, Fig. 3);
* :func:`exact_topk` / :func:`selection_recall` -- oracles for measuring how
  faithful either predictor is to exact attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bitslice import _check_range

__all__ = [
    "BGPPConfig",
    "BGPPResult",
    "TopKResult",
    "bgpp_select",
    "bgpp_select_batch",
    "value_topk_select",
    "exact_topk",
    "selection_recall",
    "attention_sparsity",
]


@dataclass
class BGPPConfig:
    """Parameters of the progressive filter.

    Attributes
    ----------
    rounds:
        Number of filtering rounds, i.e. how many key bit planes (MSB first)
        are examined.  The paper uses a small fixed number (typically 4).
    radius:
        The softmax "radius": keys whose estimated score falls more than
        ``alpha * radius`` below the running maximum are filtered (default 3,
        paper §3.3).
    alpha:
        Per-round pruning aggressiveness, either a scalar applied to every
        round or one value per round; the paper sweeps 0.3-0.8 and settles on
        0.5-0.6.
    key_bits:
        Bit width of the stored keys (including sign).
    query_bits:
        Bit width used for the query during prediction (paper: 4-bit MSBs).
    score_scale:
        Dequantisation scale applied to integer partial sums before they are
        compared against ``radius`` (the product of the Q and K quantisation
        scales and the :math:`1/\\sqrt{d}` attention scaling).
    min_keys:
        Never prune below this many surviving keys (guards degenerate cases).
    """

    rounds: int = 4
    radius: float = 3.0
    alpha: float | Sequence[float] = 0.55
    key_bits: int = 8
    query_bits: int = 4
    score_scale: float = 1.0
    min_keys: int = 1

    def alpha_for_round(self, round_index: int) -> float:
        if isinstance(self.alpha, (int, float)):
            return float(self.alpha)
        seq = list(self.alpha)
        if not seq:
            raise ValueError("alpha sequence must not be empty")
        return float(seq[min(round_index, len(seq) - 1)])

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.key_bits < 2:
            raise ValueError("key_bits must be >= 2")
        if self.min_keys < 1:
            raise ValueError("min_keys must be >= 1")


@dataclass
class BGPPResult:
    """Outcome of one progressive prediction pass."""

    selected: np.ndarray
    estimated_scores: np.ndarray
    survivors_per_round: List[int]
    kv_bits_loaded: int
    mac_ops: int
    rounds_executed: int
    early_terminated: bool

    @property
    def selected_fraction(self) -> float:
        n = self.estimated_scores.shape[0]
        return float(self.selected.size) / n if n else 0.0


@dataclass
class TopKResult:
    """Outcome of the value-level top-k baseline predictor."""

    selected: np.ndarray
    estimated_scores: np.ndarray
    kv_bits_loaded: int
    mac_ops: int


def _reduced_precision_query(query: np.ndarray, query_bits: int, full_bits: int = 8) -> np.ndarray:
    """Keep only the ``query_bits`` most significant bits of the query values."""
    if query_bits >= full_bits:
        return query.astype(np.int64)
    shift = full_bits - query_bits
    return (query.astype(np.int64) >> shift) << shift


def _check_keys(keys: np.ndarray, key_bits: int) -> None:
    """Keys must be integers with a ``key_bits``-bit sign-magnitude code.

    ``-2**(key_bits-1)`` has none, so it raises like any out-of-range key.
    """
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError(f"expected an integer key array, got dtype {keys.dtype}")
    _check_range(keys, key_bits, "sign_magnitude")


def _exact_operands(
    keys: np.ndarray, q: np.ndarray, key_bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cast range-checked keys and the query for an exact product.

    The operands come back as float64 when every partial sum of a
    truncated-key product is an integer below ``2**53`` (so BLAS computes
    it exactly), else as int64; an operand already in that dtype is not
    copied.
    """
    q_max = float(np.abs(q).max()) if q.size else 0.0
    bound = keys.shape[1] * float((1 << (key_bits - 1)) - 1) * q_max
    dtype = np.float64 if bound < 2**53 else np.int64
    return keys.astype(dtype, copy=False), q.astype(dtype, copy=False)


def _truncated_partial(
    keys: np.ndarray, rows: np.ndarray, q: np.ndarray, shift: int, work: np.ndarray
) -> np.ndarray:
    """Exact int64 ``(trunc(keys[rows] / 2**shift) @ q) << shift``.

    This is the running sum after the round whose plane weight is
    ``2**shift`` (see the module docstring); ``q`` is a vector or a
    ``(d, B)`` matrix.  ``work`` is a scratch buffer shaped like ``keys``:
    the rows are gathered and truncated there, so the rounds of one filter
    pass share a single allocation.
    """
    # rows are valid indices; mode="clip" writes straight into ``work``
    # where the default mode would gather into a temporary first
    k = np.take(keys, rows, axis=0, out=work[: rows.size], mode="clip")
    if k.dtype == np.float64:
        k *= 1.0 / (1 << shift)  # power-of-two scale: exact
        np.trunc(k, out=k)
    else:
        k = np.sign(k) * (np.abs(k) >> shift)
    return (k @ q).astype(np.int64) << shift


def _empty_result() -> BGPPResult:
    """Degenerate result for an empty key set (shared by both select paths)."""
    return BGPPResult(
        selected=np.zeros(0, dtype=np.int64),
        estimated_scores=np.zeros(0, dtype=np.float64),
        survivors_per_round=[],
        kv_bits_loaded=0,
        mac_ops=0,
        rounds_executed=0,
        early_terminated=False,
    )


def bgpp_select(
    query: np.ndarray,
    keys: np.ndarray,
    config: Optional[BGPPConfig] = None,
):
    """Run the progressive bit-grained filter for one query row or a batch.

    Parameters
    ----------
    query:
        Integer query vector of length ``d`` (already quantised), or a
        ``(B, d)`` matrix of query rows.  A 2-D input dispatches to
        :func:`bgpp_select_batch` and returns a list of per-row results whose
        fields are bit-identical to running each row through the 1-D path.
    keys:
        Integer key matrix of shape ``(n_keys, d)``.
    config:
        Filter parameters; defaults to :class:`BGPPConfig`.

    Returns
    -------
    BGPPResult or List[BGPPResult]
        Selected key indices, per-round survivor counts and exact KV-traffic /
        compute accounting (one result per query row for batched input).
    """
    config = config or BGPPConfig()
    query = np.asarray(query)
    keys = np.asarray(keys)
    if query.ndim == 2:
        return bgpp_select_batch(query, keys, config=config)
    if query.ndim != 1:
        raise ValueError(f"query must be 1-D or 2-D, got shape {query.shape}")
    if keys.ndim != 2 or keys.shape[1] != query.shape[0]:
        raise ValueError(
            f"keys must have shape (n, {query.shape[0]}), got {keys.shape}"
        )
    if keys.shape[0] == 0:
        return _empty_result()
    _check_keys(keys, config.key_bits)
    return _filter_row(query, keys, config)


def _filter_row(query: np.ndarray, keys: np.ndarray, config: BGPPConfig) -> BGPPResult:
    """:func:`bgpp_select` on a non-empty, range-checked key matrix.

    ``keys`` may be any dtype holding exact integers: the predictors pass
    their float64 INT8 codes straight through, saving two conversions.
    """
    n_keys, d = keys.shape
    q = _reduced_precision_query(query, config.query_bits, full_bits=config.key_bits)
    keys_w, q_w = _exact_operands(keys, q, config.key_bits)
    work = np.empty_like(keys_w)
    rounds = min(config.rounds, config.key_bits - 1)  # one round per magnitude plane

    alive = np.arange(n_keys)
    psum = np.zeros(n_keys, dtype=np.int64)
    kv_bits = 0
    mac_ops = 0
    survivors: List[int] = []
    early_terminated = False

    # sign plane is fetched together with the first magnitude plane
    kv_bits += n_keys * d

    for r in range(rounds):
        shift = config.key_bits - 2 - r  # weight of this magnitude plane
        # fetch the r-th bit of every surviving key
        kv_bits += alive.size * d
        mac_ops += alive.size * d
        psum[alive] = _truncated_partial(keys_w, alive, q_w, shift, work)

        scores = psum[alive].astype(np.float64) * config.score_scale
        current_max = scores.max()
        threshold = current_max - config.alpha_for_round(r) * config.radius

        if threshold <= scores.min():
            # clock-gated clipping: nothing can be pruned this round
            survivors.append(int(alive.size))
            if r == rounds - 1:
                break
            continue

        keep_mask = scores >= threshold
        if keep_mask.sum() < config.min_keys:
            order = np.argsort(scores)[::-1]
            keep_mask = np.zeros_like(keep_mask)
            keep_mask[order[: config.min_keys]] = True
        alive = alive[keep_mask]
        survivors.append(int(alive.size))
        if alive.size <= config.min_keys:
            early_terminated = True
            break

    final_scores = psum.astype(np.float64) * config.score_scale
    return BGPPResult(
        selected=np.sort(alive),
        estimated_scores=final_scores,
        survivors_per_round=survivors,
        kv_bits_loaded=int(kv_bits),
        mac_ops=int(mac_ops),
        rounds_executed=len(survivors),
        early_terminated=early_terminated,
    )


def bgpp_select_batch(
    queries: np.ndarray,
    keys: np.ndarray,
    config: Optional[BGPPConfig] = None,
    key_lengths: Optional[Sequence[int]] = None,
    score_scales: Optional[Sequence[float]] = None,
) -> List[BGPPResult]:
    """Progressive filtering of a whole ``(B, d)`` query batch in one pass.

    The expensive per-round work -- the truncated-key/query product -- is
    shared across the batch: each round issues a single
    ``(n_union, d) @ (d, B)`` product over the keys any query still keeps
    alive instead of ``B`` separate GEMVs.  The per-query threshold logic
    then runs on the precomputed columns, so every returned
    :class:`BGPPResult` is field-for-field identical to :func:`bgpp_select`
    on that row (including the per-query KV-traffic and MAC accounting,
    which only count the keys that were still alive for that query).

    Parameters
    ----------
    key_lengths:
        Optional per-query key-prefix lengths for *ragged* batches: query row
        ``b`` only considers ``keys[:key_lengths[b]]``, exactly as if it were
        run through :func:`bgpp_select` against that truncated key matrix
        (causal prefill rows and co-scheduled decode streams have different
        context lengths but share one key buffer).  ``None`` means every query
        sees all keys.
    score_scales:
        Optional per-query dequantisation scale overriding
        ``config.score_scale`` row by row (the attention predictors fit the
        scale from per-row query/key statistics).
    """
    config = config or BGPPConfig()
    queries = np.asarray(queries)
    keys = np.asarray(keys)
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    if keys.ndim != 2 or keys.shape[1] != queries.shape[1]:
        raise ValueError(
            f"keys must have shape (n, {queries.shape[1]}), got {keys.shape}"
        )
    n_queries = queries.shape[0]
    n_keys, d = keys.shape
    if n_queries == 0:
        return []

    if key_lengths is None:
        lengths = np.full(n_queries, n_keys, dtype=np.int64)
    else:
        lengths = np.asarray(key_lengths, dtype=np.int64)
        if lengths.shape != (n_queries,):
            raise ValueError(
                f"key_lengths must have shape ({n_queries},), got {lengths.shape}"
            )
        if lengths.size and (lengths.min() < 0 or lengths.max() > n_keys):
            raise ValueError("key_lengths entries must lie in [0, n_keys]")
    if score_scales is None:
        scales = np.full(n_queries, float(config.score_scale))
    else:
        scales = np.asarray(score_scales, dtype=np.float64)
        if scales.shape != (n_queries,):
            raise ValueError(
                f"score_scales must have shape ({n_queries},), got {scales.shape}"
            )

    if n_keys == 0:
        return [_empty_result() for _ in range(n_queries)]
    _check_keys(keys, config.key_bits)
    return _filter_batch(queries, keys, config, lengths, scales)


def _filter_batch(
    queries: np.ndarray,
    keys: np.ndarray,
    config: BGPPConfig,
    lengths: np.ndarray,
    scales: np.ndarray,
) -> List[BGPPResult]:
    """:func:`bgpp_select_batch` on a non-empty, range-checked key matrix.

    ``lengths`` and ``scales`` are the per-query int64 prefix lengths and
    float64 score scales; ``keys`` may hold exact integers in any dtype, as
    in :func:`_filter_row`.
    """
    n_queries = queries.shape[0]
    n_keys, d = keys.shape
    q_batch = _reduced_precision_query(queries, config.query_bits, full_bits=config.key_bits)
    keys_w, q_w = _exact_operands(keys, q_batch, config.key_bits)
    work = np.empty_like(keys_w)
    rounds = min(config.rounds, config.key_bits - 1)  # one round per magnitude plane

    psum = np.zeros((n_queries, n_keys), dtype=np.int64)
    # ragged batches: row b only ever sees its first key_lengths[b] keys
    alive_mask = np.arange(n_keys)[None, :] < lengths[:, None]
    done = lengths == 0  # nothing to filter for empty prefixes
    early = np.zeros(n_queries, dtype=bool)
    # sign plane is fetched together with the first magnitude plane
    kv_bits = lengths * d
    mac_ops = np.zeros(n_queries, dtype=np.int64)
    survivors: List[List[int]] = [[] for _ in range(n_queries)]

    for r in range(rounds):
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        shift = config.key_bits - 2 - r  # weight of this magnitude plane
        alpha = config.alpha_for_round(r)
        # one shared product for every still-active query, restricted to the
        # union of keys any of them still keeps alive so pruned keys cost no
        # compute in later rounds (round 0: all keys)
        union = np.flatnonzero(alive_mask[active].any(axis=0))
        partial = _truncated_partial(keys_w, union, q_w[active].T, shift, work)
        for j, b in enumerate(active):
            alive = np.flatnonzero(alive_mask[b])
            kv_bits[b] += alive.size * d
            mac_ops[b] += alive.size * d
            rows = np.searchsorted(union, alive)  # alive is a subset of union
            psum[b, alive] = partial[rows, j]

            scores = psum[b, alive].astype(np.float64) * scales[b]
            current_max = scores.max()
            threshold = current_max - alpha * config.radius

            if threshold <= scores.min():
                # clock-gated clipping: nothing can be pruned this round
                survivors[b].append(int(alive.size))
                continue

            keep_mask = scores >= threshold
            if keep_mask.sum() < config.min_keys:
                order = np.argsort(scores)[::-1]
                keep_mask = np.zeros_like(keep_mask)
                keep_mask[order[: config.min_keys]] = True
            alive = alive[keep_mask]
            alive_mask[b] = False
            alive_mask[b, alive] = True
            survivors[b].append(int(alive.size))
            if alive.size <= config.min_keys:
                early[b] = True
                done[b] = True

    return [
        BGPPResult(
            selected=np.flatnonzero(alive_mask[b]).astype(np.int64),
            estimated_scores=psum[b, : lengths[b]].astype(np.float64) * scales[b],
            survivors_per_round=survivors[b],
            kv_bits_loaded=int(kv_bits[b]),
            mac_ops=int(mac_ops[b]),
            rounds_executed=len(survivors[b]),
            early_terminated=bool(early[b]),
        )
        for b in range(n_queries)
    ]


def value_topk_select(
    query: np.ndarray,
    keys: np.ndarray,
    k: int,
    prediction_bits: int = 4,
    key_bits: int = 8,
) -> TopKResult:
    """Value-level top-k prediction baseline (paper Fig. 3 / Fig. 5e).

    The predictor loads the ``prediction_bits`` most significant bits of every
    key, computes the full estimated attention row and keeps the ``k`` largest
    entries.  Memory traffic therefore scales with *all* keys regardless of
    how trivial they are.
    """
    query = np.asarray(query)
    keys = np.asarray(keys)
    n_keys, d = keys.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n_keys)

    shift = key_bits - prediction_bits
    reduced_keys = (keys.astype(np.int64) >> shift) << shift if shift > 0 else keys
    reduced_q = _reduced_precision_query(query, prediction_bits, full_bits=key_bits)
    scores = reduced_keys @ reduced_q
    order = np.argsort(scores)[::-1]
    selected = np.sort(order[:k])
    return TopKResult(
        selected=selected,
        estimated_scores=scores.astype(np.float64),
        kv_bits_loaded=int(n_keys * d * prediction_bits),
        mac_ops=int(n_keys * d),
    )


def exact_topk(query: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` keys with the largest exact integer dot products."""
    query = np.asarray(query, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    scores = keys @ query
    k = min(max(k, 1), keys.shape[0])
    order = np.argsort(scores)[::-1]
    return np.sort(order[:k])


def selection_recall(selected: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of ``reference`` indices contained in ``selected``."""
    reference = np.asarray(reference)
    if reference.size == 0:
        return 1.0
    selected_set = set(np.asarray(selected).tolist())
    hits = sum(1 for idx in reference.tolist() if idx in selected_set)
    return hits / reference.size


def _abs_max(x: np.ndarray, axis=None):
    """``np.abs(x).max(axis)`` without the ``|x|`` temporary."""
    return np.maximum(x.max(axis=axis), -x.min(axis=axis))


def _int8_codes(x: np.ndarray, scale) -> np.ndarray:
    """Symmetric INT8 codes ``clip(round(x / scale), -127, 127)`` as float64.

    Computed in one fresh buffer; the values are exact integers, so
    ``np.linalg.norm`` and ``astype(np.int64)`` see the same numbers as on
    the integer codes.
    """
    codes = x / scale
    np.round(codes, out=codes)
    return np.clip(codes, -127, 127, out=codes)


def make_bgpp_predictor(
    alpha: float | Sequence[float] = 0.55,
    rounds: int = 3,
    radius: float = 3.0,
    key_bits: int = 8,
    query_bits: int = 4,
    score_std_target: float = 0.8,
):
    """Build a key-predictor callable for :class:`repro.model.MultiHeadAttention`.

    The attention module hands the predictor float Q/K rows; the predictor
    quantises them on the fly (symmetric INT8, the same tensors the BGPP unit
    would receive from the quantiser) and returns the indices of the keys the
    progressive filter keeps.

    ``score_std_target`` normalises the integer partial sums so that the
    expected score standard deviation maps to this many softmax-logit units
    before the radius threshold (Eq. 1) is applied.  This keeps the pruning
    aggressiveness consistent across models whose raw attention-logit ranges
    differ (trained LLMs have wide, peaked logits; the synthetic models here
    have narrow ones).

    The returned callable also carries a ``select_ragged(queries, keys,
    lengths)`` attribute: the batched form the attention modules use to run
    every query row of a causal prefill through one shared filter pass (row
    ``i`` selects among ``keys[:lengths[i]]``), bit-exact against calling the
    predictor row by row.
    """

    def predictor(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        if keys.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        d = query.shape[0]
        q_codes = _int8_codes(query, max(_abs_max(query), 1e-12) / 127.0)
        k_codes = _int8_codes(keys, max(_abs_max(keys), 1e-12) / 127.0)
        # Estimated std of the integer dot products: ||q|| * mean ||k|| / sqrt(d).
        q_norm = float(np.linalg.norm(q_codes))
        k_norm = float(np.mean(np.linalg.norm(k_codes, axis=1)))
        score_std = max(q_norm * k_norm / np.sqrt(d), 1e-9)
        score_scale = score_std_target / score_std
        config = BGPPConfig(
            rounds=rounds,
            radius=radius,
            alpha=alpha,
            key_bits=key_bits,
            query_bits=query_bits,
            score_scale=score_scale,
        )
        if key_bits < 8:  # INT8 codes fit every wider sign-magnitude key
            _check_range(k_codes, key_bits, "sign_magnitude")
        return _filter_row(q_codes.astype(np.int64), k_codes, config).selected

    def select_ragged(
        queries: np.ndarray, keys: np.ndarray, lengths: Sequence[int]
    ) -> List[np.ndarray]:
        """Ragged-batch selection: row ``i`` filters ``keys[:lengths[i]]``.

        Reproduces the per-row quantisation exactly -- the key scale of row
        ``i`` is the running maximum of ``|keys|`` over its prefix -- and
        groups rows that share a key scale so each group pays one key
        quantisation and one batched filter pass.  The returned indices are
        bit-identical to ``predictor(queries[i], keys[:lengths[i]])``.
        """
        queries = np.asarray(queries, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        n_rows = queries.shape[0]
        out: List[np.ndarray] = [np.zeros(0, dtype=np.int64) for _ in range(n_rows)]
        nonempty = np.flatnonzero(lengths > 0)
        if nonempty.size == 0:
            return out
        d = queries.shape[1]
        q_scales = np.maximum(_abs_max(queries, axis=1), 1e-12) / 127.0
        q_int = _int8_codes(queries, q_scales[:, None]).astype(np.int64)
        # the single-row path norms a 1-D vector; keep that exact op per row
        q_norms = np.array([float(np.linalg.norm(q_int[i])) for i in range(n_rows)])
        key_cummax = np.maximum.accumulate(_abs_max(keys, axis=1))
        k_scales = np.zeros(n_rows)
        k_scales[nonempty] = np.maximum(key_cummax[lengths[nonempty] - 1], 1e-12) / 127.0
        for scale in np.unique(k_scales[nonempty]):
            rows = np.flatnonzero((lengths > 0) & (k_scales == scale))
            max_len = int(lengths[rows].max())
            k_codes = _int8_codes(keys[:max_len], scale)
            key_norms = np.linalg.norm(k_codes, axis=1)
            score_scales = []
            for i in rows:
                k_norm = float(np.mean(key_norms[: lengths[i]]))
                score_std = max(q_norms[i] * k_norm / np.sqrt(d), 1e-9)
                score_scales.append(score_std_target / score_std)
            config = BGPPConfig(
                rounds=rounds,
                radius=radius,
                alpha=alpha,
                key_bits=key_bits,
                query_bits=query_bits,
            )
            if key_bits < 8:
                _check_range(k_codes, key_bits, "sign_magnitude")
            results = _filter_batch(
                q_int[rows], k_codes, config, lengths[rows], np.asarray(score_scales)
            )
            for i, result in zip(rows, results):
                out[int(i)] = result.selected
        return out

    predictor.select_ragged = select_ragged
    return predictor


def make_value_topk_predictor(keep_fraction: float = 0.3, prediction_bits: int = 4):
    """Build a value-level top-k key predictor (the conventional baseline).

    Like :func:`make_bgpp_predictor`, the callable carries a
    ``select_ragged`` attribute running a whole ragged query batch as one
    masked score matmul plus per-row top-k, bit-exact against row-by-row
    calls.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")

    def predictor(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        if keys.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        q_scale = max(np.abs(query).max(), 1e-12) / 127.0
        k_scale = max(np.abs(keys).max(), 1e-12) / 127.0
        q_int = np.clip(np.round(query / q_scale), -127, 127).astype(np.int64)
        k_int = np.clip(np.round(keys / k_scale), -127, 127).astype(np.int64)
        k = max(1, int(round(keep_fraction * keys.shape[0])))
        return value_topk_select(q_int, k_int, k, prediction_bits=prediction_bits).selected

    def select_ragged(
        queries: np.ndarray, keys: np.ndarray, lengths: Sequence[int]
    ) -> List[np.ndarray]:
        """Ragged-batch top-k: one estimated-score matmul per key-scale group."""
        queries = np.asarray(queries, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        n_rows = queries.shape[0]
        out: List[np.ndarray] = [np.zeros(0, dtype=np.int64) for _ in range(n_rows)]
        nonempty = np.flatnonzero(lengths > 0)
        if nonempty.size == 0:
            return out
        q_scales = np.maximum(np.abs(queries).max(axis=1), 1e-12) / 127.0
        q_int = np.clip(np.round(queries / q_scales[:, None]), -127, 127).astype(np.int64)
        reduced_q = _reduced_precision_query(q_int, prediction_bits, full_bits=8)
        key_cummax = np.maximum.accumulate(np.abs(keys).max(axis=1))
        k_scales = np.zeros(n_rows)
        k_scales[nonempty] = np.maximum(key_cummax[lengths[nonempty] - 1], 1e-12) / 127.0
        shift = 8 - prediction_bits
        for scale in np.unique(k_scales[nonempty]):
            rows = np.flatnonzero((lengths > 0) & (k_scales == scale))
            max_len = int(lengths[rows].max())
            k_int = np.clip(np.round(keys[:max_len] / scale), -127, 127).astype(np.int64)
            reduced_keys = (k_int >> shift) << shift if shift > 0 else k_int
            scores = reduced_keys @ reduced_q[rows].T  # (max_len, n_rows_in_group)
            for j, i in enumerate(rows):
                length = int(lengths[i])
                k = min(max(1, int(round(keep_fraction * length))), length)
                order = np.argsort(scores[:length, j])[::-1]
                out[int(i)] = np.sort(order[:k])
        return out

    predictor.select_ragged = select_ragged
    return predictor


def attention_sparsity(results: Sequence[BGPPResult], n_keys: int) -> float:
    """Average fraction of keys *pruned* by BGPP over a batch of query rows."""
    if not results or n_keys == 0:
        return 0.0
    kept = np.mean([r.selected.size / n_keys for r in results])
    return float(1.0 - kept)
