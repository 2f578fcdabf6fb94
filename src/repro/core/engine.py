"""Functional MCBP engine: BSTC-compressed weights executed through BRCR,
with BGPP-driven sparse attention (paper Fig. 6 execution flow).

This ties the three algorithm components together the way the accelerator
does:

1. weights are compressed offline with BSTC and held in encoded form;
2. at execution time each layer's planes are decoded and the integer GEMM is
   carried out by BRCR (bit-exact against a dense integer GEMM);
3. attention key selection runs through the BGPP progressive filter.

Serving-oriented additions on top of the seed engine:

* a **decoded-plane LRU cache** amortises BSTC decode cost across calls --
  a steady-state decode loop pays one decode per layer, after which every
  GEMM is a cache hit and fetches no compressed weight stream;
* :meth:`MCBPEngine.select_keys` accepts a ``(B, d)`` query batch and runs
  the whole decode step's attention prediction in one NumPy pass.

The engine also accumulates the operation and traffic counters that the
hardware cost models consume, so that an end-to-end functional run and the
analytical model can be cross-checked on small configurations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .bgpp import BGPPConfig, BGPPResult, bgpp_select, bgpp_select_batch
from .brcr import BRCRConfig, BRCRCost, brcr_gemm
from .bstc import BSTCCodec, BSTCConfig, EncodedWeight

__all__ = ["EngineStats", "MCBPLayer", "MCBPEngine"]


@dataclass
class EngineStats:
    """Counters accumulated across engine calls.

    ``weight_bits`` records the weight precision the engine executes at; the
    dense bit-serial baseline spends one addition per weight bit per MAC, so
    :attr:`compute_reduction` derives its numerator from it instead of
    assuming INT8.
    """

    weight_bits: int = 8
    gemm_calls: int = 0
    dense_macs: int = 0
    brcr_additions: int = 0
    weight_bits_raw: int = 0
    weight_bits_compressed: int = 0
    kv_bits_loaded: int = 0
    kv_bits_dense: int = 0
    keys_selected: int = 0
    keys_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def compute_reduction(self) -> float:
        """Dense bit-serial additions (``weight_bits`` per MAC) over BRCR additions."""
        if self.brcr_additions == 0:
            return float("inf") if self.dense_macs else 1.0
        return (self.dense_macs * float(self.weight_bits)) / self.brcr_additions

    @property
    def weight_compression_ratio(self) -> float:
        if self.weight_bits_compressed == 0:
            return float("inf") if self.weight_bits_raw else 1.0
        return self.weight_bits_raw / self.weight_bits_compressed

    @property
    def kv_traffic_fraction(self) -> float:
        if self.kv_bits_dense == 0:
            return 1.0
        return self.kv_bits_loaded / self.kv_bits_dense

    @property
    def attention_keep_fraction(self) -> float:
        if self.keys_total == 0:
            return 1.0
        return self.keys_selected / self.keys_total

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


@dataclass
class MCBPLayer:
    """One BSTC-compressed integer weight matrix ready for BRCR execution."""

    encoded: EncodedWeight
    weight_shape: Tuple[int, int]
    name: str = "layer"

    @property
    def raw_bits(self) -> int:
        return self.encoded.raw_bits

    @property
    def compressed_bits(self) -> int:
        return self.encoded.encoded_bits


class MCBPEngine:
    """Executes integer GEMMs and sparse attention the MCBP way.

    Parameters
    ----------
    group_size:
        BRCR/BSTC group granularity ``m`` (paper default 4).
    weight_bits:
        Bit width of the integer weights.
    bgpp_config:
        Progressive-prediction parameters used by :meth:`select_keys`.
    plane_cache_entries:
        Capacity of the decoded-plane LRU cache (number of layers whose
        decoded weights are kept resident).  ``0`` disables caching and
        restores the seed behaviour of decoding on every GEMM.
    """

    def __init__(
        self,
        group_size: int = 4,
        weight_bits: int = 8,
        bgpp_config: Optional[BGPPConfig] = None,
        plane_cache_entries: int = 64,
    ) -> None:
        if plane_cache_entries < 0:
            raise ValueError(
                f"plane_cache_entries must be >= 0, got {plane_cache_entries}"
            )
        self.brcr_config = BRCRConfig(group_size=group_size, bits=weight_bits)
        self.codec = BSTCCodec(BSTCConfig(group_size=group_size, bits=weight_bits))
        self.bgpp_config = bgpp_config or BGPPConfig()
        self.plane_cache_entries = plane_cache_entries
        self.stats = EngineStats(weight_bits=weight_bits)
        self._layers: Dict[str, MCBPLayer] = {}
        self._plane_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        # float32 copies of cached decoded planes for matmul()'s BLAS product
        self._plane_cache_blas: Dict[str, np.ndarray] = {}

    @property
    def weight_bits(self) -> int:
        """Weight precision; single source of truth is the BRCR config."""
        return self.brcr_config.bits

    # -- weight management ----------------------------------------------------

    def register_weight(self, name: str, weight_q: np.ndarray) -> MCBPLayer:
        """Offline step: BSTC-compress an integer weight matrix and store it."""
        weight_q = np.asarray(weight_q)
        encoded = self.codec.encode(weight_q)
        layer = MCBPLayer(
            encoded=encoded,
            weight_shape=(int(weight_q.shape[0]), int(weight_q.shape[1])),
            name=name,
        )
        self._layers[name] = layer
        self._plane_cache.pop(name, None)  # re-registering invalidates the cache
        self._plane_cache_blas.pop(name, None)
        return layer

    def layer_names(self) -> List[str]:
        return sorted(self._layers)

    # -- decoded-plane cache ---------------------------------------------------

    def _decoded_weight(self, name: str) -> np.ndarray:
        """Decoded integer weights of a layer, served from the LRU cache.

        A hit serves the decoded planes from on-chip storage: no compressed
        stream is fetched and no decode runs, so neither the weight-traffic
        counters nor the codec's ``decode_calls`` move.  A miss decodes once,
        counts the compressed fetch, and (capacity permitting) caches the
        result, evicting the least recently used layer.
        """
        layer = self._layers[name]
        cached = self._plane_cache.get(name)
        if cached is not None:
            self._plane_cache.move_to_end(name)
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        self.stats.weight_bits_raw += layer.raw_bits
        self.stats.weight_bits_compressed += layer.compressed_bits
        weight_q = self.codec.decode(layer.encoded)
        if self.plane_cache_entries > 0:
            self._plane_cache[name] = weight_q
            while len(self._plane_cache) > self.plane_cache_entries:
                evicted, _ = self._plane_cache.popitem(last=False)
                self._plane_cache_blas.pop(evicted, None)
        return weight_q

    def cache_contents(self) -> List[str]:
        """Layer names currently resident in the decoded-plane cache (LRU first)."""
        return list(self._plane_cache)

    def clear_plane_cache(self) -> None:
        self._plane_cache.clear()
        self._plane_cache_blas.clear()

    # -- execution -------------------------------------------------------------

    def gemm(self, name: str, activations_q: np.ndarray) -> np.ndarray:
        """Integer GEMM of a registered layer against quantised activations.

        ``activations_q`` may be a single vector ``(H,)`` or a batch ``(H, N)``;
        the result is exactly ``W_q @ X_q`` either way.  The layer's BSTC
        planes are decoded (and their compressed traffic counted) only on a
        plane-cache miss.
        """
        if name not in self._layers:
            raise KeyError(f"layer {name!r} was never registered")
        layer = self._layers[name]
        weight_q = self._decoded_weight(name)
        outputs, cost = brcr_gemm(weight_q, activations_q, config=self.brcr_config)

        acts = np.asarray(activations_q)
        n_cols = 1 if acts.ndim == 1 else acts.shape[1]
        self.stats.gemm_calls += 1
        self.stats.dense_macs += layer.weight_shape[0] * layer.weight_shape[1] * n_cols
        self.stats.brcr_additions += cost.total_additions
        return outputs

    def matmul(self, name: str, activations_q: np.ndarray) -> np.ndarray:
        """Serving fast path: cached decoded planes + an exact BLAS product.

        Bit-identical to :meth:`gemm` (the BRCR bit-serial path is pinned
        exact against the dense product by the property suite) but skips the
        bit-serial emulation, so one scheduler step over a ``(H, B)`` batch
        pays at most one BSTC decode per layer (on a plane-cache miss) plus
        one ``(M, K) @ (K, B)`` product for the whole active batch.  The
        product runs as float32 BLAS over K-blocks narrow enough that every
        partial sum is an exact integer (see :meth:`_exact_sgemm_block`;
        INT8 operands give 1032-column blocks), summed across blocks in
        int64; activations too wide for any exact block take an int64
        product.  ``gemm_calls``/``dense_macs`` and the cache/weight-traffic
        counters accumulate as usual; ``brcr_additions`` does not move
        because no bit-serial execution ran.
        """
        if name not in self._layers:
            raise KeyError(f"layer {name!r} was never registered")
        layer = self._layers[name]
        weight_q = self._decoded_weight(name)
        acts = np.asarray(activations_q, dtype=np.int64)
        block = self._exact_sgemm_block(acts)
        if block:
            # float32 copy of the decoded planes, cached with their LRU entry
            weight_f = self._plane_cache_blas.get(name)
            if weight_f is None:
                weight_f = weight_q.astype(np.float32)
                if name in self._plane_cache:
                    self._plane_cache_blas[name] = weight_f
            acts_f = acts.astype(np.float32)
            outputs = (weight_f[:, :block] @ acts_f[:block]).astype(np.int64)
            for start in range(block, weight_f.shape[1], block):
                stop = start + block
                outputs += (weight_f[:, start:stop] @ acts_f[start:stop]).astype(np.int64)
        else:
            outputs = weight_q.astype(np.int64) @ acts
        n_cols = 1 if acts.ndim == 1 else acts.shape[1]
        self.stats.gemm_calls += 1
        self.stats.dense_macs += layer.weight_shape[0] * layer.weight_shape[1] * n_cols
        return outputs

    def _exact_sgemm_block(self, acts: np.ndarray) -> int:
        """Widest K-block whose float32 partial sums are exact, 0 if none is.

        Each product term is at most ``2**(weight_bits-1) * max|X|`` in
        magnitude, so a block of ``(2**24 - 1) // that`` columns keeps every
        partial sum an integer below ``2**24`` -- exactly representable in
        float32 whatever order BLAS accumulates in.  All-zero activations
        need no blocking.
        """
        x_max = int(np.abs(acts).max()) if acts.size else 0
        if x_max == 0:
            return max(acts.shape[0], 1)
        return ((1 << 24) - 1) // ((1 << max(self.weight_bits - 1, 1)) * x_max)

    def select_keys(
        self, query_q: np.ndarray, keys_q: np.ndarray
    ) -> Union[BGPPResult, List[BGPPResult]]:
        """BGPP key selection with KV-traffic accounting.

        ``query_q`` may be a single row ``(d,)`` or a batch ``(B, d)``; the
        batch form runs the progressive filter for the whole decode step in
        one NumPy pass and returns one result per query row.
        """
        query_q = np.asarray(query_q)
        keys_q = np.asarray(keys_q)
        if query_q.ndim == 2:
            results = bgpp_select_batch(query_q, keys_q, self.bgpp_config)
            for result in results:
                self._account_selection(result, keys_q)
            return results
        result = bgpp_select(query_q, keys_q, self.bgpp_config)
        self._account_selection(result, keys_q)
        return result

    def select_keys_batch(
        self, queries_q: np.ndarray, keys_q: np.ndarray
    ) -> List[BGPPResult]:
        """Batched BGPP selection (explicit-name alias of the ``(B, d)`` path)."""
        return self.select_keys(np.atleast_2d(np.asarray(queries_q)), keys_q)

    def _account_selection(self, result: BGPPResult, keys_q: np.ndarray) -> None:
        self.stats.kv_bits_loaded += result.kv_bits_loaded
        self.stats.kv_bits_dense += int(keys_q.size) * self.bgpp_config.key_bits
        self.stats.keys_selected += int(result.selected.size)
        self.stats.keys_total += int(keys_q.shape[0])

    def sparse_attention_scores(
        self, query_q: np.ndarray, keys_q: np.ndarray
    ) -> Tuple[np.ndarray, Union[BGPPResult, List[BGPPResult]]]:
        """Exact integer attention scores computed only for the BGPP-selected keys.

        Unselected keys receive a score of ``-inf`` so that a downstream softmax
        assigns them zero probability (the formal-compute stage of Fig. 3).
        A ``(B, d)`` query batch returns ``(B, n_keys)`` scores and one
        :class:`BGPPResult` per row, matching :meth:`select_keys`.
        """
        keys_q = np.asarray(keys_q, dtype=np.int64)
        query_q = np.asarray(query_q)
        if query_q.ndim == 2:
            results = self.select_keys(query_q, keys_q)
            scores = np.full(
                (query_q.shape[0], keys_q.shape[0]), -np.inf, dtype=np.float64
            )
            for i, (query, result) in enumerate(zip(query_q, results)):
                if result.selected.size:
                    selected_scores = keys_q[result.selected] @ query.astype(np.int64)
                    scores[i, result.selected] = selected_scores.astype(np.float64)
            return scores, results
        result = self.select_keys(query_q, keys_q)
        scores = np.full(keys_q.shape[0], -np.inf, dtype=np.float64)
        if result.selected.size:
            selected_scores = keys_q[result.selected] @ query_q.astype(np.int64)
            scores[result.selected] = selected_scores.astype(np.float64)
        return scores, result

    def reset_stats(self, clear_plane_cache: bool = False) -> None:
        """Zero the counters; optionally also cold-start the decoded-plane cache.

        By default the cache stays warm, so a post-reset measurement window
        reports the true steady-state traffic (all hits, zero compressed
        weight fetches -- ``weight_compression_ratio`` then returns its 1.0
        no-traffic fallback).  Pass ``clear_plane_cache=True`` to measure
        cold-cache behaviour, which matches the seed engine's accounting.
        """
        self.stats = EngineStats(weight_bits=self.weight_bits)
        if clear_plane_cache:
            self.clear_plane_cache()
