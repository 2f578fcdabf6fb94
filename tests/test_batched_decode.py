"""Property suite for the fused batched decode path (PR 2).

Pins every new batched fast path bit-exact against its sequential reference:

* ragged ``bgpp_select_batch`` (per-query key prefixes + score scales) vs the
  single-query filter on the truncated key matrix, including empty prefixes
  and ``B = 1``;
* the predictors' ``select_ragged`` batch entry points vs row-by-row calls,
  and the attention modules that consume them;
* one-row decode steps through ``QuantizedTransformer.prefill_batch`` /
  ``IncrementalDecoder.prefill_step_batch`` vs stepping each stream alone
  (tokens, logits and per-stream statistics);
* ``MultiHeadAttention.prefill_batch`` on mixed batches vs the per-stream
  contraction and vs ``__call__`` (one-row decode streams, mid-prompt
  one-row chunks, multi-row chunks, ragged lengths, BGPP on and off);
* the serving engine vs solo ``generate()`` over random traffic (ragged
  context lengths, sessions finishing mid-run, B = 1 and all-finished
  steps);
* ``MCBPEngine.matmul`` vs the bit-serial ``gemm`` path and its counters;
* ``ServingReport`` JSON round-tripping (the schema shared between the
  example and the serving benchmark).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bgpp import (
    BGPPConfig,
    bgpp_select,
    bgpp_select_batch,
    make_bgpp_predictor,
    make_value_topk_predictor,
)
from repro.core.engine import MCBPEngine
from repro.model import (
    KVCache,
    Linear,
    MultiHeadAttention,
    QuantizedTransformer,
    TransformerModel,
    generate,
    get_model_config,
)
from repro.model.generation import IncrementalDecoder
from repro.serve import PagedKVArena, Request, ServingEngine, ServingReport
from repro.serve.session import GenerationSession
from repro.workloads import sample_requests


@pytest.fixture(scope="module")
def tiny_quantized():
    """One calibrated quantised model shared by the fused-path tests."""
    return QuantizedTransformer(TransformerModel(get_model_config("tiny"), seed=0), seed=1)


def _signed(rng, shape, bits):
    hi = (1 << (bits - 1)) - 1
    return rng.integers(-hi, hi + 1, size=shape)


class TestBGPPRaggedBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_ragged_batch_bit_exact_vs_truncated_single(self, seed):
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(1, 60))
        d = int(rng.integers(1, 24))
        n_queries = int(rng.integers(1, 7))  # includes B=1
        key_bits = int(rng.integers(3, 9))
        config = BGPPConfig(
            rounds=int(rng.integers(1, 5)),
            radius=float(rng.uniform(0.0, 4.0)),
            alpha=float(rng.uniform(0.1, 1.0)),
            key_bits=key_bits,
            query_bits=int(rng.integers(2, key_bits + 1)),
            min_keys=int(rng.integers(1, 3)),
        )
        keys = _signed(rng, (n_keys, d), key_bits)
        queries = _signed(rng, (n_queries, d), key_bits)
        # lengths include 0 (empty prefix) and n_keys (full batch) cases
        lengths = rng.integers(0, n_keys + 1, size=n_queries)
        scales = rng.uniform(0.001, 1.0, size=n_queries)
        batch = bgpp_select_batch(
            queries, keys, config, key_lengths=lengths, score_scales=scales
        )
        assert len(batch) == n_queries
        for b, result in enumerate(batch):
            ref_config = BGPPConfig(
                rounds=config.rounds,
                radius=config.radius,
                alpha=config.alpha,
                key_bits=key_bits,
                query_bits=config.query_bits,
                score_scale=float(scales[b]),
                min_keys=config.min_keys,
            )
            single = bgpp_select(queries[b], keys[: lengths[b]], ref_config)
            assert np.array_equal(result.selected, single.selected)
            assert np.array_equal(result.estimated_scores, single.estimated_scores)
            assert result.survivors_per_round == single.survivors_per_round
            assert result.kv_bits_loaded == single.kv_bits_loaded
            assert result.mac_ops == single.mac_ops
            assert result.rounds_executed == single.rounds_executed
            assert result.early_terminated == single.early_terminated

    def test_key_lengths_validation(self):
        queries = np.ones((2, 4), dtype=np.int64)
        keys = np.ones((8, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="key_lengths"):
            bgpp_select_batch(queries, keys, key_lengths=[1])
        with pytest.raises(ValueError, match="key_lengths"):
            bgpp_select_batch(queries, keys, key_lengths=[1, 9])
        with pytest.raises(ValueError, match="score_scales"):
            bgpp_select_batch(queries, keys, score_scales=[1.0])

    def test_all_empty_prefixes(self):
        results = bgpp_select_batch(
            np.ones((3, 4), dtype=np.int64),
            np.ones((8, 4), dtype=np.int64),
            key_lengths=[0, 0, 0],
        )
        for result in results:
            assert result.selected.size == 0
            assert result.kv_bits_loaded == 0
            assert result.rounds_executed == 0


class TestPredictorRaggedBatch:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_select_ragged_matches_per_row(self, seed):
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(1, 40))
        d = int(rng.integers(2, 20))
        n_rows = int(rng.integers(1, 8))
        keys = rng.normal(size=(n_keys, d))
        queries = rng.normal(size=(n_rows, d))
        lengths = rng.integers(0, n_keys + 1, size=n_rows)
        for predictor in (
            make_bgpp_predictor(alpha=float(rng.uniform(0.3, 0.9)), rounds=3),
            make_value_topk_predictor(keep_fraction=float(rng.uniform(0.1, 1.0))),
        ):
            batch = predictor.select_ragged(queries, keys, lengths)
            for i in range(n_rows):
                reference = predictor(queries[i], keys[: lengths[i]])
                assert np.array_equal(
                    np.asarray(batch[i]), np.asarray(reference)
                ), f"row {i} lengths={lengths.tolist()}"

    def test_attention_batch_path_matches_predictor_loop(self):
        """MHA prefill with select_ragged == the per-row predictor loop."""
        attn = MultiHeadAttention(32, 4, seed=7)
        x = np.random.default_rng(7).normal(size=(10, 32))
        batched_predictor = make_bgpp_predictor(alpha=0.6, rounds=3)
        # same selection logic, but stripped of the batch entry point so the
        # attention module must take the row-by-row fallback
        loop_predictor = lambda q, keys: batched_predictor(q, keys)
        assert not hasattr(loop_predictor, "select_ragged")
        fast = attn(x, predictor=batched_predictor)
        slow = attn(x, predictor=loop_predictor)
        assert np.array_equal(fast.output, slow.output)
        assert fast.keys_attended == slow.keys_attended
        assert fast.keys_total == slow.keys_total

    def test_quantized_prefill_batch_path_matches_loop(self, tiny_quantized):
        """QuantizedTransformer prefill: vectorised selection == loop."""
        prompt = list(range(1, 14))
        batched_predictor = make_value_topk_predictor(keep_fraction=0.5)
        loop_predictor = lambda q, keys: batched_predictor(q, keys)
        fast_logits, fast_stats = tiny_quantized.forward(
            prompt, caches=tiny_quantized.new_cache(), predictor=batched_predictor
        )
        slow_logits, slow_stats = tiny_quantized.forward(
            prompt, caches=tiny_quantized.new_cache(), predictor=loop_predictor
        )
        assert np.array_equal(fast_logits, slow_logits)
        assert fast_stats.keys_attended == slow_stats.keys_attended


class TestKVCache:
    def test_append_matches_vstack_reference(self):
        rng = np.random.default_rng(0)
        cache = KVCache()
        ref_k = ref_v = None
        for _ in range(40):
            n = int(rng.integers(1, 4))
            k = rng.normal(size=(n, 8))
            v = rng.normal(size=(n, 8))
            cache.append(k, v)
            ref_k = k.copy() if ref_k is None else np.vstack([ref_k, k])
            ref_v = v.copy() if ref_v is None else np.vstack([ref_v, v])
            assert np.array_equal(cache.keys, ref_k)
            assert np.array_equal(cache.values, ref_v)
            assert cache.seq_len == ref_k.shape[0]

    def test_clear_and_empty_views(self):
        cache = KVCache()
        assert cache.keys is None and cache.values is None and cache.seq_len == 0
        cache.append(np.ones(4), np.ones(4))
        assert cache.seq_len == 1
        cache.clear()
        assert cache.keys is None and cache.seq_len == 0

    def test_constructor_seed_rows(self):
        cache = KVCache(np.ones((2, 4)), np.zeros((2, 4)))
        assert cache.seq_len == 2
        assert np.array_equal(cache.keys, np.ones((2, 4)))


def _decode_rows(decoders, tokens):
    """One decode row per stream through the mixed pass; next tokens."""
    _, out = IncrementalDecoder.prefill_step_batch([], [], decoders, tokens)
    return out


class TestStepBatch:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_bit_exact_vs_sequential_ragged_prompts(self, tiny_quantized, seed):
        """One-row prefill_batch steps == per-stream stepping, ragged contexts."""
        rng = np.random.default_rng(seed)
        n_streams = int(rng.integers(1, 7))  # includes B=1
        vocab = tiny_quantized.config.vocab_size
        prompts = [
            rng.integers(0, vocab, size=int(rng.integers(1, 16))).tolist()
            for _ in range(n_streams)
        ]

        fused_decoders, fused_tokens = [], []
        seq_decoders, seq_tokens = [], []
        for prompt in prompts:
            d = IncrementalDecoder(tiny_quantized)
            fused_tokens.append(d.prefill(prompt))
            fused_decoders.append(d)
            d = IncrementalDecoder(tiny_quantized)
            seq_tokens.append(d.prefill(prompt))
            seq_decoders.append(d)
        assert fused_tokens == seq_tokens

        for _ in range(int(rng.integers(1, 6))):
            fused_tokens = _decode_rows(fused_decoders, fused_tokens)
            seq_tokens = [d.step(t) for d, t in zip(seq_decoders, seq_tokens)]
            assert fused_tokens == seq_tokens
        for fused_d, seq_d in zip(fused_decoders, seq_decoders):
            assert np.array_equal(fused_d.last_logits, seq_d.last_logits)
            assert len(fused_d.decode_stats) == len(seq_d.decode_stats)
            for fs, ss in zip(fused_d.decode_stats, seq_d.decode_stats):
                assert fs.keys_attended == ss.keys_attended
                assert fs.keys_total == ss.keys_total
                assert fs.tokens_processed == ss.tokens_processed

    def test_empty_batch_is_noop(self):
        assert IncrementalDecoder.prefill_step_batch([], []) == ([], [])

    def test_requires_prefill_and_matching_lengths(self, tiny_quantized):
        decoder = IncrementalDecoder(tiny_quantized)
        with pytest.raises(RuntimeError, match="prefill"):
            _decode_rows([decoder], [0])
        decoder.prefill([1, 2])
        with pytest.raises(ValueError, match="tokens"):
            _decode_rows([decoder], [0, 1])

    def test_falls_back_without_forward_batch(self):
        class MinimalModel:
            """forward/new_cache only -- no fused entry point."""

            vocab = 16

            def new_cache(self):
                return []

            def forward(self, token_ids, caches=None, predictor=None):
                from repro.model.transformer import ForwardStats

                logits = np.zeros((len(token_ids), self.vocab))
                logits[-1, (int(token_ids[-1]) + 1) % self.vocab] = 1.0
                return logits, ForwardStats(tokens_processed=len(token_ids))

        model = MinimalModel()
        decoders = []
        tokens = []
        for start in (3, 7):
            d = IncrementalDecoder(model)
            tokens.append(d.prefill([start]))
            decoders.append(d)
        # each stream runs alone through forward: one decode row each
        assert _decode_rows(decoders, tokens) == [5, 9]
        # a whole prompt rides the same call; a partial one cannot
        fresh = IncrementalDecoder(model)
        fresh.begin_prefill([1, 2, 3])
        with pytest.raises(ValueError, match="one chunk"):
            IncrementalDecoder.prefill_step_batch([fresh], [2])
        out, _ = IncrementalDecoder.prefill_step_batch([fresh], [3])
        assert out == [4]


def _mixed_attention_case(rng, with_arena):
    """A random mixed ``prefill_batch`` call's streams.

    Every stream owns a random prompt of ``L`` hidden rows; its chunk is one
    of: a full-width decode row (the last row, ``total_lens == length``), a
    one-row mid-prompt chunk (``total_lens > length``) or a multi-row chunk,
    with the rows before the chunk already cached.  The module gets an
    identity output projection, so ``__call__`` over the whole prompt yields
    exactly the pre-projection context ``prefill_batch`` returns.
    Projections run once over each whole prompt and are sliced, so both
    sides see bit-identical Q/K/V rows.
    """
    hidden, heads = 16, 4
    attn = MultiHeadAttention(hidden, heads, seed=int(rng.integers(0, 1000)))
    attn.wo = Linear(np.eye(hidden), np.zeros(hidden))
    arena = (
        PagedKVArena(n_layers=1, hidden_size=hidden, page_size=4)
        if with_arena
        else None
    )
    streams = []
    for _ in range(int(rng.integers(1, 7))):
        length = int(rng.integers(1, 21))
        kind = rng.choice(["decode", "mid_row", "chunk"])
        if kind == "decode" or length == 1:
            start, n = length - 1, 1
        elif kind == "mid_row":
            start, n = int(rng.integers(0, length - 1)), 1
        else:
            start = int(rng.integers(0, length - 1))
            n = int(rng.integers(2, length - start + 1))
        x = rng.normal(size=(length, hidden))
        q, k, v = attn.wq(x), attn.wk(x), attn.wv(x)
        cache = arena.new_session_caches()[0] if arena is not None else KVCache()
        if start:
            cache.append(k[:start], v[:start])
        streams.append((x, q, k, v, start, n, cache))
    return attn, streams


class TestMixedPrefillAttention:
    """``MultiHeadAttention.prefill_batch`` is bit-exact on mixed batches.

    Full-width one-row streams (decode rows) share the padded decode
    contraction and must reproduce the serial pass (``__call__``, the
    attention ``forward`` runs) bit for bit.  Every other stream runs the
    per-stream contraction and must reproduce :meth:`chunk_attention` bit for
    bit.  Per-row key counts match both oracles for every stream.

    The per-stream contraction reduces its softmax over a contiguous padded
    logits array, the serial pass over einsum's strided output, so chunk
    rows may differ from ``__call__`` by a few ulp; they are held to that
    tolerance only.
    """

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_mixed_batch_bit_exact(self, seed, with_arena, bgpp):
        rng = np.random.default_rng(seed)
        attn, streams = _mixed_attention_case(rng, with_arena)
        predictor = make_bgpp_predictor(alpha=0.6, rounds=3) if bgpp else None
        chunk = [slice(start, start + n) for *_, start, n, _ in streams]
        out = attn.prefill_batch(
            np.vstack([s[1][c] for s, c in zip(streams, chunk)]),
            np.vstack([s[2][c] for s, c in zip(streams, chunk)]),
            np.vstack([s[3][c] for s, c in zip(streams, chunk)]),
            [n for *_, n, _ in streams],
            [cache for *_, cache in streams],
            total_lens=[x.shape[0] for x, *_ in streams],
            predictor=predictor,
        )
        offset = 0
        for b, (x, q, k, v, start, n, _) in enumerate(streams):
            rows = out.output[offset : offset + n]
            offset += n
            end = start + n
            context, attended, total = attn.chunk_attention(
                q[start:end], k[:end], v[:end], x.shape[0], predictor
            )
            serial = attn(x, cache=KVCache(), predictor=predictor)
            if end == x.shape[0] and n == 1:
                exact, close = serial.output[start:end], context
            else:
                exact, close = context, serial.output[start:end]
            assert np.array_equal(rows, exact), f"stream {b} rows differ"
            np.testing.assert_allclose(rows, close, rtol=1e-12, atol=1e-15)
            for ref_attended, ref_total in (
                (attended, total),
                (serial.row_keys_attended[start:end], serial.row_keys_total[start:end]),
            ):
                span = slice(offset - n, offset)
                assert np.array_equal(out.row_keys_attended[span], ref_attended)
                assert np.array_equal(out.row_keys_total[span], ref_total)


def _solo_tokens(model, requests, predictor=None):
    return [
        generate(
            model, r.prompt_tokens, max_new_tokens=r.max_new_tokens, predictor=predictor
        ).generated_tokens
        for r in requests
    ]


class TestFusedScheduler:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_fused_run_bit_exact_vs_sequential(self, tiny_quantized, seed):
        """The engine's one step call == solo sequential ``generate()``."""
        rng = np.random.default_rng(seed)
        requests = sample_requests(
            int(rng.integers(2, 10)),
            vocab_size=tiny_quantized.config.vocab_size,
            mean_interarrival=float(rng.uniform(0.0, 2.0)),
            seed=int(rng.integers(0, 1000)),
        )
        max_active = int(rng.integers(1, 9))
        engine = ServingEngine(tiny_quantized, max_active=max_active)
        handles = engine.submit_many(requests)
        report = engine.run()
        assert [h.generated_tokens for h in handles] == _solo_tokens(
            tiny_quantized, requests
        )
        for metrics in report.requests:
            # every prompt lands in its admission step; one token per step
            assert metrics.prefill_steps == 0
            assert metrics.latency_steps == (
                metrics.queue_steps + metrics.n_generated - 1
            )

    def test_fused_with_bgpp_predictor_bit_exact(self, tiny_quantized):
        predictor = make_bgpp_predictor(alpha=0.7, rounds=3)
        requests = sample_requests(
            8, vocab_size=tiny_quantized.config.vocab_size, mean_interarrival=0.5, seed=4
        )
        engine = ServingEngine(tiny_quantized, max_active=4, predictor=predictor)
        handles = engine.submit_many(requests)
        engine.run()
        assert [h.generated_tokens for h in handles] == _solo_tokens(
            tiny_quantized, requests, predictor
        )

    def test_prefill_step_batch_requires_active_sessions(self, tiny_quantized):
        request = Request("r0", prompt_tokens=[1, 2], max_new_tokens=4)
        session = GenerationSession(request, tiny_quantized)
        with pytest.raises(RuntimeError, match="not active"):
            GenerationSession.prefill_step_batch([], [], [session], step=0)

    def test_all_finished_step_emits_nothing(self, tiny_quantized):
        """A drained scheduler step (no queued, no active) is a no-op."""
        sched = ServingEngine(tiny_quantized, max_active=4)
        sched.submit(Request("r0", prompt_tokens=[1], max_new_tokens=1))
        sched.run()
        assert not sched.has_work
        assert sched.step() == {}

    def test_engine_bound_model_decodes_once_per_matrix(self):
        model = QuantizedTransformer(
            TransformerModel(get_model_config("tiny"), seed=0), seed=1
        )
        engine = MCBPEngine(group_size=4, weight_bits=8)
        model.bind_engine(engine)
        engine.codec.reset_counters()
        sched = ServingEngine(model, max_active=4)
        sched.submit_many(
            Request(f"r{i}", prompt_tokens=[i + 1, i + 2], max_new_tokens=6)
            for i in range(4)
        )
        sched.run()
        n_matrices = len(model.quantized_weight_matrices())
        assert engine.codec.decode_calls == n_matrices
        assert engine.stats.cache_misses == n_matrices
        assert engine.stats.cache_hits > 0


class TestEngineMatmul:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matmul_bit_exact_vs_gemm(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 17))
        hidden = int(rng.integers(1, 33))
        n_cols = int(rng.integers(1, 6))
        bits = int(rng.integers(2, 9))
        weights = _signed(rng, (rows, hidden), bits)
        acts = rng.integers(-100, 100, size=(hidden, n_cols))
        fast = MCBPEngine(group_size=4, weight_bits=bits)
        slow = MCBPEngine(group_size=4, weight_bits=bits)
        fast.register_weight("w", weights)
        slow.register_weight("w", weights)
        assert np.array_equal(fast.matmul("w", acts), slow.gemm("w", acts))
        assert np.array_equal(
            fast.matmul("w", acts[:, 0]), weights.astype(np.int64) @ acts[:, 0]
        )

    def test_matmul_counters_and_cache(self):
        rng = np.random.default_rng(0)
        engine = MCBPEngine(group_size=4, weight_bits=8)
        weights = _signed(rng, (8, 16), 8)
        engine.register_weight("w", weights)
        acts = rng.integers(-100, 100, size=(16, 4))
        engine.matmul("w", acts)
        engine.matmul("w", acts)
        assert engine.stats.gemm_calls == 2
        assert engine.stats.dense_macs == 2 * 8 * 16 * 4
        assert engine.stats.brcr_additions == 0  # no bit-serial execution ran
        assert engine.stats.cache_misses == 1 and engine.stats.cache_hits == 1
        assert engine.codec.decode_calls == 1
        with pytest.raises(KeyError):
            engine.matmul("missing", acts)

    def test_matmul_huge_magnitudes_fall_back_exactly(self):
        """Activations near the float64-exactness bound use integer loops."""
        engine = MCBPEngine(group_size=1, weight_bits=8)
        weights = np.array([[127, -127]], dtype=np.int64)
        engine.register_weight("w", weights)
        acts = np.array([2**48, -(2**48)], dtype=np.int64)
        assert np.array_equal(
            engine.matmul("w", acts), weights.astype(np.int64) @ acts
        )

    def test_quantized_linear_guards_blas_exactness(self):
        """Precisions that could overflow the float64 mantissa keep int paths."""
        from repro.quant.calibration import calibrate_linear

        rng = np.random.default_rng(0)
        weights = rng.normal(size=(6, 16))
        calib = rng.normal(size=(10, 16))
        int8 = calibrate_linear(weights, calib)
        assert int8.blas_product_is_exact()
        wide = calibrate_linear(weights, calib, weight_bits=30, activation_bits=30)
        assert not wide.blas_product_is_exact()
        # both routes must still produce the exact folded integer result
        x = rng.normal(size=(3, 16))
        for qlin in (int8, wide):
            out, _ = qlin.forward(x)
            xq = qlin.quantize_input(x).T
            product = qlin.weight_q.astype(np.int64) @ xq
            scale, bias = qlin.folded_scale_bias()
            expected = (scale[:, None] * product + bias[:, None]).T
            assert np.array_equal(out, expected)


class TestServingReportJson:
    def test_round_trip(self, tiny_quantized):
        sched = ServingEngine(tiny_quantized, max_active=3)
        sched.submit_many(
            sample_requests(
                6,
                vocab_size=tiny_quantized.config.vocab_size,
                mean_interarrival=1.0,
                seed=2,
            )
        )
        report = sched.run()
        payload = report.to_json()
        # derived aggregates are present for consumers...
        assert payload["total_tokens"] == report.total_tokens
        assert payload["throughput_tokens_per_step"] == pytest.approx(
            report.throughput_tokens_per_step
        )
        # ...and ignored on the way back in: everything recomputes
        rebuilt = ServingReport.from_json(payload)
        assert rebuilt.steps == report.steps
        assert rebuilt.max_concurrency == report.max_concurrency
        assert rebuilt.requests == report.requests
        assert rebuilt.total_tokens == report.total_tokens
        assert rebuilt.summary() == report.summary()

    def test_json_is_serialisable(self, tiny_quantized):
        import json

        sched = ServingEngine(tiny_quantized, max_active=2)
        sched.submit(Request("r0", prompt_tokens=[1, 2, 3], max_new_tokens=3))
        report = sched.run()
        rebuilt = ServingReport.from_json(json.loads(json.dumps(report.to_json())))
        assert rebuilt.requests == report.requests
