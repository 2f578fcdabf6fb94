"""Chunked ragged batched prefill: bit-identical to serial, under any budget.

The chunked prefill pipeline (PR 5) feeds prompts to the model in ragged
chunks batched with the decode streams -- one fused pass per engine step --
instead of one serial ``IncrementalDecoder.prefill()`` per admission.  These
tests pin its core contract three ways:

* **model layer** -- ``QuantizedTransformer.prefill_batch`` over arbitrary
  chunkings (including mixed decode+prefill batches) reproduces the one-shot
  serial forward bit-exactly: logits, KV rows and per-stream statistics;
* **engine layer** -- a ``ServingEngine`` under any ``prefill_token_budget``
  emits the same tokens as solo ``generate()`` runs, with TTFT split into
  its queue/prefill components, and with no budget it reproduces the
  one-shot serial prefill schedule pinned below;
* **edge cases** -- prompt shorter than one chunk, prompt exactly a page
  multiple, cancel mid-prefill, preempt-then-resume mid-prefill; all fuzzed
  under the deterministic hypothesis profile the scheduler suite uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bgpp import make_bgpp_predictor
from repro.model import (
    QuantizedTransformer,
    TransformerModel,
    generate,
    get_model_config,
)
from repro.model.generation import IncrementalDecoder
from repro.serve import (
    PagedKVArena,
    Request,
    ServingEngine,
    SessionState,
    make_policies,
)

FUZZ = settings(max_examples=10, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def model():
    return QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )


def _serial_reference(model, prompt, predictor=None):
    decoder = IncrementalDecoder(model, predictor=predictor)
    token = decoder.prefill(prompt)
    return token, decoder


def _chunked_prefill(model, prompts, chunk_schedule, predictor=None, arena=None):
    """Drive B decoders through prefill_step_batch with per-step chunk sizes.

    ``chunk_schedule(b, remaining)`` returns the chunk size decoder ``b``
    gets while it still owes ``remaining`` tokens.
    """
    decoders = [
        IncrementalDecoder(model, predictor=predictor, arena=arena)
        for _ in prompts
    ]
    for decoder, prompt in zip(decoders, prompts):
        decoder.begin_prefill(prompt)
    tokens = [None] * len(prompts)
    while any(d.prefill_remaining for d in decoders):
        batch = [
            (b, d) for b, d in enumerate(decoders) if d.prefill_remaining
        ]
        sizes = [
            chunk_schedule(b, d.prefill_remaining) for b, d in batch
        ]
        out, _ = IncrementalDecoder.prefill_step_batch(
            [d for _, d in batch], sizes
        )
        for (b, _), token in zip(batch, out):
            if token is not None:
                tokens[b] = token
    return tokens, decoders


class TestModelLayerBitIdentity:
    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_chunking_matches_one_shot_serial(self, model, seed):
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        n_streams = int(rng.integers(1, 5))
        prompts = [
            rng.integers(0, vocab, size=int(rng.integers(1, 16))).tolist()
            for _ in range(n_streams)
        ]
        chunk_caps = [int(rng.integers(1, 7)) for _ in range(n_streams)]
        refs = [_serial_reference(model, p) for p in prompts]
        tokens, decoders = _chunked_prefill(
            model, prompts, lambda b, rem: min(chunk_caps[b], rem)
        )
        for b in range(n_streams):
            ref_token, ref_decoder = refs[b]
            assert tokens[b] == ref_token
            # the sampled row's logits and every KV row are bit-identical
            assert np.array_equal(
                decoders[b].last_logits[-1], ref_decoder.last_logits[-1]
            )
            for layer in range(model.config.n_layers):
                assert np.array_equal(
                    decoders[b].caches[layer].keys,
                    ref_decoder.caches[layer].keys,
                )
                assert np.array_equal(
                    decoders[b].caches[layer].values,
                    ref_decoder.caches[layer].values,
                )
            assert decoders[b].prefill_stats == ref_decoder.prefill_stats

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_chunked_with_bgpp_predictor(self, model, seed):
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        predictor = make_bgpp_predictor(alpha=0.7, rounds=3)
        prompts = [
            rng.integers(0, vocab, size=int(rng.integers(2, 14))).tolist()
            for _ in range(3)
        ]
        refs = [_serial_reference(model, p, predictor) for p in prompts]
        tokens, decoders = _chunked_prefill(
            model, prompts, lambda b, rem: min(3, rem), predictor=predictor
        )
        for b, (ref_token, ref_decoder) in enumerate(refs):
            assert tokens[b] == ref_token
            assert decoders[b].prefill_stats == ref_decoder.prefill_stats

    def test_mixed_decode_and_prefill_rows_one_pass(self, model):
        """Decode rows ride the same fused pass, bit-identical to step()."""
        rng = np.random.default_rng(7)
        vocab = model.config.vocab_size
        prompt_a = rng.integers(0, vocab, size=8).tolist()
        prompt_b = rng.integers(0, vocab, size=11).tolist()

        ref_a = IncrementalDecoder(model)
        ref_tokens = [ref_a.prefill(prompt_a)]
        for _ in range(3):
            ref_tokens.append(ref_a.step(ref_tokens[-1]))
        ref_b_token, ref_b = _serial_reference(model, prompt_b)

        dec_a = IncrementalDecoder(model)
        mixed_tokens = [dec_a.prefill(prompt_a)]
        dec_b = IncrementalDecoder(model)
        dec_b.begin_prefill(prompt_b)
        token_b = None
        while dec_b.prefill_remaining:
            chunk = min(4, dec_b.prefill_remaining)
            out_p, out_d = IncrementalDecoder.prefill_step_batch(
                [dec_b], [chunk], [dec_a], [mixed_tokens[-1]]
            )
            mixed_tokens.append(out_d[0])
            if out_p[0] is not None:
                token_b = out_p[0]
        assert mixed_tokens == ref_tokens[: len(mixed_tokens)]
        assert token_b == ref_b_token
        assert dec_a.decode_stats == ref_a.decode_stats[: len(dec_a.decode_stats)]
        for layer in range(model.config.n_layers):
            assert np.array_equal(
                dec_b.caches[layer].keys, ref_b.caches[layer].keys
            )

    def test_arena_backed_chunking_matches_standalone(self, model):
        rng = np.random.default_rng(3)
        vocab = model.config.vocab_size
        config = model.config
        arena = PagedKVArena(config.n_layers, config.hidden_size, page_size=4)
        prompts = [rng.integers(0, vocab, size=n).tolist() for n in (5, 9, 3)]
        ref_tokens, _ = _chunked_prefill(
            model, prompts, lambda b, rem: min(4, rem)
        )
        tokens, decoders = _chunked_prefill(
            model, prompts, lambda b, rem: min(4, rem), arena=arena
        )
        assert tokens == ref_tokens
        for decoder in decoders:
            decoder.release()
        assert arena.stats.pages_in_use == 0

    def test_begin_prefill_guards(self, model):
        decoder = IncrementalDecoder(model)
        with pytest.raises(ValueError):
            decoder.begin_prefill([])
        decoder.begin_prefill([1, 2, 3])
        with pytest.raises(RuntimeError):
            decoder.begin_prefill([4])
        with pytest.raises(RuntimeError):
            decoder.prefill([4])  # mid-chunking: one-shot prefill refused
        with pytest.raises(RuntimeError):
            decoder.step(1)  # decode before the last chunk is refused
        with pytest.raises(ValueError):
            IncrementalDecoder.prefill_step_batch([decoder], [9])  # > remaining
        assert decoder.prefill_remaining == 3

    def test_prompt_shorter_than_one_chunk(self, model):
        """A one-token prompt completes in its first (partial) chunk."""
        ref_token, ref = _serial_reference(model, [5])
        tokens, decoders = _chunked_prefill(model, [[5]], lambda b, rem: rem)
        assert tokens == [ref_token]
        assert decoders[0].prefill_stats == ref.prefill_stats

    def test_prompt_exactly_a_page_multiple(self, model):
        """Chunks and pages aligning on the same boundary stays exact."""
        config = model.config
        page_size = 4
        rng = np.random.default_rng(11)
        prompt = rng.integers(0, config.vocab_size, size=3 * page_size).tolist()
        arena = PagedKVArena(
            config.n_layers, config.hidden_size, page_size=page_size
        )
        ref_token, ref = _serial_reference(model, prompt)
        tokens, decoders = _chunked_prefill(
            model, [prompt], lambda b, rem: min(page_size, rem), arena=arena
        )
        assert tokens == [ref_token]
        for layer in range(config.n_layers):
            assert np.array_equal(
                decoders[0].caches[layer].keys, ref.caches[layer].keys
            )
        # exactly one page per chunk, no tail slack
        assert arena.stats.page_faults == 3
        decoders[0].release()
        assert arena.stats.pages_in_use == 0


def _run_engine(model, requests, max_active=4, budget=None, policy="fcfs",
                predictor=None):
    admission, scheduling = make_policies(policy)
    engine = ServingEngine(
        model,
        max_active=max_active,
        predictor=predictor,
        admission=admission,
        scheduling=scheduling,
        page_size=4,
        prefill_token_budget=budget,
    )
    handles = engine.submit_many(requests)
    report = engine.run()
    return handles, report, engine


class _ForwardOnlyStub:
    """forward/new_cache only (no prefill_batch, no config): next = last + 1."""

    def new_cache(self):
        return []

    def forward(self, token_ids, caches=None, predictor=None):
        from repro.model.transformer import ForwardStats

        logits = np.zeros((len(token_ids), 8))
        logits[-1, (int(token_ids[-1]) + 1) % 8] = 1.0
        return logits, ForwardStats(tokens_processed=len(token_ids))


class TestEngineBudgets:
    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_budget_matches_serial_engine_tokens(self, model, seed):
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        requests = [
            Request(
                f"r{i:02d}",
                prompt_tokens=rng.integers(
                    0, vocab, size=int(rng.integers(1, 14))
                ).tolist(),
                max_new_tokens=int(rng.integers(1, 6)),
                arrival_step=int(rng.integers(0, 6)),
            )
            for i in range(int(rng.integers(2, 7)))
        ]
        requests.sort(key=lambda r: r.arrival_step)
        max_active = int(rng.integers(1, 5))
        budget = int(rng.integers(1, 9))
        solo = [
            generate(
                model, r.prompt_tokens, max_new_tokens=r.max_new_tokens
            ).generated_tokens
            for r in requests
        ]
        budget_handles, report, engine = _run_engine(
            model, requests, max_active, budget=budget
        )
        assert [h.generated_tokens for h in budget_handles] == solo, (
            "token content must not depend on the prefill budget"
        )
        for metrics in report.requests:
            assert (
                metrics.queue_steps + metrics.prefill_steps
                == metrics.time_to_first_token_steps
            )
            assert metrics.prefill_steps >= 0
        stats = engine.arena.stats
        assert stats.pages_in_use == 0
        assert stats.page_faults == stats.pages_freed

    def test_unlimited_budget_reproduces_serial_schedule_exactly(self, model):
        rng = np.random.default_rng(5)
        vocab = model.config.vocab_size
        requests = [
            Request(
                f"q{i}",
                prompt_tokens=rng.integers(0, vocab, size=6 + i).tolist(),
                max_new_tokens=3,
                arrival_step=i,
            )
            for i in range(5)
        ]
        handles, report, _ = _run_engine(model, requests, 2)
        # with no budget cap the step-domain schedule is the one-shot serial
        # prefill engine's: every prompt completes in its admission step.
        # Pinned from that engine's report (request_id, admitted, first
        # token, finished, tokens, keys attended, keys total)
        serial = [
            ("q0", 0, 0, 2, 3, 72, 72),
            ("q1", 1, 1, 3, 3, 90, 90),
            ("q2", 3, 3, 5, 3, 110, 110),
            ("q3", 4, 4, 6, 3, 132, 132),
            ("q4", 6, 6, 8, 3, 156, 156),
        ]
        assert [
            (
                m.request_id,
                m.admitted_step,
                m.first_token_step,
                m.finished_step,
                m.n_generated,
                m.keys_attended,
                m.keys_total,
            )
            for m in report.requests
        ] == serial
        assert report.steps == 9
        assert all(m.prefill_steps == 0 for m in report.requests)
        for r, handle in zip(requests, handles):
            assert handle.generated_tokens == generate(
                model, r.prompt_tokens, max_new_tokens=r.max_new_tokens
            ).generated_tokens

    def test_tight_budget_stretches_prefill_not_queue(self, model):
        prompt = list(range(1, 13))  # 12 tokens, budget 4 -> 3 prefill steps
        requests = [Request("long", prompt_tokens=prompt, max_new_tokens=2)]
        handles, report, _ = _run_engine(model, requests, 2, budget=4)
        solo = generate(model, prompt, max_new_tokens=2)
        assert handles[0].generated_tokens == solo.generated_tokens
        metrics = report.requests[0]
        assert metrics.queue_steps == 0
        assert metrics.prefill_steps == 2  # chunks land on steps 0,1,2
        assert metrics.time_to_first_token_steps == 2

    def test_budget_is_head_of_line(self, model):
        """The admission-order head always progresses; later prompts wait."""
        requests = [
            Request("head", prompt_tokens=list(range(1, 9)), max_new_tokens=1),
            Request("tail", prompt_tokens=list(range(1, 9)), max_new_tokens=1),
        ]
        handles, report, _ = _run_engine(model, requests, 2, budget=8)
        by_id = {m.request_id: m for m in report.requests}
        assert by_id["head"].first_token_step < by_id["tail"].first_token_step

    def test_batched_prefill_auto_disables_without_model_support(self):
        engine = ServingEngine(_ForwardOnlyStub(), max_active=2)
        assert not engine.chunked_prefill
        engine.submit(Request("r0", prompt_tokens=[1, 2, 3], max_new_tokens=2))
        report = engine.run()
        assert report.requests[0].n_generated == 2
        # the whole prompt ran in the admission step
        assert report.requests[0].prefill_steps == 0

    def test_budget_rejected_without_prefill_batch(self, model):
        """A budget the model cannot honour raises instead of being ignored."""
        from repro.serve.policies import FIFOAdmission

        for forward_only in (_ForwardOnlyStub(), model.model):
            with pytest.raises(ValueError, match="prefill_token_budget"):
                ServingEngine(forward_only, prefill_token_budget=1)

        class Throttler(FIFOAdmission):
            def prefill_token_budget(self, engine):
                return 1

        # a policy override cannot chunk a forward-only model's prompts
        # either: the 8-token prompt still lands in its admission step
        engine = ServingEngine(model.model, max_active=2, admission=Throttler())
        prompt = list(range(1, 9))
        handle = engine.submit(Request("r0", prompt_tokens=prompt, max_new_tokens=3))
        report = engine.run()
        assert report.requests[0].prefill_steps == 0
        assert handle.generated_tokens == generate(
            model.model, prompt, max_new_tokens=3
        ).generated_tokens

    def test_rejects_bad_budget(self, model):
        with pytest.raises(ValueError):
            ServingEngine(model, prefill_token_budget=0)

    def test_zero_budget_policy_override_cannot_livelock(self, model):
        """The admission-order head is clamped to >= 1 row per step."""
        from repro.serve.policies import FIFOAdmission

        class Starver(FIFOAdmission):
            def prefill_token_budget(self, engine):
                return 0  # a broken override must not stall the pipeline

        prompt = list(range(1, 10))
        engine = ServingEngine(
            model, max_active=2, admission=Starver(), page_size=4
        )
        handle = engine.submit(Request("r0", prompt_tokens=prompt, max_new_tokens=2))
        report = engine.run(max_steps=50)
        solo = generate(model, prompt, max_new_tokens=2)
        assert handle.generated_tokens == solo.generated_tokens
        # one clamped row per step: prefill stretches but always progresses
        assert report.requests[0].prefill_steps == len(prompt) - 1


class TestMidPrefillLifecycle:
    def test_cancel_mid_prefill_frees_kv_and_spares_the_rest(self, model):
        rng = np.random.default_rng(9)
        vocab = model.config.vocab_size
        doomed = Request(
            "doomed", prompt_tokens=rng.integers(0, vocab, size=12).tolist(),
            max_new_tokens=4,
        )
        survivor = Request(
            "survivor", prompt_tokens=rng.integers(0, vocab, size=5).tolist(),
            max_new_tokens=3,
        )
        admission, scheduling = make_policies("fcfs")
        engine = ServingEngine(
            model, max_active=2, admission=admission, scheduling=scheduling,
            page_size=4, prefill_token_budget=3,
        )
        handle_doomed = engine.submit(doomed)
        handle_survivor = engine.submit(survivor)
        engine.step()  # both admitted; doomed got 3 of 12 rows
        assert handle_doomed.state is SessionState.PREFILLING
        assert engine.cancel(handle_doomed)
        report = engine.run()
        solo = generate(
            model, survivor.prompt_tokens, max_new_tokens=survivor.max_new_tokens
        )
        assert handle_survivor.generated_tokens == solo.generated_tokens
        assert handle_doomed.generated_tokens == []
        assert report.policy["cancelled"] == 1
        stats = engine.arena.stats
        assert stats.pages_in_use == 0  # the partial chunks' pages came back
        assert stats.page_faults == stats.pages_freed

    def test_preempt_then_resume_mid_prefill_is_bit_identical(self, model):
        """A victim evicted mid-prefill re-prefills chunked, tokens intact."""
        rng = np.random.default_rng(21)
        vocab = model.config.vocab_size
        bulk = Request(
            "bulk", prompt_tokens=rng.integers(0, vocab, size=11).tolist(),
            max_new_tokens=6, priority=0,
        )
        urgent = Request(
            "urgent", prompt_tokens=rng.integers(0, vocab, size=4).tolist(),
            max_new_tokens=2, arrival_step=1, priority=3,
        )
        admission, scheduling = make_policies("priority")
        engine = ServingEngine(
            model, max_active=1, admission=admission, scheduling=scheduling,
            page_size=4, prefill_token_budget=4,
        )
        handles = engine.submit_many([bulk, urgent])
        engine.step()  # bulk admitted, 4 of 11 rows in
        assert handles[0].state is SessionState.PREFILLING
        report = engine.run()
        by_id = {m.request_id: m for m in report.requests}
        assert by_id["bulk"].preemptions == 1
        for request, handle in zip([bulk, urgent], handles):
            solo = generate(
                model, request.prompt_tokens, max_new_tokens=request.max_new_tokens
            )
            assert handle.generated_tokens == solo.generated_tokens
        stats = engine.arena.stats
        assert stats.pages_in_use == 0
        assert stats.page_faults == stats.pages_freed
        # bulk's first session died mid-prefill; the resume opened another
        assert stats.sessions_opened == 3

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_preemptive_policies_with_budgets_match_solo(self, model, seed):
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        requests = [
            Request(
                f"p{i:02d}",
                prompt_tokens=rng.integers(
                    0, vocab, size=int(rng.integers(1, 12))
                ).tolist(),
                max_new_tokens=int(rng.integers(1, 5)),
                arrival_step=int(rng.integers(0, 5)),
                priority=int(rng.integers(0, 3)),
            )
            for i in range(int(rng.integers(2, 6)))
        ]
        requests.sort(key=lambda r: r.arrival_step)
        budget = int(rng.integers(1, 7))
        references = [
            generate(
                model, r.prompt_tokens, max_new_tokens=r.max_new_tokens
            ).generated_tokens
            for r in requests
        ]
        handles, report, engine = _run_engine(
            model, requests, max_active=int(rng.integers(1, 3)),
            budget=budget, policy="priority",
        )
        again, _, _ = _run_engine(
            model, requests, max_active=engine.max_active,
            budget=budget, policy="priority",
        )
        tokens = [h.generated_tokens for h in handles]
        assert tokens == references, "mid-prefill preemption changed content"
        assert tokens == [h.generated_tokens for h in again]
        stats = engine.arena.stats
        assert stats.pages_in_use == 0
        assert stats.page_faults == stats.pages_freed
