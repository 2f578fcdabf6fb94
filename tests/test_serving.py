"""Tests for the batched serving layer (repro.serve + workloads.traffic)."""

import numpy as np
import pytest

from repro.model import TransformerModel, generate, get_model_config
from repro.model.generation import IncrementalDecoder
from repro.serve import (
    Request,
    ServingEngine,
    SessionState,
)
from repro.serve.session import GenerationSession
from session_steps import admit, decode
from repro.workloads import poisson_arrival_steps, sample_requests


class StubModel:
    """Deterministic O(1) stand-in for a transformer: next token = last + 1.

    Exposes the same ``forward``/``new_cache`` surface as the real models so
    scheduler-logic tests don't pay transformer cost.  ``forward`` returns
    logits whose argmax is ``(last_token + 1) % vocab``.
    """

    def __init__(self, vocab: int = 16):
        self.vocab = vocab
        self.forward_calls = 0

    def new_cache(self):
        return []

    def forward(self, token_ids, caches=None, predictor=None):
        from repro.model.transformer import ForwardStats

        self.forward_calls += 1
        logits = np.zeros((len(token_ids), self.vocab))
        logits[-1, (int(token_ids[-1]) + 1) % self.vocab] = 1.0
        n = len(token_ids)
        return logits, ForwardStats(keys_attended=n, keys_total=n, tokens_processed=n)


class TestIncrementalDecoder:
    def test_matches_generate_exactly(self):
        model = TransformerModel(get_model_config("tiny"), seed=0)
        prompt = [3, 1, 4, 1, 5]
        solo = generate(model, prompt, max_new_tokens=6)
        decoder = IncrementalDecoder(model)
        tokens = [decoder.prefill(prompt)]
        for _ in range(5):
            tokens.append(decoder.step(tokens[-1]))
        assert tokens == solo.generated_tokens
        assert decoder.seq_len == len(prompt) + 5

    def test_lifecycle_guards(self):
        decoder = IncrementalDecoder(StubModel())
        with pytest.raises(RuntimeError):
            decoder.step(0)
        with pytest.raises(ValueError):
            decoder.prefill([])
        decoder.prefill([1])
        with pytest.raises(RuntimeError):
            decoder.prefill([1])


class TestSession:
    def test_emission_schedule_and_eos(self):
        model = StubModel(vocab=16)
        # prompt ends at 4 -> emits 5, 6, 7, ... ; eos=7 stops after 3 tokens
        request = Request("r0", prompt_tokens=[4], max_new_tokens=10, eos_token=7)
        session = GenerationSession(request, model)
        assert admit(session, 0) == 5
        assert decode(session, 1) == 6
        assert decode(session, 2) == 7
        assert session.is_finished
        assert session.generated_tokens == [5, 6, 7]
        metrics = session.to_metrics()
        assert metrics.latency_steps == 2
        assert metrics.attention_density == 1.0

    def test_to_metrics_requires_finished(self):
        request = Request("r9", prompt_tokens=[0], max_new_tokens=4)
        session = GenerationSession(request, StubModel())
        with pytest.raises(RuntimeError):
            session.to_metrics()

    def test_budget_exhaustion_skips_trailing_forward(self):
        model = StubModel()
        request = Request("r1", prompt_tokens=[0], max_new_tokens=2)
        session = GenerationSession(request, model)
        admit(session, 0)
        decode(session, 1)
        assert session.is_finished
        # prefill + exactly one decode forward: the final token needs no pass
        assert model.forward_calls == 2

    def test_state_guards(self):
        request = Request("r2", prompt_tokens=[0], max_new_tokens=1)
        session = GenerationSession(request, StubModel())
        with pytest.raises(RuntimeError):
            decode(session, 0)
        admit(session, 0)
        assert session.is_finished  # budget of 1 is met by the prefill token
        with pytest.raises(RuntimeError):
            admit(session, 1)

    def test_numpy_array_prompt_accepted(self):
        prompt = np.array([1, 2, 3])
        request = Request("np", prompt_tokens=prompt, max_new_tokens=2)
        session = GenerationSession(request, StubModel())
        assert admit(session, 0) == 4

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request("bad", prompt_tokens=[], max_new_tokens=4)
        with pytest.raises(ValueError):
            Request("bad", prompt_tokens=[1], max_new_tokens=0)
        with pytest.raises(ValueError):
            Request("bad", prompt_tokens=[1], arrival_step=-1)


class TestScheduler:
    def test_respects_max_active_and_fifo(self):
        model = StubModel()
        sched = ServingEngine(model, max_active=2)
        reqs = [Request(f"r{i}", prompt_tokens=[i], max_new_tokens=4) for i in range(5)]
        handles = sched.submit_many(reqs)
        report = sched.run()
        assert report.max_concurrency == 2
        admits = {h.request_id: h.session.admitted_step for h in handles}
        # FIFO: earlier submissions are never admitted after later ones
        order = [admits[f"r{i}"] for i in range(5)]
        assert order == sorted(order)
        assert report.total_tokens == 5 * 4

    def test_admission_is_earliest_arrival_first(self):
        # submitted out of arrival order: the earlier arrival must win the slot
        sched = ServingEngine(StubModel(), max_active=1)
        blocker = Request("blocker", prompt_tokens=[0], max_new_tokens=10)
        late = Request("late", prompt_tokens=[0], max_new_tokens=2, arrival_step=5)
        early = Request("early", prompt_tokens=[0], max_new_tokens=2, arrival_step=1)
        handles = {r.request_id: sched.submit(r) for r in (blocker, late, early)}
        sched.run()
        early_admit = handles["early"].session.admitted_step
        assert early_admit < handles["late"].session.admitted_step

    def test_arrival_steps_are_honoured(self):
        sched = ServingEngine(StubModel(), max_active=4)
        late = Request("late", prompt_tokens=[1], max_new_tokens=2, arrival_step=5)
        sched.submit(late)
        report = sched.run()
        metrics = report.requests[0]
        assert metrics.admitted_step >= 5
        assert metrics.queue_delay_steps == metrics.admitted_step - 5

    def test_tokens_identical_to_solo_generate(self):
        model = TransformerModel(get_model_config("tiny"), seed=0)
        requests = sample_requests(
            10, vocab_size=model.config.vocab_size, mean_interarrival=1.0, seed=3
        )
        sched = ServingEngine(model, max_active=8)
        handles = sched.submit_many(requests)
        report = sched.run()
        assert report.max_concurrency >= 2
        for request, handle in zip(requests, handles):
            solo = generate(
                model, request.prompt_tokens, max_new_tokens=request.max_new_tokens
            )
            assert handle.generated_tokens == solo.generated_tokens, request.request_id

    def test_eight_concurrent_sessions_multiplex(self):
        sched = ServingEngine(StubModel(), max_active=8)
        reqs = [
            Request(f"r{i}", prompt_tokens=[i % 8], max_new_tokens=6) for i in range(8)
        ]
        sched.submit_many(reqs)
        report = sched.run()
        assert report.max_concurrency == 8
        assert len(report.requests) == 8
        assert report.steps == 6  # all eight decode in lockstep
        assert report.throughput_tokens_per_step == pytest.approx(8.0)

    def test_step_values_are_token_lists(self):
        """Speculation off, every step value is still a list of tokens."""
        sched = ServingEngine(StubModel(), max_active=2)
        sched.submit(Request("a", prompt_tokens=[3], max_new_tokens=3))
        sched.submit(Request("b", prompt_tokens=[7], max_new_tokens=2, arrival_step=1))
        assert sched.step() == {"a": [4]}
        assert sched.step() == {"a": [5], "b": [8]}
        assert sched.step() == {"a": [6], "b": [9]}
        assert not sched.has_work

    def test_report_summary_and_percentiles(self):
        sched = ServingEngine(StubModel(), max_active=2)
        sched.submit_many(
            Request(f"r{i}", prompt_tokens=[0], max_new_tokens=3) for i in range(4)
        )
        report = sched.run()
        summary = report.summary()
        assert "throughput" in summary and "r0" in summary
        assert report.latency_percentile(95) >= report.latency_percentile(50)
        assert report.mean_queue_delay_steps >= 0.0

    def test_run_reports_truncated_when_not_drained(self):
        sched = ServingEngine(StubModel(), max_active=1)
        sched.submit(Request("r0", prompt_tokens=[0], max_new_tokens=50))
        report = sched.run(max_steps=3)
        assert report.truncated
        assert report.leftover_active == 1
        assert report.steps == 3

    def test_rejects_bad_max_active(self):
        with pytest.raises(ValueError):
            ServingEngine(StubModel(), max_active=0)

    def test_rejects_duplicate_request_ids(self):
        sched = ServingEngine(StubModel())
        sched.submit(Request("dup", prompt_tokens=[0], max_new_tokens=1))
        with pytest.raises(ValueError, match="duplicate request_id"):
            sched.submit(Request("dup", prompt_tokens=[1], max_new_tokens=1))


class TestTraffic:
    def test_poisson_arrivals_monotone_and_seeded(self):
        a = poisson_arrival_steps(20, 2.0, seed=1)
        b = poisson_arrival_steps(20, 2.0, seed=1)
        assert np.array_equal(a, b)
        assert (np.diff(a) >= 0).all()
        assert poisson_arrival_steps(5, 0.0).tolist() == [0] * 5

    def test_sample_requests_reproducible_and_bounded(self):
        reqs = sample_requests(12, vocab_size=64, seed=9, max_prompt_len=16)
        again = sample_requests(12, vocab_size=64, seed=9, max_prompt_len=16)
        for r1, r2 in zip(reqs, again):
            assert r1.prompt_tokens == r2.prompt_tokens
            assert r1.arrival_step == r2.arrival_step
        for r in reqs:
            assert 1 <= len(r.prompt_tokens) <= 16
            assert max(r.prompt_tokens) < 64
            assert r.max_new_tokens >= 1

    def test_sample_requests_validation(self):
        with pytest.raises(KeyError):
            sample_requests(2, vocab_size=8, tasks=["NoSuchTask"])
        with pytest.raises(ValueError, match="tasks must not be empty"):
            sample_requests(2, vocab_size=8, tasks=[])
        with pytest.raises(ValueError):
            sample_requests(0, vocab_size=8)
        with pytest.raises(ValueError):
            poisson_arrival_steps(3, -1.0)


class TestServingBreakdown:
    def test_unshared_matches_default_components(self):
        from repro.eval import latency_components

        base = latency_components("Llama7B", 2048)
        shared1 = latency_components("Llama7B", 2048, shared_sessions=1)
        for key, value in base.items():
            assert shared1[key] == pytest.approx(value)
        with pytest.raises(ValueError):
            latency_components("Llama7B", 2048, shared_sessions=0)

    def test_weight_load_shrinks_with_sharing(self):
        from repro.eval import serving_breakdown_vs_sessions

        rows = serving_breakdown_vs_sessions(session_counts=(1, 4, 16))
        weights = [row["weight_load"] for row in rows]
        assert weights == sorted(weights, reverse=True)
        speedups = [row["speedup"] for row in rows]
        assert speedups == sorted(speedups)
        assert speedups[0] == pytest.approx(1.0)

    def test_speedup_baseline_is_unshared_even_without_count_one(self):
        from repro.eval import serving_breakdown_vs_sessions

        with_one = serving_breakdown_vs_sessions(session_counts=(1, 8))
        without_one = serving_breakdown_vs_sessions(session_counts=(8,))
        assert without_one[0]["speedup"] == pytest.approx(with_one[1]["speedup"])
        assert without_one[0]["speedup"] > 1.0
