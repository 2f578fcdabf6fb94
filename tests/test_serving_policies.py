"""Tests for the policy-driven serving API (repro.serve.policies + engine).

Covers the `ServingEngine` facade (handles, callbacks, cancellation), the
shipped admission/scheduling policies (ordering, preemption, arena-budget
queueing), the preempt/resume session state machine, and the new traffic
generators.
"""

import dataclasses

import numpy as np
import pytest

from repro.model import (
    QuantizedTransformer,
    TransformerModel,
    generate,
    get_model_config,
)
from repro.serve import (
    ArenaBudgetAdmission,
    DeadlineAdmission,
    FIFOAdmission,
    PagedKVArena,
    PriorityAdmission,
    Request,
    ServingEngine,
    ServingReport,
    SessionState,
    make_policies,
)
from repro.serve.session import GenerationSession
from session_steps import admit, decode, resume
from repro.workloads import (
    lognormal_arrival_steps,
    pareto_arrival_steps,
    sample_priorities,
    sample_requests,
    trace_arrival_steps,
)


class StubModel:
    """Deterministic O(1) stand-in: next token = last + 1 (mod vocab)."""

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


@pytest.fixture(scope="module")
def model():
    return QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )


# -- session state machine -----------------------------------------------------


class TestPreemptResume:
    def test_preempt_resume_continues_exactly(self):
        session = GenerationSession(
            Request("r", prompt_tokens=[3], max_new_tokens=6), StubModel()
        )
        assert admit(session, 0) == 4
        assert decode(session, 1) == 5
        session.preempt(step=2)
        assert session.state is SessionState.PREEMPTED
        assert session.decoder is None
        assert session.preemptions == 1
        assert resume(session, 5) == 6  # re-prefill emits the next token
        assert decode(session, 6) == 7
        assert session.generated_tokens == [4, 5, 6, 7]

    def test_preemption_work_stays_in_traffic_counters(self):
        def run(preempt: bool) -> GenerationSession:
            session = GenerationSession(
                Request("r", prompt_tokens=[0, 1], max_new_tokens=4), StubModel()
            )
            admit(session, 0)
            decode(session, 1)
            if preempt:
                session.preempt(step=2)
                resume(session, 3)
            else:
                decode(session, 2)
            while not session.is_finished:
                decode(session, 4)
            return session

        plain, preempted = run(False), run(True)
        assert preempted.generated_tokens == plain.generated_tokens
        # the resume re-prefill re-attends the whole prefix: strictly more work
        assert preempted.keys_total > plain.keys_total

    def test_state_guards(self):
        session = GenerationSession(
            Request("r", prompt_tokens=[0], max_new_tokens=4), StubModel()
        )
        with pytest.raises(RuntimeError):
            session.preempt(step=0)  # queued, not active
        with pytest.raises(RuntimeError):
            resume(session, 0)  # not preempted
        admit(session, 0)
        session.preempt(step=1)
        with pytest.raises(RuntimeError):
            decode(session, 1)  # preempted sessions do not decode
        session.cancel()
        assert session.state is SessionState.CANCELLED
        with pytest.raises(RuntimeError):
            session.cancel()  # terminal
        with pytest.raises(RuntimeError):
            resume(session, 2)  # cancelled stays cancelled

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request("bad", prompt_tokens=[1], deadline_steps=0)
        assert Request("ok", prompt_tokens=[1], deadline_steps=3,
                       arrival_step=2).deadline_step == 5
        assert Request("ok2", prompt_tokens=[1]).deadline_step is None


# -- engine facade -------------------------------------------------------------


class TestServingEngineFacade:
    def test_handles_and_streaming_callbacks(self):
        engine = ServingEngine(StubModel(), max_active=2)
        streamed, completed = [], []
        handle = engine.submit(
            Request("r0", prompt_tokens=[4], max_new_tokens=3),
            on_token=lambda h, tok, step: streamed.append((h.request_id, tok, step)),
            on_complete=lambda h, m: completed.append(m),
        )
        assert handle.request_id == "r0"
        assert not handle.done
        report = engine.run()
        assert handle.done and handle.state is SessionState.FINISHED
        assert [tok for _, tok, _ in streamed] == handle.generated_tokens == [5, 6, 7]
        assert [s for _, _, s in streamed] == [0, 1, 2]
        assert len(completed) == 1
        assert completed[0] == handle.metrics() == report.requests[0]

    def test_cancel_queued_request_never_serves(self):
        engine = ServingEngine(StubModel(), max_active=1)
        keep = engine.submit(Request("keep", prompt_tokens=[0], max_new_tokens=2))
        drop = engine.submit(
            Request("drop", prompt_tokens=[0], max_new_tokens=2, arrival_step=4)
        )
        assert engine.cancel(drop) is True
        assert engine.cancel(drop) is False  # already terminal
        report = engine.run()
        assert [r.request_id for r in report.requests] == ["keep"]
        assert report.policy["cancelled"] == 1
        assert drop.generated_tokens == []
        assert drop.done and drop.state is SessionState.CANCELLED
        assert keep.done

    def test_cancel_active_request_frees_slot(self, model):
        engine = ServingEngine(model, max_active=1)
        long = engine.submit(Request("long", prompt_tokens=[1, 2], max_new_tokens=30))
        short = engine.submit(Request("short", prompt_tokens=[3], max_new_tokens=2))
        engine.step()
        assert long.state is SessionState.ACTIVE
        assert engine.cancel(long) is True
        assert engine.n_active == 0
        report = engine.run()
        assert [r.request_id for r in report.requests] == ["short"]
        assert engine.arena.stats.pages_in_use == 0  # cancelled pages returned
        assert engine.cancel(short) is False  # finished: nothing to cancel

    def test_cancel_preempted_request(self):
        admission, scheduling = make_policies("priority")
        engine = ServingEngine(
            StubModel(), max_active=1, admission=admission, scheduling=scheduling
        )
        low = engine.submit(Request("low", prompt_tokens=[0], max_new_tokens=9))
        high = engine.submit(
            Request("high", prompt_tokens=[4], max_new_tokens=2,
                    arrival_step=1, priority=5)
        )
        engine.step()
        engine.step()  # high arrives, low is preempted
        assert low.state is SessionState.PREEMPTED
        assert engine.cancel(low) is True
        report = engine.run()
        assert [r.request_id for r in report.requests] == ["high"]
        assert report.policy["cancelled"] == 1
        assert high.generated_tokens == [5, 6]

    def test_rejects_duplicate_request_ids(self):
        engine = ServingEngine(StubModel())
        engine.submit(Request("dup", prompt_tokens=[0], max_new_tokens=1))
        with pytest.raises(ValueError, match="duplicate request_id"):
            engine.submit(Request("dup", prompt_tokens=[1], max_new_tokens=1))

    def test_run_reports_truncated_when_not_drained(self):
        engine = ServingEngine(StubModel(), max_active=1)
        engine.submit(Request("r0", prompt_tokens=[0], max_new_tokens=50))
        report = engine.run(max_steps=3)
        assert report.truncated
        assert report.leftover_queued == 0
        assert report.leftover_active == 1
        # round-trips both ways: new payloads keep the flag, old ones default
        assert ServingReport.from_json(report.to_json()).truncated
        legacy = report.to_json()
        for key in ("truncated", "leftover_queued", "leftover_active"):
            legacy.pop(key)
        assert ServingReport.from_json(legacy).truncated is False


# -- admission policies --------------------------------------------------------


class TestAdmissionPolicies:
    def test_priority_admission_reorders_queue(self):
        engine = ServingEngine(
            StubModel(), max_active=1, admission=PriorityAdmission()
        )
        blocker = engine.submit(
            Request("blocker", prompt_tokens=[0], max_new_tokens=4)
        )
        low = engine.submit(
            Request("low", prompt_tokens=[0], max_new_tokens=2, arrival_step=1)
        )
        high = engine.submit(
            Request("high", prompt_tokens=[0], max_new_tokens=2,
                    arrival_step=2, priority=1)
        )
        report = engine.run()
        admits = {r.request_id: r.admitted_step for r in report.requests}
        # the later-arriving high-priority request takes the next free slot
        assert admits["high"] < admits["low"]
        assert blocker.metrics().admitted_step == 0

    def test_deadline_admission_orders_by_absolute_deadline(self):
        engine = ServingEngine(
            StubModel(), max_active=1, admission=DeadlineAdmission()
        )
        engine.submit(Request("blocker", prompt_tokens=[0], max_new_tokens=4))
        engine.submit(
            Request("loose", prompt_tokens=[0], max_new_tokens=2,
                    arrival_step=1, deadline_steps=50)
        )
        engine.submit(
            Request("none", prompt_tokens=[0], max_new_tokens=2, arrival_step=1)
        )
        engine.submit(
            Request("tight", prompt_tokens=[0], max_new_tokens=2,
                    arrival_step=2, deadline_steps=9)
        )
        report = engine.run()
        admits = {r.request_id: r.admitted_step for r in report.requests}
        assert admits["tight"] < admits["loose"] < admits["none"]

    def test_arena_budget_admission_queues_instead_of_growing(self, model):
        config = model.config
        arena = PagedKVArena(
            config.n_layers, config.hidden_size, page_size=4,
            initial_pages=8, max_pages=8,
        )
        engine = ServingEngine(
            model, max_active=4, arena=arena,
            admission=ArenaBudgetAdmission(),
        )
        # each request needs 3 pages for its lifetime (9+2=11 rows): only two
        # fit inside the 8-page budget concurrently, the rest must queue
        requests = [
            Request(f"q{i}", prompt_tokens=[i + 1] * 9, max_new_tokens=3)
            for i in range(5)
        ]
        handles = engine.submit_many(requests)
        report = engine.run()
        assert arena.stats.pool_grows == 0
        assert arena.n_pages == 8
        assert arena.stats.peak_pages_in_use <= 8
        assert report.max_concurrency == 2  # budget, not slots, was the cap
        assert len(report.requests) == 5
        # queueing must not change content
        reference = ServingEngine(model, max_active=4)
        ref_handles = reference.submit_many(requests)
        reference.run()
        assert [h.generated_tokens for h in handles] == [
            h.generated_tokens for h in ref_handles
        ]

    def test_arena_budget_watermark_lowers_the_cap(self, model):
        config = model.config
        arena = PagedKVArena(
            config.n_layers, config.hidden_size, page_size=4,
            initial_pages=8, max_pages=8,
        )
        engine = ServingEngine(
            model, max_active=4, arena=arena,
            admission=ArenaBudgetAdmission(watermark=0.5),
        )
        engine.submit_many(
            Request(f"w{i}", prompt_tokens=[i + 1] * 9, max_new_tokens=3)
            for i in range(3)
        )
        report = engine.run()
        assert report.max_concurrency == 1  # 4-page watermark: one at a time
        assert arena.stats.peak_pages_in_use <= 4

    def test_arena_budget_forced_progress_on_idle_engine(self, model):
        config = model.config
        arena = PagedKVArena(
            config.n_layers, config.hidden_size, page_size=4,
            initial_pages=8, max_pages=8,
        )
        engine = ServingEngine(
            model, max_active=2, arena=arena,
            admission=ArenaBudgetAdmission(watermark=0.5),
        )
        # needs 6 pages > the 4-page watermark; an idle engine admits it
        # anyway rather than deadlocking the queue (max_pages still holds it)
        engine.submit(Request("huge", prompt_tokens=[1] * 20, max_new_tokens=4))
        report = engine.run()
        assert len(report.requests) == 1
        assert arena.stats.peak_pages_in_use == 6

    def test_never_fitting_request_rejected_at_submit(self, model):
        """A lifetime over max_pages raises at submit, not mid-run.

        Without the submit-time check the request waits until the engine
        idles, is force-admitted, and crashes the whole run with an
        'arena exhausted' RuntimeError halfway through its prefill.
        """
        engine = ServingEngine(
            model, max_active=2, page_size=4, max_pages=8,
            admission=ArenaBudgetAdmission(),
        )
        with pytest.raises(ValueError, match="can never be admitted"):
            engine.submit(
                Request("huge", prompt_tokens=[1] * 40, max_new_tokens=10)
            )
        # the rejected request leaves no trace: the id is reusable and the
        # engine still serves a feasible stream to completion
        engine.submit(Request("huge", prompt_tokens=[1] * 9, max_new_tokens=3))
        report = engine.run()
        assert len(report.requests) == 1

    def test_engine_builds_bounded_arena(self, model):
        """max_pages threads through to the self-built arena's budget."""
        engine = ServingEngine(
            model, max_active=4, page_size=4, max_pages=8,
            admission=ArenaBudgetAdmission(),
        )
        assert engine.arena is not None and engine.arena.max_pages == 8
        assert engine.arena.n_pages <= 8  # initial allocation respects it
        engine.submit_many(
            Request(f"b{i}", prompt_tokens=[i + 1] * 9, max_new_tokens=3)
            for i in range(5)
        )
        report = engine.run()
        assert report.max_concurrency == 2  # the 8-page budget caps the batch
        assert engine.arena.stats.pool_grows == 0
        assert len(report.requests) == 5

    def test_arena_budget_delegates_ordering_hooks_to_inner(self):
        """Wrapping a dynamic inner policy must keep it dynamic (and aged)."""
        from repro.serve import AgingPriorityAdmission

        inner = AgingPriorityAdmission(aging_steps=4)
        wrapped = ArenaBudgetAdmission(inner=inner)
        assert wrapped.dynamic
        engine = ServingEngine(StubModel(), max_active=1, admission=wrapped)
        handle = engine.submit(
            Request("r0", prompt_tokens=[0], max_new_tokens=1)
        )
        assert wrapped.admission_key_at(handle, 16) == inner.admission_key_at(
            handle, 16
        )
        assert wrapped.prefill_token_budget(engine) == inner.prefill_token_budget(
            engine
        )

    def test_arena_budget_validation_and_name(self):
        with pytest.raises(ValueError):
            ArenaBudgetAdmission(watermark=0.0)
        with pytest.raises(ValueError):
            ArenaBudgetAdmission(watermark=1.5)
        assert ArenaBudgetAdmission().name == "arena-budget(fifo)"
        inner = PriorityAdmission()
        assert ArenaBudgetAdmission(inner=inner).name == "arena-budget(priority)"

    def test_aging_priority_unstarves_the_patient(self):
        """A low-priority early arrival eventually out-ranks urgent traffic."""
        from repro.serve import AgingPriorityAdmission
        from repro.serve.policies import FCFSPolicy

        model = StubModel()
        engine = ServingEngine(
            model, max_active=1,
            admission=AgingPriorityAdmission(aging_steps=4),
            scheduling=FCFSPolicy(),
        )
        patient = engine.submit(
            Request("patient", prompt_tokens=[0], max_new_tokens=2, priority=0)
        )
        # a steady stream of higher-priority arrivals behind it; with plain
        # PriorityAdmission the patient would wait for every one of them
        vips = [
            engine.submit(
                Request(
                    f"vip{i}", prompt_tokens=[i % 8], max_new_tokens=2,
                    arrival_step=i, priority=1,
                )
            )
            for i in range(6)
        ]
        report = engine.run()
        by_id = {m.request_id: m for m in report.requests}
        # waited >= 4 steps -> effective priority 1 ties the VIPs, and the
        # earlier arrival then wins FIFO within the class
        assert by_id["patient"].first_token_step < max(
            by_id[f"vip{i}"].first_token_step for i in range(6)
        )
        assert all(h.done for h in [patient, *vips])

    def test_aging_policy_is_deterministic_and_orders_by_wait(self):
        from repro.serve import AgingPriorityAdmission

        policy = AgingPriorityAdmission(aging_steps=8)
        with pytest.raises(ValueError):
            AgingPriorityAdmission(aging_steps=0)
        assert policy.dynamic
        engine = ServingEngine(StubModel(), max_active=1,
                               admission=AgingPriorityAdmission(aging_steps=8))
        h0 = engine.submit(Request("a", prompt_tokens=[0], max_new_tokens=1))
        h1 = engine.submit(
            Request("b", prompt_tokens=[1], max_new_tokens=1, priority=2)
        )
        # static classes still rank first before anyone has waited
        assert policy.admission_key_at(h1, 0) < policy.admission_key_at(h0, 0)
        # 16 waited steps boost the priority-0 request past the fresh class-2
        assert policy.admission_key_at(h0, 16) < policy.admission_key_at(h1, 0)

    def test_make_policies_aging_pair(self):
        from repro.serve import AgingPriorityAdmission
        from repro.serve.policies import FCFSPolicy

        admission, scheduling = make_policies("aging")
        assert isinstance(admission, AgingPriorityAdmission)
        assert isinstance(scheduling, FCFSPolicy)
        assert not scheduling.preemptive

    def test_make_policies_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_policies("round-robin")


# -- scheduling policies -------------------------------------------------------


class TestSchedulingPolicies:
    def test_priority_preemption_schedule(self):
        admission, scheduling = make_policies("priority")
        engine = ServingEngine(
            StubModel(), max_active=1, admission=admission, scheduling=scheduling
        )
        low = engine.submit(Request("low", prompt_tokens=[0], max_new_tokens=10))
        high = engine.submit(
            Request("high", prompt_tokens=[4], max_new_tokens=3,
                    arrival_step=2, priority=5)
        )
        report = engine.run()
        m = {r.request_id: r for r in report.requests}
        assert m["high"].admitted_step == 2  # evicted the slot on arrival
        assert m["low"].preemptions == 1
        assert low.generated_tokens == list(range(1, 11))
        assert high.generated_tokens == [5, 6, 7]
        assert report.policy["preemptions"] == 1
        assert report.total_preemptions == 1

    def test_equal_priority_never_preempts(self):
        admission, scheduling = make_policies("priority")
        engine = ServingEngine(
            StubModel(), max_active=1, admission=admission, scheduling=scheduling
        )
        engine.submit(Request("a", prompt_tokens=[0], max_new_tokens=6, priority=2))
        engine.submit(
            Request("b", prompt_tokens=[0], max_new_tokens=2,
                    arrival_step=1, priority=2)
        )
        report = engine.run()
        assert report.total_preemptions == 0

    def test_deadline_policy_counts_misses(self):
        engine = ServingEngine(StubModel(), max_active=1)
        engine.submit(
            Request("slow", prompt_tokens=[0], max_new_tokens=8, deadline_steps=3)
        )
        engine.submit(
            Request("fine", prompt_tokens=[0], max_new_tokens=2,
                    arrival_step=20, deadline_steps=10)
        )
        report = engine.run()
        m = {r.request_id: r for r in report.requests}
        assert m["slow"].deadline_misses == 1
        assert m["fine"].deadline_misses == 0
        assert report.total_deadline_misses == 1
        assert report.policy["deadline_misses"] == 1

    def test_deadline_preemption_prefers_no_deadline_victims(self):
        admission, scheduling = make_policies("deadline")
        engine = ServingEngine(
            StubModel(), max_active=2, admission=admission, scheduling=scheduling
        )
        eng_none = engine.submit(
            Request("none", prompt_tokens=[0], max_new_tokens=12)
        )
        eng_loose = engine.submit(
            Request("loose", prompt_tokens=[0], max_new_tokens=12,
                    deadline_steps=40)
        )
        engine.submit(
            Request("tight", prompt_tokens=[0], max_new_tokens=2,
                    arrival_step=3, deadline_steps=4)
        )
        engine.run()
        # the deadline-free session is evicted, the 40-step one survives
        assert eng_none.preemptions == 1
        assert eng_loose.preemptions == 0

    def test_refused_admission_rolls_back_eviction(self, model):
        """A victim is only preempted if its evicted capacity is used.

        ArenaBudgetAdmission + PriorityPolicy: the high-priority candidate's
        lifetime reservation exceeds the arena budget even after eviction, so
        admission refuses it -- the selected victim must keep its slot and KV
        (no discarded work, no idle slot) until capacity genuinely frees up.
        """
        config = model.config
        arena = PagedKVArena(
            config.n_layers, config.hidden_size, page_size=4,
            initial_pages=16, max_pages=16,
        )
        admission = ArenaBudgetAdmission(inner=PriorityAdmission())
        _, scheduling = make_policies("priority")
        engine = ServingEngine(
            model, max_active=2, arena=arena,
            admission=admission, scheduling=scheduling,
        )
        # two low-priority sessions, 4 pages lifetime each (8 reserved)
        lows = engine.submit_many(
            Request(f"low{i}", prompt_tokens=[i + 1] * 10, max_new_tokens=6)
            for i in range(2)
        )
        # high-priority arrival needing 13 pages: 4 (surviving low) + 13 > 16,
        # so even one eviction cannot make it admissible
        huge = engine.submit(
            Request("huge", prompt_tokens=[9] * 44, max_new_tokens=9,
                    arrival_step=1, priority=5)
        )
        engine.step()
        engine.step()  # the huge request is ready; eviction must roll back
        assert engine.last_step_stats["preempted"] == 0
        assert all(h.state is SessionState.ACTIVE for h in lows)
        assert all(h.preemptions == 0 for h in lows)
        assert huge.state is SessionState.QUEUED
        report = engine.run()
        assert len(report.requests) == 3  # everyone finishes eventually
        assert report.total_preemptions == 0  # rollback every contended step
        assert arena.stats.pool_grows == 0 and arena.stats.pages_in_use == 0

    def test_policies_reorder_service_not_content(self, model):
        requests = sample_requests(
            10,
            vocab_size=model.config.vocab_size,
            mean_interarrival=0.3,
            arrival_process="pareto",
            priority_levels=(0, 1, 2),
            deadline_slack=(1, 6),
            seed=5,
        )
        outcomes = {}
        for name in ("fcfs", "priority", "deadline"):
            admission, scheduling = make_policies(name)
            engine = ServingEngine(
                model, max_active=2, admission=admission, scheduling=scheduling
            )
            handles = engine.submit_many(requests)
            engine.run()
            outcomes[name] = [h.generated_tokens for h in handles]
        assert outcomes["fcfs"] == outcomes["priority"] == outcomes["deadline"]
        solo = [
            generate(model, r.prompt_tokens, max_new_tokens=r.max_new_tokens)
            for r in requests
        ]
        assert outcomes["fcfs"] == [g.generated_tokens for g in solo]


# -- traffic generators --------------------------------------------------------


class TestTrafficGenerators:
    def test_pareto_arrivals_reproducible_and_heavy_tailed(self):
        a = pareto_arrival_steps(200, 2.0, shape=1.5, seed=3)
        b = pareto_arrival_steps(200, 2.0, shape=1.5, seed=3)
        assert np.array_equal(a, b)
        assert (np.diff(a) >= 0).all()
        gaps = np.diff(a)
        # heavy tail: the max gap dwarfs the median gap
        assert gaps.max() >= 10 * max(1, int(np.median(gaps)))
        with pytest.raises(ValueError):
            pareto_arrival_steps(5, 1.0, shape=1.0)
        assert pareto_arrival_steps(4, 0.0).tolist() == [0] * 4

    def test_lognormal_arrivals_mean_roughly_matches(self):
        a = lognormal_arrival_steps(4000, 3.0, sigma=1.0, seed=1)
        assert (np.diff(a) >= 0).all()
        mean_gap = a[-1] / len(a)
        assert 2.0 < mean_gap < 4.0
        with pytest.raises(ValueError):
            lognormal_arrival_steps(5, 1.0, sigma=-1.0)

    def test_trace_replay_validates_and_floors(self):
        assert trace_arrival_steps([0.0, 1.9, 3.2]).tolist() == [0, 1, 3]
        with pytest.raises(ValueError):
            trace_arrival_steps([2.0, 1.0])
        with pytest.raises(ValueError):
            trace_arrival_steps([-1.0])

    def test_sample_priorities_weighted(self):
        p = sample_priorities(2000, levels=(0, 2), weights=(0.8, 0.2), seed=0)
        assert set(p.tolist()) == {0, 2}
        high_frac = float((p == 2).mean())
        assert 0.15 < high_frac < 0.25
        with pytest.raises(ValueError):
            sample_priorities(4, levels=())
        with pytest.raises(ValueError):
            sample_priorities(4, levels=(0, 1), weights=(1.0,))

    def test_sample_requests_with_priorities_and_deadlines(self):
        requests = sample_requests(
            16,
            vocab_size=32,
            arrival_process="lognormal",
            priority_levels=(0, 1),
            priority_weights=(0.5, 0.5),
            deadline_slack=(2, 5),
            seed=7,
        )
        assert any(r.priority == 1 for r in requests)
        for r in requests:
            assert r.deadline_steps is not None
            assert r.max_new_tokens + 2 <= r.deadline_steps <= r.max_new_tokens + 5

    def test_sample_requests_trace_replay(self):
        trace = [0, 0, 2, 5]
        requests = sample_requests(
            4, vocab_size=32, arrival_process="trace", arrival_trace=trace, seed=1
        )
        assert [r.arrival_step for r in requests] == trace
        with pytest.raises(ValueError):
            sample_requests(3, vocab_size=32, arrival_process="trace",
                            arrival_trace=trace)
        with pytest.raises(ValueError):
            sample_requests(3, vocab_size=32, arrival_process="trace")

    def test_default_draws_unchanged_by_new_knobs(self):
        """The pre-policy streams must stay byte-identical for old seeds."""
        old = sample_requests(8, vocab_size=64, seed=9)
        new = sample_requests(8, vocab_size=64, seed=9, arrival_process="poisson")
        for a, b in zip(old, new):
            assert a == b
            assert a.priority == 0 and a.deadline_steps is None

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            sample_requests(4, vocab_size=8, arrival_process="weibull")
