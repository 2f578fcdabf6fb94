"""KV snapshot preemption + int8 KV pages: restores are invisible, books balance.

Four layers of pinning for the PR-8 capacity levers:

* ``TestSnapshotArena`` -- arena-level unit tests of
  ``snapshot_session``/``restore_session``/``discard_snapshot``: bit-exact
  page roundtrips in both pool dtypes, reference transfer for shared prefix
  pages (pinned, never copied), the empty-session restore precondition,
  idempotent discard, the refcount conservation law
  ``page_faults - pages_freed == pages_in_use + cached_idle_pages``, and the
  ~8x int8 snapshot shrink.
* ``TestSessionSnapshot`` -- session-level: a snapshot preempt/restore cycle
  emits tokens *and* attention metrics bit-identical to a solo
  ``generate()`` (no replay traffic -- the decoder is kept, nothing is
  recomputed), restores append zero tokens to the arena, and every
  non-resume exit (cancel / finalize / re-prefill resume / release) drains the
  snapshot's pinned pages.
* ``TestSnapshotEngineFuzz`` -- hypothesis fuzz over preemption-heavy traces
  under the priority/deadline preemptive policies x prefix cache on/off:
  ``kv_snapshots=True`` must match solo references bit-exactly in tokens and
  metrics, with strictly fewer KV appends than the re-prefill engine and
  fully drained books (random mid-trace cancels included).  int8 mode must
  be self-consistent (snapshots invisible) and its reservation books must
  balance under ``ArenaBudgetAdmission`` with a tight ``max_pages``.
* Satellite regressions -- ``cancel()`` stamps ``finished_step`` (cancelled
  requests have a defined latency), preempting a ``PREFILLING`` session
  holding ``acquire_prefix`` pages decrements shared refcounts instead of
  freeing the pages, ``retry()`` from ``QUEUED`` stays legal, corrupted-KV
  retries take the re-prefill path while trusted ``arena.alloc`` retries
  snapshot, and the int8 accuracy gate documents the fp-agreement tolerance
  at the tiny model scale.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    QuantizedTransformer,
    TransformerModel,
    generate,
    get_model_config,
)
from repro.serve import (
    ArenaBudgetAdmission,
    FaultPlan,
    FaultSpec,
    KVDtype,
    KVSnapshot,
    PagedKVArena,
    Request,
    ServingEngine,
    SessionState,
    make_policies,
)
from repro.serve.session import GenerationSession
from session_steps import admit, decode, resume

FUZZ = settings(max_examples=10, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def model():
    return QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )


def _assert_books_balanced(arena, drained: bool = True):
    s = arena.stats
    assert s.page_faults - s.pages_freed == s.pages_in_use + s.cached_idle_pages
    if drained:
        assert s.pages_in_use == 0


def _solo_reference(model, request):
    return generate(
        model,
        request.prompt_tokens,
        max_new_tokens=request.max_new_tokens,
        eos_token=request.eos_token,
    )


def _solo_keys(result):
    attended = result.prefill_stats.keys_attended + sum(
        s.keys_attended for s in result.decode_stats
    )
    total = result.prefill_stats.keys_total + sum(
        s.keys_total for s in result.decode_stats
    )
    return attended, total


class TestSnapshotArena:
    @pytest.mark.parametrize("kv_dtype", [None, "int8"])
    def test_roundtrip_is_bit_exact_and_frees_pages(self, kv_dtype):
        arena = PagedKVArena(
            n_layers=2, page_size=4, hidden_size=8, kv_dtype=kv_dtype
        )
        rng = np.random.default_rng(0)
        sid = arena.create_session()
        k, v = rng.normal(size=(11, 8)), rng.normal(size=(11, 8))
        for layer in range(2):
            arena.append(sid, layer, k + layer, v - layer)
        before = [
            (arena.session_keys(sid, l).copy(), arena.session_values(sid, l).copy())
            for l in range(2)
        ]
        held = arena.stats.pages_in_use

        snap = arena.snapshot_session(sid)
        assert isinstance(snap, KVSnapshot)
        assert arena.stats.pages_in_use == 0  # every owned page freed
        assert arena.seq_len(sid) == 0  # session open but empty
        assert snap.n_pages == snap.pages_copied == 3
        assert snap.pages_referenced == 0
        assert arena.stats.snapshots_taken == 1
        assert arena.stats.snapshot_bytes == snap.nbytes > 0

        appended_before = arena.stats.tokens_appended
        arena.restore_session(sid, snap)
        assert arena.stats.tokens_appended == appended_before  # no appends
        assert arena.stats.pages_in_use == held
        assert arena.stats.snapshots_restored == 1
        for layer in range(2):
            assert np.array_equal(arena.session_keys(sid, layer), before[layer][0])
            assert np.array_equal(arena.session_values(sid, layer), before[layer][1])
        # the restored session keeps appending exactly where it left off
        arena.append(sid, 0, k[:1], v[:1])
        assert arena.seq_len(sid) == 12
        arena.free(sid)
        _assert_books_balanced(arena)

    def test_int8_snapshot_is_eightfold_smaller(self):
        rng = np.random.default_rng(1)
        k, v = rng.normal(size=(16, 8)), rng.normal(size=(16, 8))
        sizes = {}
        for mode in (None, "int8"):
            arena = PagedKVArena(
                n_layers=1, page_size=4, hidden_size=8, kv_dtype=mode
            )
            sid = arena.create_session()
            arena.append(sid, 0, k, v)
            sizes[mode] = arena.snapshot_session(sid).nbytes
        # int8 rows are 1/8 the float64 rows; the per-row scales add a
        # 1/hidden_size overhead on top (here 8 bytes per 64-byte row)
        assert sizes["int8"] <= sizes[None] * (1 / 8 + 1 / 8)
        assert arena.kv_dtype is KVDtype.INT8

    def test_shared_prefix_pages_transfer_by_reference(self):
        arena = PagedKVArena(n_layers=1, page_size=4, hidden_size=8)
        rng = np.random.default_rng(2)
        toks = list(range(8))
        k, v = rng.normal(size=(9, 8)), rng.normal(size=(9, 8))
        owner = arena.create_session()
        arena.append(owner, 0, k[:8], v[:8])
        arena.register_prefix(owner, toks, np.arange(8), np.arange(8) + 1)

        sid = arena.create_session()
        n_reused, _, _ = arena.acquire_prefix(sid, toks)
        assert n_reused == 7  # capped at len(prompt) - 1
        arena.append(sid, 0, k[7:], v[7:])  # COW tail page + one fresh page
        before = arena.session_keys(sid, 0).copy()
        faults_before = arena.stats.page_faults

        snap = arena.snapshot_session(sid)
        # full head page: still indexed + shared with owner -> by reference;
        # the COW'd tail page and the fresh page are owned -> copied out
        assert snap.pages_referenced == 1
        assert snap.pages_copied == 2
        assert snap.referenced_full_pages(arena.page_size) == 1
        # the referenced page stays resident (pinned by the snapshot), so a
        # third session can still hit the prefix while the victim waits
        probe = arena.create_session()
        hit, _, _ = arena.acquire_prefix(probe, toks)
        assert hit == 7
        arena.free(probe)

        copied = snap.pages_copied  # restore consumes the snapshot
        arena.restore_session(sid, snap)
        assert arena.stats.page_faults == faults_before + copied
        assert np.array_equal(arena.session_keys(sid, 0), before)
        arena.free(sid)
        arena.free(owner)
        _assert_books_balanced(arena)

    def test_restore_requires_an_empty_session(self):
        arena = PagedKVArena(n_layers=1, page_size=4, hidden_size=8)
        sid = arena.create_session()
        arena.append(sid, 0, np.ones((2, 8)), np.ones((2, 8)))
        snap = arena.snapshot_session(sid)
        arena.restore_session(sid, snap)
        with pytest.raises(RuntimeError, match="empty session"):
            arena.restore_session(sid, KVSnapshot(lengths=np.zeros(1, np.int64)))
        arena.free(sid)
        _assert_books_balanced(arena)

    def test_discard_releases_references_idempotently(self):
        arena = PagedKVArena(n_layers=1, page_size=4, hidden_size=8)
        rng = np.random.default_rng(3)
        toks = list(range(4))
        owner = arena.create_session()
        arena.append(owner, 0, rng.normal(size=(5, 8)), rng.normal(size=(5, 8)))
        arena.register_prefix(
            owner, toks + [9], np.arange(5), np.arange(5) + 1
        )
        arena.free(owner)
        sid = arena.create_session()
        arena.acquire_prefix(sid, toks + [9])
        snap = arena.snapshot_session(sid)
        assert snap.pages_referenced == 1
        arena.discard_snapshot(snap)
        arena.discard_snapshot(snap)  # second discard is a no-op
        assert snap.entries == []
        arena.free(sid)
        # the registered page parks idle-cached exactly once
        assert arena.stats.cached_idle_pages == 1
        _assert_books_balanced(arena, drained=False)
        assert arena.stats.pages_in_use == 0

    def test_int8_rows_are_a_pure_function_of_the_appended_row(self):
        """Chunked appends quantise identically to one-shot appends."""
        rng = np.random.default_rng(4)
        k, v = rng.normal(size=(10, 8)), rng.normal(size=(10, 8))
        readings = []
        for splits in ([10], [3, 4, 3], [1] * 10):
            arena = PagedKVArena(
                n_layers=1, page_size=4, hidden_size=8, kv_dtype=KVDtype.INT8
            )
            sid = arena.create_session()
            start = 0
            for n in splits:
                arena.append(sid, 0, k[start : start + n], v[start : start + n])
                start += n
            readings.append(arena.session_keys(sid, 0).copy())
        assert np.array_equal(readings[0], readings[1])
        assert np.array_equal(readings[0], readings[2])


class TestSessionSnapshot:
    def _session(self, model, arena, rid="r", prompt_len=12, new=8, **kw):
        rng = np.random.default_rng(sum(map(ord, rid)))
        prompt = [int(t) for t in rng.integers(0, 50, size=prompt_len)]
        request = Request(rid, prompt, max_new_tokens=new)
        return request, GenerationSession(request, model, arena=arena, **kw)

    def _arena(self, model, **kw):
        cfg = model.config
        return PagedKVArena(
            n_layers=cfg.n_layers,
            page_size=4,
            hidden_size=cfg.hidden_size,
            **kw,
        )

    @pytest.mark.parametrize("kv_dtype", [None, "int8"])
    def test_preempt_restore_matches_solo_exactly(self, model, kv_dtype):
        arena = self._arena(model, kv_dtype=kv_dtype)
        request, session = self._session(model, arena)
        admit(session, 0)
        step = 1
        for _ in range(2):
            decode(session, step)
            step += 1
        appended = arena.stats.tokens_appended
        session.preempt(step, snapshot=True)
        assert session.state is SessionState.PREEMPTED
        assert session.has_snapshot
        assert session.decoder is not None  # kept: nothing to recompute
        assert arena.stats.pages_in_use == 0

        assert session.resume_from_snapshot(step) is SessionState.ACTIVE
        assert arena.stats.tokens_appended == appended  # zero re-prefill
        while session.state is SessionState.ACTIVE:
            decode(session, step)
            step += 1

        solo = _solo_reference(model, request)
        if kv_dtype is None:
            assert session.generated_tokens == solo.generated_tokens
        att, tot = _solo_keys(solo)
        if kv_dtype is None:
            # metrics too: the snapshot resume recomputed nothing
            assert (session.keys_attended, session.keys_total) == (att, tot)
        session.release_kv()
        _assert_books_balanced(arena)
        assert arena.stats.snapshots_taken == arena.stats.snapshots_restored == 1

    def test_mid_prefill_snapshot_keeps_chunk_progress(self, model):
        arena = self._arena(model)
        request, session = self._session(model, arena, prompt_len=10)
        session.begin_admit(step=0)
        GenerationSession.prefill_step_batch([session], [4], [], 0)
        assert session.decoder.prefill_remaining == 6
        session.preempt(1, snapshot=True)
        assert session.resume_from_snapshot(2) is SessionState.PREFILLING
        assert session.decoder.prefill_remaining == 6  # progress survived
        emitted = GenerationSession.prefill_step_batch([session], [6], [], 2)
        assert session.state is SessionState.ACTIVE
        step = 3
        while session.state is SessionState.ACTIVE:
            decode(session, step)
            step += 1
        solo = _solo_reference(model, request)
        assert session.generated_tokens == solo.generated_tokens
        assert (session.keys_attended, session.keys_total) == _solo_keys(solo)
        session.release_kv()
        _assert_books_balanced(arena)

    def test_every_terminal_exit_drains_the_snapshot(self, model):
        for exit_via in ("cancel", "finalize", "release", "reprefill_resume"):
            arena = self._arena(model)
            _, session = self._session(model, arena, rid=f"x-{exit_via}")
            admit(session, 0)
            session.preempt(1, snapshot=True)
            assert session.has_snapshot
            if exit_via == "cancel":
                session.cancel(2)
            elif exit_via == "finalize":
                session.finalize(SessionState.FAILED, 2)
            elif exit_via == "release":
                session.release_kv()
            else:
                # a re-prefill resume must abandon the snapshot cleanly and
                # fall back to re-prefill without leaking pinned pages
                resume(session, 2)
                session.release_kv()
            assert not session.has_snapshot
            _assert_books_balanced(arena)

    def test_trusted_retry_snapshots_untrusted_retry_does_not(self, model):
        arena = self._arena(model)
        _, session = self._session(model, arena, rid="trust")
        admit(session, 0)
        session.retry(1, snapshot=True)  # trusted: pre-forward fault
        assert session.has_snapshot and session.retries == 1
        # a second trusted retry while waiting keeps the same snapshot
        session.retry(2, snapshot=True)
        assert session.has_snapshot and session.retries == 2
        # an untrusted fault discards it and the kept decoder wholesale
        session.retry(3, snapshot=False)
        assert not session.has_snapshot
        assert session.decoder is None
        _assert_books_balanced(arena)


class TestSatelliteRegressions:
    def test_cancel_stamps_finished_step(self, model):
        """Cancelled requests report a latency instead of silently None."""
        engine = ServingEngine(model, max_active=2)
        handle = engine.submit(Request("c0", [1, 2, 3], max_new_tokens=6))
        engine.submit(Request("c1", [4, 5], max_new_tokens=4))
        engine.step()
        engine.step()
        assert engine.cancel(handle)
        metrics = handle.metrics()
        assert metrics.outcome == "cancelled"
        assert metrics.finished_step == 2
        assert metrics.latency_steps == 2
        engine.run()

    def test_direct_cancel_without_step_keeps_legacy_none(self, model):
        _, session = TestSessionSnapshot()._session(
            model, None, rid="legacy-cancel"
        )
        session.cancel()
        assert session.finished_step is None
        assert session.to_metrics().latency_steps is None

    def test_preempting_a_prefilling_prefix_holder_decrements_refcounts(
        self, model
    ):
        """Shared acquire_prefix pages are unshared, not freed, on preempt."""
        cfg = model.config
        arena = PagedKVArena(
            n_layers=cfg.n_layers, page_size=4, hidden_size=cfg.hidden_size
        )
        prompt = list(range(9))
        owner_req = Request("owner", prompt, max_new_tokens=2)
        owner = GenerationSession(owner_req, model, arena=arena, prefix_cache=True)
        admit(owner, 0)  # registers the two full prompt pages

        req = Request("victim", prompt, max_new_tokens=4)
        victim = GenerationSession(req, model, arena=arena, prefix_cache=True)
        victim.begin_admit(step=1)
        assert victim.decoder.prefix_reused_tokens == 8
        for snapshot in (False, True):
            before = arena.stats.pages_freed
            victim.preempt(2, snapshot=snapshot)
            # the owner's view of the shared pages must be untouched
            assert owner.decoder.seq_len == len(prompt) + owner.n_generated - 1
            _assert_books_balanced(arena, drained=False)
            if snapshot and victim.has_snapshot:
                victim.resume_from_snapshot(3)
            else:
                victim.begin_resume(3)
                GenerationSession.prefill_step_batch(
                    [victim], [victim.decoder.prefill_remaining], [], 3
                )
        step = 4
        while victim.state is SessionState.ACTIVE:
            decode(victim, step)
            step += 1
        assert victim.generated_tokens == _solo_reference(model, req).generated_tokens
        victim.release_kv()
        owner.release_kv()
        _assert_books_balanced(arena, drained=False)
        assert arena.stats.pages_in_use == 0

    def test_retry_from_queued_is_still_legal(self, model):
        cfg = model.config
        arena = PagedKVArena(
            n_layers=cfg.n_layers, page_size=4, hidden_size=cfg.hidden_size
        )
        req = Request("q", [1, 2, 3], max_new_tokens=3)
        session = GenerationSession(req, model, arena=arena, prefix_cache=True)
        session.retry(0, snapshot=True)  # QUEUED: no KV to snapshot
        assert session.state is SessionState.PREEMPTED
        assert not session.has_snapshot
        resume(session, 1)
        step = 2
        while session.state is SessionState.ACTIVE:
            decode(session, step)
            step += 1
        assert session.generated_tokens == _solo_reference(model, req).generated_tokens
        session.release_kv()
        _assert_books_balanced(arena)

    def test_corrupted_kv_retries_reprefill_trusted_faults_snapshot(self, model):
        common = dict(max_active=2, kv_snapshots=True, max_retries=3)
        requests = [
            Request("victim", [1, 2, 3, 4, 5], max_new_tokens=5),
            Request("bystander", [6, 7, 8], max_new_tokens=4),
        ]
        # corrupted append: untrusted, must re-prefill (no snapshot taken)
        engine = ServingEngine(
            model,
            faults=FaultPlan(
                specs=(
                    FaultSpec(site="session.append", at_step=1, request_id="victim"),
                )
            ),
            **common,
        )
        handles = engine.submit_many(requests)
        report = engine.run()
        assert report.arena["snapshots_taken"] == 0
        assert report.policy["retries"] == 1
        # trusted schedule-time arena fault: snapshotted, zero re-prefill
        engine2 = ServingEngine(
            model,
            faults=FaultPlan(
                specs=(
                    FaultSpec(site="arena.alloc", at_step=1, request_id="victim"),
                )
            ),
            **common,
        )
        handles2 = engine2.submit_many(requests)
        report2 = engine2.run()
        assert report2.arena["snapshots_taken"] == 1
        assert report2.arena["snapshots_restored"] == 1
        assert report2.policy["retries"] == 1
        # both recoveries are invisible in the token stream
        for h in (*handles, *handles2):
            solo = _solo_reference(model, h.request)
            assert h.generated_tokens == solo.generated_tokens, h.request_id
        # the trusted path recomputed nothing: its metrics equal solo's
        victim2 = next(h for h in handles2 if h.request_id == "victim")
        att, tot = _solo_keys(_solo_reference(model, victim2.request))
        m = victim2.metrics()
        assert (m.keys_attended, m.keys_total) == (att, tot)
        for report_ in (report, report2):
            assert report_.arena["pages_in_use"] == 0

    def test_int8_accuracy_gate(self, model):
        """Documented tolerance: int8 KV at tiny scale tracks fp closely.

        Quantising 64-wide rows to int8 with per-row scales perturbs logits
        enough to flip an occasional argmax at this toy scale; once one
        token flips the streams legitimately diverge.  The gate pins the
        *documented* tolerance -- a majority of requests decode exactly and
        first tokens (pure prefill) always match -- plus hard determinism:
        the same trace always yields the same int8 stream.
        """
        rng = np.random.default_rng(11)
        requests = [
            Request(
                f"a{i}",
                [int(t) for t in rng.integers(0, 50, size=int(rng.integers(4, 24)))],
                max_new_tokens=8,
            )
            for i in range(8)
        ]

        def run():
            engine = ServingEngine(model, max_active=4, kv_dtype="int8")
            handles = engine.submit_many(requests)
            engine.run()
            return {h.request_id: list(h.generated_tokens) for h in handles}

        tokens = run()
        assert tokens == run()  # deterministic
        exact = 0
        for request in requests:
            solo = _solo_reference(model, request).generated_tokens
            got = tokens[request.request_id]
            assert got[0] == solo[0], "first token (prefill argmax) must match"
            exact += got == solo
        assert exact >= len(requests) // 2 + 1


def _sample_snapshot_trace(rng, vocab):
    n = int(rng.integers(3, 9))
    return [
        Request(
            request_id=f"r{i:02d}",
            prompt_tokens=rng.integers(0, vocab, size=int(rng.integers(2, 16))).tolist(),
            max_new_tokens=int(rng.integers(2, 8)),
            arrival_step=int(rng.integers(0, 8)),
            priority=int(rng.integers(0, 3)),
            deadline_steps=(
                int(rng.integers(4, 40)) if rng.random() < 0.5 else None
            ),
        )
        for i in range(n)
    ]


class TestSnapshotEngineFuzz:
    def _run(
        self,
        model,
        requests,
        policy,
        *,
        kv_snapshots,
        prefix_cache=False,
        kv_dtype=None,
        max_active=2,
        cancel_nth=None,
        admission_wrap=None,
        max_pages=None,
    ):
        admission, scheduling = make_policies(policy)
        if admission_wrap is not None:
            admission = admission_wrap(admission)
        engine = ServingEngine(
            model,
            max_active=max_active,
            admission=admission,
            scheduling=scheduling,
            prefix_cache=prefix_cache,
            kv_snapshots=kv_snapshots,
            kv_dtype=kv_dtype,
            page_size=4,
            max_pages=max_pages,
        )
        handles = engine.submit_many(requests)
        cancelled = set()
        if cancel_nth:
            steps = 0
            while engine.has_work and steps < 10_000:
                engine.step()
                steps += 1
                if steps % 3 == 0:
                    idx = steps // 3 - 1
                    if idx < len(handles) and idx % cancel_nth == 0:
                        if engine.cancel(handles[idx]):
                            cancelled.add(handles[idx].request_id)
        report = engine.run()
        return engine, handles, report, cancelled

    @FUZZ
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["priority", "deadline"]),
        st.booleans(),
    )
    def test_fp_snapshots_match_solo_and_reprefill_exactly(
        self, model, seed, policy, prefix_cache
    ):
        rng = np.random.default_rng(seed)
        requests = _sample_snapshot_trace(rng, model.config.vocab_size)
        runs = {
            snap: self._run(
                model,
                requests,
                policy,
                kv_snapshots=snap,
                prefix_cache=prefix_cache,
            )
            for snap in (False, True)
        }
        _, h_off, r_off, _ = runs[False]
        engine, h_on, r_on, _ = runs[True]
        by_id_off = {m.request_id: m for m in r_off.requests}
        for handle, ref_handle in zip(h_on, h_off):
            solo = _solo_reference(model, handle.request)
            assert handle.generated_tokens == solo.generated_tokens
            assert ref_handle.generated_tokens == solo.generated_tokens
            m = handle.metrics()
            # identical step-domain schedule to the re-prefill engine
            ref = by_id_off[m.request_id]
            assert (m.admitted_step, m.first_token_step, m.finished_step) == (
                ref.admitted_step,
                ref.first_token_step,
                ref.finished_step,
            )
            if m.preemptions:
                # snapshot resumes recompute nothing: metrics equal solo's
                att, tot = _solo_keys(solo)
                assert (m.keys_attended, m.keys_total) == (att, tot)
        if r_on.policy["preemptions"]:
            assert (
                r_on.arena["tokens_appended"] < r_off.arena["tokens_appended"]
            )
            assert r_on.arena["snapshots_taken"] >= r_on.policy["preemptions"]
        assert r_on.arena["pages_in_use"] == 0
        _assert_books_balanced(engine.arena)

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_cancels_mid_trace_drain_snapshot_books(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _sample_snapshot_trace(rng, model.config.vocab_size)
        engine, handles, report, cancelled = self._run(
            model,
            requests,
            "priority",
            kv_snapshots=True,
            prefix_cache=True,
            cancel_nth=2,
        )
        for handle in handles:
            if handle.request_id in cancelled:
                assert handle.metrics().finished_step is not None
                continue
            solo = _solo_reference(model, handle.request)
            assert handle.generated_tokens == solo.generated_tokens
        _assert_books_balanced(engine.arena)
        assert engine.arena.stats.pages_in_use == 0

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_int8_snapshots_are_self_consistent(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _sample_snapshot_trace(rng, model.config.vocab_size)
        runs = {
            snap: self._run(
                model, requests, "priority", kv_snapshots=snap, kv_dtype="int8"
            )
            for snap in (False, True)
        }
        _, h_off, _, _ = runs[False]
        engine, h_on, r_on, _ = runs[True]
        for a, b in zip(h_off, h_on):
            # same quantised rows -> same token stream and schedule; only
            # the replay traffic (keys re-attended by re-prefill) differs
            assert a.generated_tokens == b.generated_tokens
            ma, mb = a.metrics(), b.metrics()
            assert (ma.admitted_step, ma.first_token_step, ma.finished_step) == (
                mb.admitted_step,
                mb.first_token_step,
                mb.finished_step,
            )
            assert ma.keys_attended >= mb.keys_attended
        assert r_on.arena["kv_dtype"] == "int8"
        _assert_books_balanced(engine.arena)

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_reservation_books_balance_under_budget_admission(self, model, seed):
        """Satellite 3: snapshot resumes charge the snapshot's page count."""
        rng = np.random.default_rng(seed)
        requests = _sample_snapshot_trace(rng, model.config.vocab_size)
        engine, handles, report, _ = self._run(
            model,
            requests,
            "priority",
            kv_snapshots=True,
            prefix_cache=True,
            admission_wrap=ArenaBudgetAdmission,
            max_pages=64,
        )
        assert not report.truncated  # budget never deadlocks the queue
        for handle in handles:
            assert handle.reserved_pages is None  # every reservation released
            solo = _solo_reference(model, handle.request)
            assert handle.generated_tokens == solo.generated_tokens
        assert engine.arena.stats.peak_pages_in_use <= 64
        _assert_books_balanced(engine.arena)

    def test_snapshot_charge_is_lifetime_minus_referenced(self, model):
        """Unit pin of the _charged_pages snapshot branch."""
        cfg = model.config
        arena = PagedKVArena(
            n_layers=cfg.n_layers,
            page_size=4,
            hidden_size=cfg.hidden_size,
            max_pages=64,
        )
        engine = ServingEngine(
            model,
            max_active=2,
            arena=arena,
            prefix_cache=True,
            kv_snapshots=True,
            admission=ArenaBudgetAdmission(),
        )
        prompt = list(range(9))
        owner = engine.submit(Request("owner", prompt, max_new_tokens=2))
        engine.run()
        victim = engine.submit(
            Request("victim", prompt, max_new_tokens=4, arrival_step=engine.current_step)
        )
        engine.step()
        session = victim.session
        session.preempt(engine.current_step, snapshot=True)
        policy = engine.admission
        lifetime = policy._lifetime_pages(arena, victim)
        charged = policy._charged_pages(arena, victim, engine)
        assert session.kv_snapshot.pages_referenced > 0
        assert charged == lifetime - session.kv_snapshot.pages_referenced
        session.resume_from_snapshot(engine.current_step)
        engine.run()
        assert victim.generated_tokens == _solo_reference(
            model, victim.request
        ).generated_tokens
