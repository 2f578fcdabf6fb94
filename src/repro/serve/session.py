"""Per-request generation sessions for the batched serving engine.

A :class:`Request` describes one user generation job (prompt, decode budget,
arrival time, priority, optional deadline); a :class:`GenerationSession` is
its live server-side state: an
:class:`~repro.model.generation.IncrementalDecoder` holding the request's KV
caches plus lifecycle timestamps and traffic counters.  Sessions are the unit
the serving engine admits, steps, preempts and retires -- many sessions share
one model (and one decoded-plane cache) while each keeps its own cache and
statistics, mirroring how a serving accelerator multiplexes independent
streams over resident weights.

The session lifecycle is a small state machine::

    QUEUED --begin_admit()--> PREFILLING --(last chunk)--> ACTIVE --(budget/EOS)--> FINISHED
                                  ^   |                     |
                                  |   +-- preempt()/retry()-+
                           begin_resume()     v
                                  +------ PREEMPTED

    any non-terminal state --cancel()--> CANCELLED
    any non-terminal state --finalize()--> FAILED | TIMED_OUT | SHED

``FINISHED``, ``CANCELLED``, ``FAILED``, ``TIMED_OUT`` and ``SHED`` are
terminal: the engine resolves every request into exactly one of them, and
:meth:`GenerationSession.to_metrics` works for any of them (``outcome``
names which).  :meth:`retry` is the fault-recovery twin of :meth:`preempt`:
same KV release and ``PREEMPTED`` re-entry (so a resume re-prefills
``prompt + generated`` bit-identically), but counted as a retry rather than
a policy eviction.

Admission enters the **chunked prefill pipeline**: a ``PREFILLING`` session
feeds its prompt to the model in ragged chunks (batched with every other
prefilling and decoding session, one fused pass per engine step) and emits
its first token the step the last chunk lands.  Decoding sessions ride the
same pass as one-row chunks, so :meth:`GenerationSession.prefill_step_batch`
is the one way a session advances.

Preemption is the mechanism behind priority/deadline scheduling policies: a
preempted session -- mid-decode *or* mid-prefill -- *releases its KV
storage* (arena pages return to the shared pool immediately) and snapshots
only its generated tokens; :meth:`begin_resume` re-prefills
``prompt + generated`` through a fresh decoder (through the same chunked
batched pipeline as admissions), so the emitted token stream is identical to
an unpreempted run while the KV budget of the victim is available to more
urgent requests in between.

**Snapshot preemption** (``preempt(step, snapshot=True)``) is the cheap
alternative for arena-backed sessions whose KV is *trusted*: instead of
discarding the pages and re-prefilling O(context) rows on resume, the
arena copies the session's rows into a compact off-arena
:class:`~repro.serve.kv_arena.KVSnapshot` (shared prefix pages are pinned
by reference, not copied) and frees the live pages.  The decoder object is
*kept* -- its chunked-prefill progress, statistics and logits all survive
-- so :meth:`resume_from_snapshot` just faults the pages back in and the
stream continues with **zero** re-prefill forward passes, bit-identical in
both tokens and metrics to an uninterrupted run.  :meth:`retry` accepts the
same flag but only honours it for faults that fired *before* the forward
pass touched the KV (the engine's trusted/untrusted routing); a corrupted
or mid-compute fault always discards the pages and takes the re-prefill
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..model.generation import IncrementalDecoder, KeyPredictor, KVCorruptionError
from .faults import FaultError, SessionComputeFault

__all__ = [
    "Request",
    "RequestMetrics",
    "SessionState",
    "TERMINAL_STATES",
    "GenerationSession",
]

#: Exception types the per-session containment in the batch commit loops
#: catches: injected faults plus the real KV-integrity detector.  Anything
#: else is a genuine bug and must crash loudly, not be quarantined.
_FAULT_TYPES = (FaultError, KVCorruptionError)


@dataclass(frozen=True)
class Request:
    """One generation job submitted to the serving engine.

    ``priority`` orders requests under priority-aware policies (higher wins;
    the default ``0`` keeps plain FIFO streams unchanged).  ``deadline_steps``
    is an optional completion target measured in engine steps *from arrival*;
    deadline-aware policies schedule against it and
    :attr:`RequestMetrics.deadline_misses` records whether it was met.
    ``timeout_steps`` is a *hard* bound on the same clock: a request still
    unfinished after that many steps past arrival is resolved ``TIMED_OUT``
    by the engine (deadlines are advisory and merely counted as missed;
    timeouts terminate).
    """

    request_id: str
    prompt_tokens: Sequence[int]
    max_new_tokens: int = 16
    eos_token: Optional[int] = None
    arrival_step: int = 0
    priority: int = 0
    deadline_steps: Optional[int] = None
    timeout_steps: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.prompt_tokens) == 0:  # len(), not truthiness: arrays are welcome
            raise ValueError(f"request {self.request_id!r} has an empty prompt")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.arrival_step < 0:
            raise ValueError("arrival_step must be >= 0")
        if self.deadline_steps is not None and self.deadline_steps < 1:
            raise ValueError("deadline_steps must be >= 1 when given")
        if self.timeout_steps is not None and self.timeout_steps < 1:
            raise ValueError("timeout_steps must be >= 1 when given")

    @property
    def deadline_step(self) -> Optional[int]:
        """Absolute step by which the request should finish.

        ``None`` when the request has no deadline -- compare through a
        None-aware helper (deadline-free requests usually rank *least*
        urgent, as the shipped deadline policies treat them).
        """
        if self.deadline_steps is None:
            return None
        return self.arrival_step + self.deadline_steps

    @property
    def timeout_step(self) -> Optional[int]:
        """Last step the request may still resolve before timing out.

        ``None`` when the request has no timeout.  The engine reaps a
        non-terminal request at the start of the first step *past* this one,
        mirroring the deadline-miss convention (``finished > deadline``): a
        request finishing exactly at ``timeout_step`` made it.
        """
        if self.timeout_steps is None:
            return None
        return self.arrival_step + self.timeout_steps


class SessionState(Enum):
    QUEUED = "queued"
    PREFILLING = "prefilling"
    ACTIVE = "active"
    PREEMPTED = "preempted"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    SHED = "shed"


#: The five states a request can end in; exactly one per request, ever.
TERMINAL_STATES = frozenset(
    {
        SessionState.FINISHED,
        SessionState.CANCELLED,
        SessionState.FAILED,
        SessionState.TIMED_OUT,
        SessionState.SHED,
    }
)


@dataclass(frozen=True)
class RequestMetrics:
    """Lifecycle and traffic metrics of one completed request.

    The single source of truth for the derived serving metrics; live sessions
    produce one via :meth:`GenerationSession.to_metrics` once finished.
    ``preemptions`` counts how many times the request was evicted and later
    re-prefilled; ``deadline_misses`` is 1 when the request had a deadline and
    finished after it (0 otherwise), so sums over a report count missed SLAs.

    ``queue_steps`` / ``prefill_steps`` split the time-to-first-token into
    its two components: steps spent waiting for a batch slot versus steps
    spent prefilling once admitted (0 when the whole prompt fits the
    admission step's chunk budget; grows under a tight
    ``prefill_token_budget`` or mid-prefill preemption).  They always sum to
    :attr:`time_to_first_token_steps`.  Both default to ``None`` so reports
    written before the split still load (``from_json`` tolerates the missing
    keys) and newer reports degrade cleanly in old readers (unknown keys are
    ignored).

    The failure model (PR 7) generalises the record to every terminal
    outcome: ``outcome`` is one of ``finished`` / ``failed`` / ``timed_out``
    / ``shed`` / ``cancelled``, ``retries`` counts fault-recovery
    re-prefills (the hardened twin of ``preemptions``), and ``failure``
    carries the structured :class:`~repro.serve.faults.FailureInfo` dict of
    a failed request (``None`` otherwise).  A request that never got a slot
    (e.g. shed while queued) has ``admitted_step is None`` -- the derived
    step properties return ``None`` instead of arithmetic on missing
    timestamps -- and all three new fields default to the fault-free values
    so pre-faults reports load (and old readers ignore the new keys).

    Speculative decode (PR 10) adds ``draft_proposed`` / ``draft_accepted``
    (drafter tokens verified / accepted over the request's lifetime) and
    ``spec_steps`` (decode steps that carried at least one draft);
    :attr:`mean_accepted_len` derives the request's mean accepted draft
    length per speculative step.  All three default to zero, so
    speculation-off runs and pre-speculation reports are unchanged.
    """

    request_id: str
    arrival_step: int
    admitted_step: Optional[int]
    first_token_step: Optional[int]
    finished_step: Optional[int]
    n_generated: int
    keys_attended: int
    keys_total: int
    priority: int = 0
    preemptions: int = 0
    deadline_misses: int = 0
    queue_steps: Optional[int] = None
    prefill_steps: Optional[int] = None
    outcome: str = "finished"
    retries: int = 0
    failure: Optional[dict] = None
    draft_proposed: int = 0
    draft_accepted: int = 0
    spec_steps: int = 0

    @property
    def mean_accepted_len(self) -> float:
        """Mean accepted draft tokens per speculative decode step."""
        return self.draft_accepted / self.spec_steps if self.spec_steps else 0.0

    @property
    def queue_delay_steps(self) -> Optional[int]:
        if self.admitted_step is None:
            return None
        return self.admitted_step - self.arrival_step

    @property
    def time_to_first_token_steps(self) -> Optional[int]:
        if self.first_token_step is None:
            return None
        return self.first_token_step - self.arrival_step

    @property
    def latency_steps(self) -> Optional[int]:
        if self.finished_step is None:
            return None
        return self.finished_step - self.arrival_step

    @property
    def attention_density(self) -> float:
        return self.keys_attended / self.keys_total if self.keys_total else 1.0


class GenerationSession:
    """Server-side state of one request: KV caches, tokens and timestamps.

    The token-emission schedule matches :func:`repro.model.generation.generate`
    exactly: the first token comes out of the prefill forward pass, every later
    token out of one decode step, and no trailing forward pass runs once the
    decode budget (or EOS) is reached.  A request served through a session
    therefore produces bit-identical tokens to a solo ``generate()`` call --
    including across :meth:`preempt`/:meth:`begin_resume` cycles, whose re-prefill
    recomputes exactly the prefix an unpreempted run would hold.
    """

    def __init__(
        self,
        request: Request,
        model,
        predictor: Optional[KeyPredictor] = None,
        arena=None,
        prefix_cache: bool = False,
    ) -> None:
        self.request = request
        self.model = model
        self.predictor = predictor
        self.arena = arena
        self.prefix_cache = bool(prefix_cache and arena is not None)
        self.decoder: Optional[IncrementalDecoder] = IncrementalDecoder(
            model, predictor=predictor, arena=arena, prefix_cache=self.prefix_cache
        )
        self.state = SessionState.QUEUED
        self.generated_tokens: List[int] = []
        self.admitted_step: Optional[int] = None
        self.first_token_step: Optional[int] = None
        self.finished_step: Optional[int] = None
        self.preemptions = 0
        self.retries = 0
        # failure machinery: the engine installs its FaultInjector here (None
        # keeps every commit on the unguarded fast path), last_fault holds a
        # quarantined-but-unprocessed fault between the batch commit loop and
        # the engine's retry/fail routing, and failure the final FailureInfo
        # dict of a FAILED session
        self.fault_injector = None
        self.last_fault: Optional[Exception] = None
        self.failure: Optional[dict] = None
        # traffic counters of decoders retired by preemption (the re-prefill
        # work of a resume is real served traffic and must stay visible)
        self._keys_attended_base = 0
        self._keys_total_base = 0
        # snapshot preemption: the off-arena KVSnapshot of a snapshot-preempted
        # session, plus the state (ACTIVE / PREFILLING) to re-enter on restore
        self.kv_snapshot = None
        self._resume_state: Optional[SessionState] = None
        # speculative decode: lifetime draft counters plus the most recent
        # successful (proposed, accepted) pair for the engine's throttle
        self.draft_proposed = 0
        self.draft_accepted = 0
        self.spec_steps = 0
        self.last_spec_outcome: Optional[tuple] = None

    # -- lifecycle -------------------------------------------------------------

    def begin_admit(self, step: int) -> None:
        """Enter the chunked prefill pipeline.

        The session moves to ``PREFILLING`` and holds a batch slot, but no
        forward pass runs yet: the engine feeds its prompt through
        :meth:`prefill_step_batch` in ragged chunks (sharing every step's
        fused pass with the decoding sessions) and the first token is emitted
        the step the final chunk lands -- bit-identical to a one-shot
        prefill.
        """
        if self.state is not SessionState.QUEUED:
            raise RuntimeError(f"session {self.request.request_id!r} already admitted")
        self.state = SessionState.PREFILLING
        self.admitted_step = step
        self.decoder.begin_prefill(self.request.prompt_tokens)

    def begin_resume(self, step: int) -> None:
        """Re-admit a preempted session through the chunked prefill pipeline.

        A fresh decoder is registered with ``prompt + generated`` -- the
        exact prefix an unpreempted run would hold -- and the session
        re-prefills through the same batched chunk path as new admissions,
        so every token emitted after the resume matches the uninterrupted
        stream.
        """
        if self.state is not SessionState.PREEMPTED:
            raise RuntimeError(
                f"cannot resume session {self.request.request_id!r} "
                f"({self.state.value})"
            )
        self._abandon_snapshot()
        self.state = SessionState.PREFILLING
        self.decoder = IncrementalDecoder(
            self.model,
            predictor=self.predictor,
            arena=self.arena,
            prefix_cache=self.prefix_cache,
        )
        replay = [int(t) for t in self.request.prompt_tokens] + self.generated_tokens
        self.decoder.begin_prefill(replay)

    # -- snapshot preemption ---------------------------------------------------

    @property
    def has_snapshot(self) -> bool:
        """Whether the session holds an off-arena KV snapshot to restore."""
        return self.kv_snapshot is not None

    def _snapshot_kv(self) -> bool:
        """Copy the live KV off-arena, keeping the decoder; False when unable.

        Only arena-backed decoders can snapshot (standalone buffers have no
        page table to copy out); on success the decoder keeps every bit of
        its continuation state -- pending prefill chunks, statistics, logits
        -- so the restored stream is indistinguishable from an uninterrupted
        one, metrics included (no traffic is folded into the preemption
        bases: nothing is recomputed).
        """
        if self.decoder is None:
            return False
        snap = self.decoder.snapshot_kv()
        if snap is None:
            return False
        self.kv_snapshot = snap
        self._resume_state = self.state
        return True

    def _discard_snapshot(self) -> None:
        """Release a snapshot that will never be restored (idempotent)."""
        if self.kv_snapshot is not None and self.arena is not None:
            self.arena.discard_snapshot(self.kv_snapshot)
        self.kv_snapshot = None
        self._resume_state = None

    def _abandon_snapshot(self) -> None:
        """Fall back to re-prefill: drop the snapshot *and* the kept decoder.

        Defensive twin of :meth:`_discard_snapshot` for the re-prefill
        resume -- folding the kept decoder's traffic into the preemption
        bases and releasing its (empty) arena session before a fresh decoder
        replaces it, so arena books stay balanced even if a caller routes a
        snapshot-preempted session through :meth:`begin_resume`.
        """
        if self.kv_snapshot is None:
            return
        self._discard_snapshot()
        if self.decoder is not None:
            self._keys_attended_base += self.decoder.keys_attended
            self._keys_total_base += self.decoder.keys_total
            self.decoder.release()
            self.decoder = None

    def resume_from_snapshot(self, step: int) -> SessionState:
        """Fault the snapshot's pages back in; zero re-prefill forward passes.

        The inverse of ``preempt(step, snapshot=True)``: the arena restores
        the page table bit-identically and the session re-enters exactly the
        state it was evicted from -- ``ACTIVE`` sessions rejoin the decode
        batch this very step, ``PREFILLING`` sessions rejoin the chunked
        pipeline with their progress intact.  Returns the re-entered state
        so the engine can route the session.  No token is emitted here:
        restoring is pure page traffic, and the next
        fused pass produces the same token the uninterrupted schedule would
        have.
        """
        if self.state is not SessionState.PREEMPTED or self.kv_snapshot is None:
            raise RuntimeError(
                f"cannot snapshot-resume session {self.request.request_id!r} "
                f"({self.state.value}, snapshot={self.kv_snapshot is not None})"
            )
        snap, self.kv_snapshot = self.kv_snapshot, None
        self.decoder.restore_kv(snap)
        self.state, self._resume_state = self._resume_state, None
        return self.state

    def preempt(self, step: int, snapshot: bool = False) -> None:
        """Evict the session: release its KV storage, keep only the tokens.

        The arena pages (or standalone buffers) return to the pool right away;
        the generated-token snapshot is all :meth:`begin_resume` needs to
        rebuild the stream.  Active *and
        mid-prefill* sessions can be preempted -- a prefilling victim's
        partial chunks are discarded with its pages (the KV rows *are* the
        progress) and the resume re-prefills from scratch.

        With ``snapshot=True`` an arena-backed session instead copies its KV
        rows off-arena (:meth:`~repro.serve.kv_arena.PagedKVArena.\
snapshot_session`) and keeps its decoder, so
        :meth:`resume_from_snapshot` skips re-prefill entirely; non-arena
        sessions silently fall back to the release path.  Either way the
        pages a policy wanted back are free when this returns.
        """
        if self.state not in (SessionState.ACTIVE, SessionState.PREFILLING):
            raise RuntimeError(
                f"cannot preempt session {self.request.request_id!r} "
                f"({self.state.value})"
            )
        if snapshot and self._snapshot_kv():
            self.state = SessionState.PREEMPTED
            self.preemptions += 1
            return
        self._keys_attended_base += self.decoder.keys_attended
        self._keys_total_base += self.decoder.keys_total
        self.decoder.release()
        self.decoder = None
        self.state = SessionState.PREEMPTED
        self.preemptions += 1

    def retry(self, step: int, snapshot: bool = False) -> None:
        """Requeue the session after a fault: release KV, keep the tokens.

        The fault-recovery twin of :meth:`preempt` -- the faulted decoder's
        KV is untrusted (or was never allocated), so it is discarded
        wholesale and the session re-enters ``PREEMPTED``; the engine
        requeues it with backoff and the eventual :meth:`begin_resume`
        re-prefills ``prompt + generated``, which is why a
        retried request's token stream is bit-identical to a fault-free run.
        Counted in :attr:`retries` (not ``preemptions``: one is a policy
        decision, the other a failure).  Unlike preemption this is also
        legal from ``QUEUED`` and ``PREEMPTED`` -- a schedule-time arena
        fault can hit a session admitted (or about to be resumed) this very
        step, before any forward ran.

        ``snapshot=True`` asserts the session's KV is still *trusted* -- the
        fault fired before any forward touched the pages (the engine only
        passes it for ``arena.alloc`` faults) -- and takes the same
        copy-out path as snapshot preemption so the requeued request resumes
        without re-prefill.  A snapshot-preempted session retried while
        waiting simply keeps its existing snapshot.  Untrusted faults
        (``snapshot=False``) discard any snapshot along with the decoder.
        """
        if self.state not in (
            SessionState.QUEUED,
            SessionState.PREFILLING,
            SessionState.ACTIVE,
            SessionState.PREEMPTED,
        ):
            raise RuntimeError(
                f"cannot retry session {self.request.request_id!r} "
                f"({self.state.value})"
            )
        if snapshot:
            if self.kv_snapshot is not None:
                # already snapshot-preempted: the pages are off-arena, keep them
                self.retries += 1
                self.state = SessionState.PREEMPTED
                return
            if self.state in (
                SessionState.PREFILLING,
                SessionState.ACTIVE,
            ) and self._snapshot_kv():
                self.state = SessionState.PREEMPTED
                self.retries += 1
                return
        self._discard_snapshot()
        if self.decoder is not None:
            self._keys_attended_base += self.decoder.keys_attended
            self._keys_total_base += self.decoder.keys_total
            self.decoder.release()
            self.decoder = None
        self.state = SessionState.PREEMPTED
        self.retries += 1

    def finalize(self, state: SessionState, step: int) -> None:
        """Terminally resolve the session as FAILED / TIMED_OUT / SHED.

        Releases any KV storage still held (queued, mid-prefill and active
        sessions alike; a preempted session holds none) and stamps
        ``finished_step`` so latency is defined for every resolved request.
        The decoder object is kept (storage-released) so traffic counters
        stay readable, mirroring :meth:`cancel`.
        """
        if state not in (
            SessionState.FAILED,
            SessionState.TIMED_OUT,
            SessionState.SHED,
        ):
            raise ValueError(f"finalize() resolves failure states, not {state}")
        if self.is_terminal:
            raise RuntimeError(
                f"cannot finalize session {self.request.request_id!r} "
                f"({self.state.value})"
            )
        self._discard_snapshot()
        if self.decoder is not None:
            self.decoder.release()
        self.state = state
        self.finished_step = step

    def cancel(self, step: Optional[int] = None) -> None:
        """Abort the request and free its KV storage (terminal).

        ``step`` stamps ``finished_step`` so a cancelled request has a
        defined latency like every other terminal outcome (``finalize``
        always stamps; cancellation used to silently drop out of the report
        latency aggregates).  ``None`` keeps the legacy no-timestamp
        behaviour for direct callers without a step clock.
        """
        if self.is_terminal:
            raise RuntimeError(
                f"cannot cancel session {self.request.request_id!r} "
                f"({self.state.value})"
            )
        self._discard_snapshot()
        if self.decoder is not None:
            self.decoder.release()
        self.state = SessionState.CANCELLED
        if step is not None:
            self.finished_step = step

    @classmethod
    def prefill_step_batch(
        cls,
        prefilling: Sequence["GenerationSession"],
        chunk_sizes: Sequence[int],
        decoding: Sequence["GenerationSession"],
        step: int,
        draft_tokens: Optional[Sequence[Sequence[int]]] = None,
    ) -> Dict[str, List[int]]:
        """One mixed engine step: prefill chunks plus decode rows, one pass.

        ``prefilling[i]`` (in ``PREFILLING`` state) advances by
        ``chunk_sizes[i]`` prompt rows and ``decoding[j]`` (``ACTIVE``) by
        one token, all through a single
        :meth:`~repro.model.generation.IncrementalDecoder.prefill_step_batch`
        fused forward.  Sessions whose final chunk landed move to ``ACTIVE``
        and commit their first token; decoding sessions commit their next
        one.  Returns ``{request_id: [tokens]}`` for every session that
        committed this step (mid-prefill and quarantined sessions are
        absent).

        ``draft_tokens`` (one proposal list per decoding session, empty
        lists allowed) switches the decode rows to speculative draft-verify
        chunks: each decoding session's list then holds every token the
        accept rule committed this step (see
        :meth:`IncrementalDecoder.prefill_step_batch`), bit-identical as a
        stream to the one-token path.
        """
        prefilling = list(prefilling)
        decoding = list(decoding)
        for session in prefilling:
            if session.state is not SessionState.PREFILLING:
                raise RuntimeError(
                    f"session {session.request.request_id!r} is not prefilling "
                    f"({session.state.value})"
                )
        for session in decoding:
            if session.state is not SessionState.ACTIVE:
                raise RuntimeError(
                    f"session {session.request.request_id!r} is not active "
                    f"({session.state.value})"
                )
        prefill_tokens, decode_tokens = IncrementalDecoder.prefill_step_batch(
            [s.decoder for s in prefilling],
            chunk_sizes,
            [s.decoder for s in decoding],
            [s.generated_tokens[-1] for s in decoding],
            draft_tokens=draft_tokens,
        )
        emitted: Dict[str, List[int]] = {}
        for session, token in zip(prefilling, prefill_tokens):
            if token is None:
                continue  # chunks remain; the session keeps its slot
            session.state = SessionState.ACTIVE
            emitted.update(session._commit_contained([token], step))
        for j, (session, out) in enumerate(zip(decoding, decode_tokens)):
            if draft_tokens is None:
                emitted.update(session._commit_contained([out], step))
            else:
                emitted.update(
                    session._commit_contained(out, step, len(draft_tokens[j]))
                )
        return emitted

    def _commit_contained(
        self, tokens: List[int], step: int, proposed: int = 0
    ) -> Dict[str, List[int]]:
        """Commit with per-session fault isolation for the batch loops.

        A fault raised by this session's commit (injected or the real KV
        integrity check) is parked on :attr:`last_fault` for the engine to
        route (retry / FAILED) instead of propagating -- one bad row must
        never abort its siblings' commits, which is what keeps an engine
        step atomic for the surviving batch.  Returns ``{request_id:
        committed_tokens}`` on success, ``{}`` when quarantined: a faulted
        step commits *nothing* (its output is untrusted), so the retry
        re-prefills the fault-free prefix.
        """
        try:
            return {self.request.request_id: self._commit(tokens, step, proposed)}
        except _FAULT_TYPES as exc:
            self.last_fault = exc
            return {}

    def _commit(self, tokens: List[int], step: int, proposed: int = 0) -> List[int]:
        """Commit one step's emitted tokens; returns the committed list.

        ``tokens`` is a single token (a prefill's first token or a plain
        decode row's next one) or, after ``proposed`` drafts were verified,
        a speculative chunk's ``accepted + 1`` tokens.  Tokens land in order
        with the EOS / ``max_new_tokens`` checks; the first terminal token
        stops the commit and discards the rest of the list (their KV rows are
        freed with the session at retirement).  All committed tokens carry
        this step's timestamp -- one fused pass produced them.  Draft
        counters and :attr:`last_spec_outcome` update only on a successful
        speculative commit, so a quarantined step never skews the acceptance
        window.
        """
        if self.fault_injector is not None:
            self._inject_and_verify(step, extra_rows=len(tokens) - 1)
        committed: List[int] = []
        eos = self.request.eos_token
        for token in tokens:
            token = int(token)
            self.generated_tokens.append(token)
            committed.append(token)
            if self.first_token_step is None:
                self.first_token_step = step
            if (eos is not None and token == eos) or (
                len(self.generated_tokens) >= self.request.max_new_tokens
            ):
                self.state = SessionState.FINISHED
                self.finished_step = step
                break
        if proposed > 0:
            accepted = len(tokens) - 1
            self.draft_proposed += int(proposed)
            self.draft_accepted += accepted
            self.spec_steps += 1
            self.last_spec_outcome = (int(proposed), accepted)
        return committed

    def _inject_and_verify(self, step: int, extra_rows: int = 0) -> None:
        """Pre-commit fault gate (only reached with an injector installed).

        Order matters: the ``session.append`` corruption lands first (a
        garbage KV row *really* written to the layer-0 cache), then the
        *real* row-count integrity check runs -- catching both the injected
        corruption and any genuine torn append -- and finally the pure
        ``session.compute`` fault fires.  All three abort the commit before
        the pending token is accepted, so a quarantined session's
        ``generated_tokens`` stay exactly the fault-free prefix.

        ``extra_rows`` is the count of *accepted draft* rows a speculative
        commit left in the cache beyond the one-token-decode baseline
        (rejected drafts were already truncated away), so the integrity
        check stays exact under speculation.
        """
        injector = self.fault_injector
        rid = self.request.request_id
        if injector.has_site("session.append"):
            if injector.fires("session.append", rid, step):
                self._corrupt_kv_append()
            # rows every layer must hold right now: the replayed prefix
            # (prompt + generated) was appended in full by the forward that
            # produced the pending token, which itself is not yet in any
            # cache.  The check only runs when appends can be corrupted --
            # there is nothing to catch otherwise, and skipping it keeps
            # append-less armed plans inside the benchmark's overhead gate.
            self.decoder.verify_kv_rows(
                len(self.request.prompt_tokens)
                + len(self.generated_tokens)
                + int(extra_rows)
            )
        if injector.fires("session.compute", rid, step):
            raise SessionComputeFault(
                f"injected compute fault for request {rid!r} at step {step}"
            )

    def _corrupt_kv_append(self) -> None:
        """Write one garbage KV row into the layer-0 cache (injection only).

        The detection that follows is genuine machinery
        (:meth:`~repro.model.generation.IncrementalDecoder.verify_kv_rows`);
        only the corruption itself is simulated.  Cache-less stub models
        hold no rows to corrupt, so the injection is a no-op there.
        """
        caches = self.decoder.caches if self.decoder is not None else []
        if not caches:
            return
        rows = caches[0].keys
        if rows is None or rows.shape[0] == 0:
            return
        garbage = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
        caches[0].append(garbage, garbage)

    def release_kv(self) -> None:
        """Free the session's KV storage (arena pages or standalone buffers).

        The engine calls this when it retires a finished session, so arena
        occupancy tracks live tokens rather than peak concurrency.  Metrics
        and generated tokens are unaffected; only further decoding becomes
        impossible.
        """
        self._discard_snapshot()
        if self.decoder is not None:
            self.decoder.release()

    # -- metrics ---------------------------------------------------------------

    @property
    def is_finished(self) -> bool:
        return self.state is SessionState.FINISHED

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def is_prefilling(self) -> bool:
        return self.state is SessionState.PREFILLING

    @property
    def is_cancelled(self) -> bool:
        return self.state is SessionState.CANCELLED

    @property
    def n_generated(self) -> int:
        return len(self.generated_tokens)

    @property
    def keys_attended(self) -> int:
        live = self.decoder.keys_attended if self.decoder is not None else 0
        return self._keys_attended_base + live

    @property
    def keys_total(self) -> int:
        live = self.decoder.keys_total if self.decoder is not None else 0
        return self._keys_total_base + live

    #: SessionState -> RequestMetrics.outcome for every terminal state.
    _OUTCOMES = {
        SessionState.FINISHED: "finished",
        SessionState.CANCELLED: "cancelled",
        SessionState.FAILED: "failed",
        SessionState.TIMED_OUT: "timed_out",
        SessionState.SHED: "shed",
    }

    def to_metrics(self) -> RequestMetrics:
        """Snapshot the terminally-resolved session as a metrics record.

        Works for every terminal state; ``outcome`` names which one.  A
        request resolved before reaching a milestone (admission, first
        token, completion) carries ``None`` for that timestamp and the
        derived step properties degrade to ``None`` rather than producing
        arithmetic on missing data.
        """
        if not self.is_terminal:
            raise RuntimeError(
                f"session {self.request.request_id!r} is not finished yet"
            )
        deadline = self.request.deadline_step
        missed = int(
            deadline is not None
            and self.finished_step is not None
            and self.finished_step > deadline
        )
        admitted = None if self.admitted_step is None else int(self.admitted_step)
        first = None if self.first_token_step is None else int(self.first_token_step)
        finished = None if self.finished_step is None else int(self.finished_step)
        queue_steps = (
            None if admitted is None else admitted - self.request.arrival_step
        )
        prefill_steps = (
            None if first is None or admitted is None else first - admitted
        )
        return RequestMetrics(
            request_id=self.request.request_id,
            arrival_step=self.request.arrival_step,
            admitted_step=admitted,
            first_token_step=first,
            finished_step=finished,
            n_generated=self.n_generated,
            keys_attended=self.keys_attended,
            keys_total=self.keys_total,
            priority=self.request.priority,
            preemptions=self.preemptions,
            deadline_misses=missed,
            queue_steps=queue_steps,
            prefill_steps=prefill_steps,
            outcome=self._OUTCOMES[self.state],
            retries=self.retries,
            failure=self.failure,
            draft_proposed=self.draft_proposed,
            draft_accepted=self.draft_accepted,
            spec_steps=self.spec_steps,
        )
