"""Policy-driven serving engine: batched execution core + request lifecycle.

:class:`ServingEngine` owns the request lifecycle -- ``submit() ->``
:class:`RequestHandle` (with per-request streaming/completion callbacks),
``cancel()``, ``step()``/``run()`` -- and the batched execution core, while
delegating every *decision* to two pluggable interfaces from
:mod:`repro.serve.policies`: an
:class:`~repro.serve.policies.AdmissionPolicy` (which arrived request takes a
free slot, and whether the KV arena can afford it) and a
:class:`~repro.serve.policies.SchedulingPolicy` (which active sessions to
preempt for more urgent work).

Each engine step:

1. moves arrived requests into the ready queue (ordered by the admission
   policy's key; *dynamic* policies such as
   :class:`~repro.serve.policies.AgingPriorityAdmission` are re-keyed every
   step);
2. asks the scheduling policy for **preemptions**: each victim -- decoding
   *or* mid-prefill -- releases its arena pages immediately and re-enters
   the ready queue with only its generated-token snapshot (resume
   re-prefills through the same chunked pipeline, bit-identical to an
   unpreempted run);
3. admits ready requests into free slots, earliest admission-key first,
   gated per-handle by the admission policy -- an admission enters the
   **chunked prefill pipeline** (state ``PREFILLING``) rather than running
   its whole prompt serially;
4. builds one **mixed batch**: every decoding session's current token (a
   one-row chunk) plus up to ``prefill_token_budget`` prompt rows from the
   prefilling sessions (head of the admission order first, long prompts
   split across steps), and runs it through one call,
   :meth:`~repro.serve.session.GenerationSession.prefill_step_batch`.  On
   the quantised model that is a **single fused forward**
   (:meth:`~repro.model.transformer.QuantizedTransformer.prefill_batch`):
   one GEMM per weight matrix for the whole step, one ragged attention per
   layer.  Forward-only models run each stream's chunk through
   ``model.forward`` instead, with whole prompts.  Sessions whose last
   chunk landed emit their first token;
5. retires finished sessions, freeing their slots -- and their KV arena
   pages -- for the next step.

Because every session shares one model -- and, when the model is bound to an
:class:`repro.core.engine.MCBPEngine`, one decoded-plane cache -- each
layer's BSTC decode *and* its GEMM launch are paid once per step instead of
once per session.  Session KV lives in a shared
:class:`~repro.serve.kv_arena.PagedKVArena` by default, so each decode
step's batched attention reads the paged pool through an incrementally
maintained view (O(B) copy bytes per decode step) instead of re-stacking
every session's full context.

The result of a run is a :class:`ServingReport` with per-request queueing
delay, time-to-first-token, end-to-end latency, preemption and deadline-miss
counts, plus aggregate throughput and a per-policy metrics block;
:meth:`ServingReport.to_json` / :meth:`ServingReport.from_json` round-trip
the report through the JSON format shared with the serving benchmarks.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..model.generation import KeyPredictor, KVCorruptionError
from .faults import (
    FailureInfo,
    FaultError,
    FaultInjector,
    FaultPlan,
    InjectedCallbackError,
    LoadShedWatchdog,
)
from .kv_arena import PagedKVArena
from .policies import (
    AdmissionPolicy,
    FCFSPolicy,
    FIFOAdmission,
    SchedulingPolicy,
)
from .session import GenerationSession, Request, RequestMetrics, SessionState
from .speculative import NGramDrafter, _SessionThrottle, resolve_speculation

__all__ = [
    "RequestMetrics",
    "RequestHandle",
    "ServingReport",
    "ServingEngine",
]

#: What the schedule-time arena probe quarantines: injected faults plus the
#: real KV-integrity detector.  Anything else is a genuine bug and must crash
#: loudly, never be quarantined into a retry.
_FAULT_TYPES = (FaultError, KVCorruptionError)

TokenCallback = Callable[["RequestHandle", int, int], None]
CompleteCallback = Callable[["RequestHandle", RequestMetrics], None]


@dataclass
class ServingReport:
    """Aggregate outcome of an engine run.

    ``arena`` carries the KV arena's occupancy / paging / copy-traffic
    counters (:meth:`repro.serve.kv_arena.ArenaStats.to_json`) when the run
    used one, ``None`` otherwise.  ``policy`` is the per-policy metrics
    block: which admission/scheduling policies ran plus their aggregate
    preemption / deadline-miss / cancellation counts (and, since the failure
    model landed, failed / timed-out / shed / retry / callback-error counts).

    ``requests`` holds every *terminally-resolved* request except cancelled
    ones -- finished, failed, timed-out and shed alike, distinguished by
    :attr:`RequestMetrics.outcome` -- so failure rates are first-class
    report data.  The latency aggregates are computed over the ``finished``
    outcomes only (a timed-out request's "latency" measures the reaper, not
    the service), and queue-delay aggregates over requests that were
    actually admitted; fault-free reports are bit-identical to the
    pre-faults format.

    ``truncated`` records that the producing :meth:`ServingEngine.run` hit
    its ``max_steps`` with work still queued/active (the leftover counts say
    how much) -- previously that outcome raised, hiding the partial results;
    :meth:`from_json` tolerates payloads written either way.
    """

    steps: int
    requests: List[RequestMetrics] = field(default_factory=list)
    max_concurrency: int = 0
    arena: Optional[dict] = None
    policy: Optional[dict] = None
    truncated: bool = False
    leftover_queued: int = 0
    leftover_active: int = 0

    @property
    def total_tokens(self) -> int:
        return sum(r.n_generated for r in self.requests)

    @property
    def throughput_tokens_per_step(self) -> float:
        return self.total_tokens / self.steps if self.steps else 0.0

    def _finished(self) -> List[RequestMetrics]:
        return [r for r in self.requests if r.outcome == "finished"]

    def latency_percentile(self, q: float, priority: Optional[int] = None) -> float:
        """Latency percentile over finished requests, or one priority class."""
        pool = self._finished()
        if priority is not None:
            pool = [r for r in pool if r.priority == priority]
        if not pool:
            return 0.0
        return float(np.percentile([r.latency_steps for r in pool], q))

    @property
    def mean_latency_steps(self) -> float:
        pool = self._finished()
        if not pool:
            return 0.0
        return float(np.mean([r.latency_steps for r in pool]))

    @property
    def mean_queue_delay_steps(self) -> float:
        delays = [
            r.queue_delay_steps
            for r in self.requests
            if r.queue_delay_steps is not None
        ]
        if not delays:
            return 0.0
        return float(np.mean(delays))

    @property
    def total_preemptions(self) -> int:
        return sum(r.preemptions for r in self.requests)

    @property
    def total_deadline_misses(self) -> int:
        return sum(r.deadline_misses for r in self.requests)

    def to_json(self) -> dict:
        """JSON-serialisable dict: stored fields plus derived aggregates.

        The same schema is emitted by ``examples/serving_simulation.py
        --json`` and embedded in ``BENCH_serving.json`` by the serving
        benchmark, so every serving artefact shares one report format.
        Derived aggregates are included for human consumption;
        :meth:`from_json` ignores them and recomputes from the stored fields.
        """
        return {
            "steps": self.steps,
            "max_concurrency": self.max_concurrency,
            "total_tokens": self.total_tokens,
            "throughput_tokens_per_step": self.throughput_tokens_per_step,
            "mean_latency_steps": self.mean_latency_steps,
            "p95_latency_steps": self.latency_percentile(95),
            "mean_queue_delay_steps": self.mean_queue_delay_steps,
            "truncated": self.truncated,
            "leftover_queued": self.leftover_queued,
            "leftover_active": self.leftover_active,
            "arena": self.arena,
            "policy": self.policy,
            "requests": [asdict(r) for r in self.requests],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ServingReport":
        """Rebuild a report from :meth:`to_json` output.

        Unknown keys are ignored at both the top level and inside each
        request entry, and stored fields absent from the payload fall back
        to their defaults -- so reports written by newer code (additional
        per-policy metrics blocks, new per-request counters) and by older
        code (pre-arena, pre-policy payloads) both load cleanly.
        """
        stored = {f for f in RequestMetrics.__dataclass_fields__}
        requests = [
            RequestMetrics(**{k: v for k, v in entry.items() if k in stored})
            for entry in payload.get("requests", [])
        ]
        return cls(
            steps=int(payload.get("steps", 0)),
            max_concurrency=int(payload.get("max_concurrency", 0)),
            requests=requests,
            arena=payload.get("arena"),
            policy=payload.get("policy"),
            truncated=bool(payload.get("truncated", False)),
            leftover_queued=int(payload.get("leftover_queued", 0)),
            leftover_active=int(payload.get("leftover_active", 0)),
        )

    @staticmethod
    def _cell(value, width: int) -> str:
        """Right-aligned table cell; ``-`` for a milestone never reached."""
        return f"{'-' if value is None else value:>{width}}"

    def summary(self) -> str:
        """Human-readable per-request table plus aggregate lines."""
        lines = [
            f"{'request':>12} {'arrive':>7} {'admit':>6} {'first':>6} "
            f"{'finish':>7} {'tokens':>7} {'latency':>8} {'attn%':>6} "
            f"{'outcome':>9}"
        ]
        for r in sorted(self.requests, key=lambda r: r.arrival_step):
            lines.append(
                f"{r.request_id:>12} {r.arrival_step:>7} "
                f"{self._cell(r.admitted_step, 6)} "
                f"{self._cell(r.first_token_step, 6)} "
                f"{self._cell(r.finished_step, 7)} {r.n_generated:>7} "
                f"{self._cell(r.latency_steps, 8)} "
                f"{100.0 * r.attention_density:>5.1f}% {r.outcome:>9}"
            )
        lines.append(
            f"steps={self.steps} tokens={self.total_tokens} "
            f"throughput={self.throughput_tokens_per_step:.2f} tok/step "
            f"mean_latency={self.mean_latency_steps:.1f} "
            f"p95_latency={self.latency_percentile(95):.1f} "
            f"peak_concurrency={self.max_concurrency}"
        )
        if self.truncated:
            lines.append(
                f"TRUNCATED: run stopped at max_steps with "
                f"{self.leftover_queued} queued / {self.leftover_active} "
                f"active requests unresolved"
            )
        if self.policy is not None:
            # .get(): from_json accepts partial policy blocks from other
            # writers, so summary() must not hard-require every key
            p = self.policy
            lines.append(
                f"policy: admission={p.get('admission', '?')} "
                f"scheduling={p.get('scheduling', '?')} "
                f"preemptions={p.get('preemptions', 0)} "
                f"deadline_misses={p.get('deadline_misses', 0)} "
                f"cancelled={p.get('cancelled', 0)} "
                f"failed={p.get('failed', 0)} "
                f"timed_out={p.get('timed_out', 0)} "
                f"shed={p.get('shed', 0)} "
                f"retries={p.get('retries', 0)}"
            )
        if self.arena is not None:
            a = self.arena
            lines.append(
                f"arena: {a['page_size']}-token pages, "
                f"peak {a['peak_pages_in_use']}/{a['n_pages']} in use, "
                f"{a['page_faults']} faults, {a['pages_freed']} freed, "
                f"gather {a['gather_bytes_copied'] / 1024.0:.1f} KiB "
                f"({a['gather_incremental']} incremental / "
                f"{a['gather_rebuilds']} rebuilds)"
            )
        return "\n".join(lines)


class RequestHandle:
    """The caller's view of one submitted request.

    Returned by :meth:`ServingEngine.submit`; exposes the immutable request,
    live state and generated tokens, and carries the optional per-request
    callbacks (``on_token`` fires for every emitted token, ``on_complete``
    once with the final :class:`RequestMetrics`).  ``index`` is the
    submission sequence number policies use as a deterministic tie-breaker.
    """

    __slots__ = (
        "session",
        "index",
        "on_token",
        "on_complete",
        "cancelled",
        "reserved_pages",
        "_complete_fired",
    )

    def __init__(
        self,
        session: GenerationSession,
        index: int,
        on_token: Optional[TokenCallback] = None,
        on_complete: Optional[CompleteCallback] = None,
    ) -> None:
        self.session = session
        self.index = index
        self.on_token = on_token
        self.on_complete = on_complete
        self.cancelled = False
        # page reservation pinned by the admission policy while the handle
        # is active (None when unadmitted, released, or policy-unmanaged)
        self.reserved_pages: Optional[int] = None
        # exactly-once terminal-callback latch: set the moment on_complete
        # is dispatched (or forfeited by cancel), never cleared
        self._complete_fired = False

    @property
    def request(self) -> Request:
        return self.session.request

    @property
    def request_id(self) -> str:
        return self.session.request.request_id

    @property
    def state(self) -> SessionState:
        return self.session.state

    @property
    def generated_tokens(self) -> List[int]:
        return self.session.generated_tokens

    @property
    def preemptions(self) -> int:
        return self.session.preemptions

    @property
    def done(self) -> bool:
        """Terminal: finished, cancelled, failed, timed out or shed."""
        return self.session.is_terminal or self.cancelled

    def metrics(self) -> RequestMetrics:
        """Final metrics of the resolved request (raises until terminal)."""
        return self.session.to_metrics()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestHandle({self.request_id!r}, state={self.state.value}, "
            f"tokens={len(self.generated_tokens)})"
        )


class ServingEngine:
    """Multiplexes many generation sessions through one shared model.

    Parameters
    ----------
    model:
        Shared inference substrate (``forward``/``new_cache``), typically a
        :class:`~repro.model.transformer.TransformerModel` or
        :class:`~repro.model.transformer.QuantizedTransformer`.  Every step
        runs one mixed batch through
        :meth:`~repro.serve.session.GenerationSession.prefill_step_batch`: a
        model exposing ``prefill_batch`` runs it as one fused pass, a
        forward-only model runs each stream's chunk through ``forward``
        (whole prompts, one chunk each).
    max_active:
        Maximum number of concurrently decoding sessions (batch slots).
    predictor:
        Optional BGPP/top-k key predictor shared by all sessions.
    arena:
        KV storage policy.  ``None`` (the default) auto-enables a shared
        :class:`~repro.serve.kv_arena.PagedKVArena` sized from
        ``model.config`` whenever the fused pass can consume it (the model
        exposes ``prefill_batch``) -- every session's KV then lives in one
        paged pool, finished sessions return their pages, and batched
        attention reads the pool zero-copy instead of re-stacking
        per-session caches each step.  Per-stream ``forward`` cannot read
        the pool in place (it would pay a full-context materialisation per
        step), so auto mode keeps standalone caches there.  ``True`` forces
        the arena (models without a ``config`` still fall back), ``False``
        disables it, and passing a :class:`PagedKVArena` instance uses it
        directly (sharing one pool across several engines is allowed).
    page_size:
        Tokens per arena page when the engine builds the arena itself.
    max_pages:
        Hard page budget of the self-built arena (``None`` = unbounded,
        geometric growth).  Set it when pairing the engine with
        :class:`~repro.serve.policies.ArenaBudgetAdmission`, whose watermark
        gate is relative to this bound -- with an unbounded arena the gate
        has nothing to enforce and admits everything.  An explicit
        ``max_pages`` on an engine that resolves to *no* arena raises
        ``ValueError`` (the budget would be silently unenforced), as does
        combining it with an externally built ``PagedKVArena`` instance
        (whose own constructor owns the bound).
    prefix_cache:
        Share prompt KV across requests through the arena's content-keyed
        prefix index: completed prefills register their prompt pages, later
        sessions with a matching prompt head map those pages read-only and
        skip the matched rows' prefill compute (copy-on-write protects
        shared pages; see :class:`~repro.serve.kv_arena.PagedKVArena`).
        Tokens and per-request metrics are bit-identical to a cold run;
        requires an arena (``ValueError`` otherwise).
    kv_dtype:
        Storage dtype of the self-built arena's KV pool:
        :class:`~repro.serve.kv_arena.KVDtype` (or its string value).
        ``"int8"`` stores rows quantised with per-page per-layer scales
        (~8x smaller pool and snapshots) and dequantises on every read;
        ``None`` (the default) keeps full-precision rows, byte-identical
        to an engine without the knob.  Requires the engine to resolve to
        an arena, and conflicts with an externally built ``PagedKVArena``
        (whose own constructor owns the dtype) -- ``ValueError`` either
        way.
    kv_snapshots:
        Preempt and (trusted-)retry arena-backed sessions by **snapshot**:
        the victim's KV pages are copied off-arena
        (:meth:`~repro.serve.kv_arena.PagedKVArena.snapshot_session`,
        shared prefix pages pinned by reference) and faulted back in on
        resume with *zero* re-prefill forward passes, bit-identical in
        tokens and metrics to an uninterrupted run.  Untrusted KV --
        fault sites at or after the forward pass (``session.compute``,
        ``session.append`` corruption) -- always falls back to the
        re-prefill path.  Requires an arena (``ValueError`` otherwise);
        off (the default) keeps the release-and-re-prefill behaviour
        byte-identical to before the knob existed.
    speculative:
        Draft-then-verify multi-token decode
        (:mod:`repro.serve.speculative`).  An ``int`` is shorthand for
        ``SpeculationConfig(k=...)``; a full
        :class:`~repro.serve.speculative.SpeculationConfig` picks the
        drafter (:class:`~repro.serve.speculative.NGramDrafter` by
        default) and the adaptive throttle.  Each step, every decoding
        session's chunk grows from one committed token to ``1 + k_draft``
        rows verified in the *same* fused batched pass; the greedy accept
        rule commits the longest matching draft prefix (plus the
        verifier's own next token) and
        :meth:`~repro.serve.kv_arena.PagedKVArena.truncate_session` rolls
        the rejected KV rows back, so the committed token stream is
        **bit-identical** to one-token decode for any drafter and any
        ``k``.  Requires a model exposing ``prefill_batch`` and a KV
        arena (``ValueError`` otherwise); ``None`` (the default) keeps
        plain one-token decode, byte-identical to an engine without the
        knob.
    admission:
        :class:`~repro.serve.policies.AdmissionPolicy` ordering and gating
        the ready queue; defaults to FIFO.
    scheduling:
        :class:`~repro.serve.policies.SchedulingPolicy` deciding preemption;
        defaults to FCFS (never preempts).
    prefill_token_budget:
        Maximum prompt rows the chunked prefill pipeline feeds into each
        step's fused pass, summed over every ``PREFILLING`` session (the
        TTFT-vs-decode-throughput knob; the admission policy can override it
        per step via
        :meth:`~repro.serve.policies.AdmissionPolicy.prefill_token_budget`).
        ``None`` (the default) completes every admitted prompt in its
        admission step.  A forward-only model takes whole prompts, so a
        budget given for one raises ``ValueError``; policy overrides and
        the watchdog throttle do not apply to it either.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` (or a pre-built
        :class:`~repro.serve.faults.FaultInjector`) arming the engine's
        deterministic fault-injection hooks -- schedule-time arena
        allocation probes, per-row compute/append faults at commit time,
        and callback-dispatch faults.  ``None`` (the default) leaves every
        hook point on the unguarded fast path: the fault-free engine is
        byte-identical in behaviour and measurably identical in throughput
        (gated in the serving benchmark).
    max_retries:
        How many fault-recovery re-prefills a request gets before it
        resolves ``FAILED``.  Each retry releases the (untrusted) KV and
        requeues the request with capped exponential backoff --
        ``retry_backoff_steps * 2**(retries-1)`` engine steps, capped at
        ``retry_backoff_cap`` -- then resumes through the ordinary
        preemption machinery, so a recovered request's token stream is
        bit-identical to a fault-free run.
    watchdog:
        Optional :class:`~repro.serve.faults.LoadShedWatchdog`.  When
        installed, the engine feeds it queue depth and fault quarantines
        every step; while the watchdog says the engine is overloaded, the
        lowest-priority queued requests are resolved ``SHED`` and the
        chunked-prefill budget is throttled until pressure subsides.
    """

    def __init__(
        self,
        model,
        max_active: int = 8,
        predictor: Optional[KeyPredictor] = None,
        arena=None,
        page_size: int = 32,
        max_pages: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
        scheduling: Optional[SchedulingPolicy] = None,
        prefill_token_budget: Optional[int] = None,
        prefix_cache: bool = False,
        kv_dtype=None,
        kv_snapshots: bool = False,
        speculative=None,
        faults=None,
        max_retries: int = 2,
        retry_backoff_steps: int = 1,
        retry_backoff_cap: int = 8,
        watchdog: Optional[LoadShedWatchdog] = None,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        if prefill_token_budget is not None and prefill_token_budget < 1:
            raise ValueError("prefill_token_budget must be >= 1 when given")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff_steps < 1:
            raise ValueError("retry_backoff_steps must be >= 1")
        if retry_backoff_cap < retry_backoff_steps:
            raise ValueError("retry_backoff_cap must be >= retry_backoff_steps")
        # forward-only models take whole prompts: a chunk budget would be
        # silently unenforced on them
        self.chunked_prefill = hasattr(model, "prefill_batch")
        if prefill_token_budget is not None and not self.chunked_prefill:
            raise ValueError(
                "prefill_token_budget was given but the model lacks "
                "prefill_batch, so prompts cannot be chunked; the budget "
                "would be silently unenforced -- drop it or run a "
                "prefill_batch model"
            )
        self.model = model
        self.max_active = max_active
        self.predictor = predictor
        self.prefill_token_budget = prefill_token_budget
        self.admission = admission if admission is not None else FIFOAdmission()
        self.scheduling = scheduling if scheduling is not None else FCFSPolicy()
        config = getattr(model, "config", None)
        if arena is None:
            arena = self.chunked_prefill
        if arena is True:
            if config is None:
                arena = None  # model shape unknown: standalone caches
            else:
                arena = PagedKVArena(
                    n_layers=config.n_layers,
                    hidden_size=config.hidden_size,
                    page_size=page_size,
                    initial_pages=(
                        64 if max_pages is None else min(64, max_pages)
                    ),
                    max_pages=max_pages,
                    kv_dtype=kv_dtype,
                )
        elif arena is False:
            arena = None
        elif isinstance(arena, PagedKVArena):
            if max_pages is not None:
                # the instance's own constructor set (or declined) the bound;
                # accepting a second one here would silently shadow it
                raise ValueError(
                    "max_pages conflicts with an externally built arena: "
                    "configure max_pages on the PagedKVArena instance instead"
                )
            if kv_dtype is not None:
                raise ValueError(
                    "kv_dtype conflicts with an externally built arena: "
                    "configure kv_dtype on the PagedKVArena instance instead"
                )
        if arena is None and kv_dtype is not None:
            raise ValueError(
                "kv_dtype was given but the engine resolved to no KV arena "
                "(arena=False, or the model lacks prefill_batch/config "
                "support); the pool dtype would be silently unapplied -- "
                "drop kv_dtype or run an arena-capable model"
            )
        if arena is None and kv_snapshots:
            raise ValueError(
                "kv_snapshots=True requires a KV arena; the engine resolved "
                "to standalone caches (arena=False, or the model lacks "
                "prefill_batch/config support)"
            )
        if arena is None and max_pages is not None:
            raise ValueError(
                "max_pages was given but the engine resolved to no KV arena "
                "(arena=False, or the model lacks prefill_batch/config "
                "support); the page budget would be silently unenforced -- "
                "drop max_pages or run an arena-capable model"
            )
        if prefix_cache and arena is None:
            raise ValueError(
                "prefix_cache=True requires a KV arena; the engine resolved "
                "to standalone caches (arena=False, or the model lacks "
                "prefill_batch/config support)"
            )
        self._speculative = resolve_speculation(speculative)
        if self._speculative is not None and not self.chunked_prefill:
            raise ValueError(
                "speculative decode verifies draft rows through the fused "
                "prefill_batch pass, which the model lacks -- drop "
                "speculative or run a prefill_batch model"
            )
        if self._speculative is not None and arena is None:
            raise ValueError(
                "speculative decode requires a KV arena (rejected draft "
                "rows are rolled back via truncate_session); the engine "
                "resolved to standalone caches (arena=False, or the model "
                "lacks prefill_batch/config support)"
            )
        if self._speculative is not None:
            self._drafter = self._speculative.drafter or NGramDrafter()
        else:
            self._drafter = None
        # per-request adaptive k controllers, dropped at terminal resolution
        self._spec_state: Dict[str, _SessionThrottle] = {}
        self.arena = arena
        self.prefix_cache = bool(prefix_cache)
        self.kv_snapshots = bool(kv_snapshots)
        # -- failure model ----------------------------------------------------
        if faults is None:
            self._faults: Optional[FaultInjector] = None
        elif isinstance(faults, FaultInjector):
            self._faults = faults
        elif isinstance(faults, FaultPlan):
            self._faults = FaultInjector(faults)
        else:
            raise TypeError(
                f"faults must be a FaultPlan or FaultInjector, "
                f"got {type(faults).__name__}"
            )
        if self._faults is not None and self.arena is not None:
            self.arena.fault_injector = self._faults
        self.max_retries = max_retries
        self.retry_backoff_steps = retry_backoff_steps
        self.retry_backoff_cap = retry_backoff_cap
        self.watchdog = watchdog
        self.last_step_stats: Optional[Dict[str, int]] = None
        self.current_step = 0
        # arrivals still in the future: min-heap keyed by (arrival_step,
        # submission index) so each step drains exactly the arrived prefix
        # (retry backoff reuses it: a retried handle "re-arrives" later)
        self._pending: List[Tuple[int, int, RequestHandle]] = []
        # arrived but unadmitted: min-heap keyed by the admission policy's
        # key (submission index breaks exact ties deterministically)
        self._ready: List[Tuple[Tuple, int, RequestHandle]] = []
        # timeout reaper: min-heap keyed by (timeout_step, index); handles
        # are reaped at the start of the first step PAST their timeout_step
        self._timeouts: List[Tuple[int, int, RequestHandle]] = []
        self._request_ids: set = set()
        self._submitted = 0
        self._queued_count = 0  # live (non-terminal) handles across the heaps
        self._active: List[RequestHandle] = []
        self._finished: List[RequestHandle] = []
        self._cancelled: List[RequestHandle] = []
        self._withdrawn = 0
        self._failed: List[RequestHandle] = []
        self._timed_out: List[RequestHandle] = []
        self._shed: List[RequestHandle] = []
        # every non-cancelled terminal handle in resolution order -- the
        # report's per-request metrics walk this one list
        self._terminal: List[RequestHandle] = []
        self._max_concurrency = 0
        self._callback_errors = 0
        self._callback_warned = False
        self._closed = False

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        request: Request,
        on_token: Optional[TokenCallback] = None,
        on_complete: Optional[CompleteCallback] = None,
    ) -> RequestHandle:
        """Queue one request; returns its :class:`RequestHandle`.

        Raises ``ValueError`` for duplicate request ids and for requests the
        admission policy rejects outright (``check_submit``), e.g. one whose
        KV lifetime could never fit the arena's ``max_pages`` budget, and
        ``RuntimeError`` once the engine is closed (:meth:`drain` /
        :meth:`shutdown` was called).
        """
        if self._closed:
            raise RuntimeError(
                f"engine is closed (drain/shutdown); cannot submit "
                f"{request.request_id!r}"
            )
        # step() keys its emitted-token dict by request_id, so ids must be
        # unique or one session's tokens would silently shadow another's
        if request.request_id in self._request_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        self.admission.check_submit(request, self)
        self._request_ids.add(request.request_id)
        session = GenerationSession(
            request,
            self.model,
            predictor=self.predictor,
            arena=self.arena,
            prefix_cache=self.prefix_cache,
        )
        session.fault_injector = self._faults
        handle = RequestHandle(
            session, self._submitted, on_token=on_token, on_complete=on_complete
        )
        heapq.heappush(
            self._pending, (request.arrival_step, handle.index, handle)
        )
        if request.timeout_step is not None:
            heapq.heappush(
                self._timeouts, (request.timeout_step, handle.index, handle)
            )
        self._submitted += 1
        self._queued_count += 1
        return handle

    def submit_many(self, requests: Iterable[Request]) -> List[RequestHandle]:
        return [self.submit(r) for r in requests]

    def cancel(self, handle: RequestHandle) -> bool:
        """Abort a request; frees its KV immediately.  False once terminal.

        Queued and preempted requests are dropped lazily from their heaps;
        an active request leaves the batch before the next step.  Cancelled
        requests are excluded from :meth:`report`'s per-request metrics but
        counted in its policy block.
        """
        if handle.cancelled or handle.session.is_terminal:
            return False
        if handle in self._active:
            self._active.remove(handle)
        else:
            # queued or preempted: it sits in one of the heaps (dropped
            # lazily on pop), so it leaves the live-queue count now
            self._queued_count -= 1
        handle.session.cancel(self.current_step)
        handle.cancelled = True
        # cancellation is caller-initiated: no on_complete fires for it, and
        # the latch guarantees none ever will (exactly-once, including zero)
        handle._complete_fired = True
        self._cancelled.append(handle)
        self._spec_state.pop(handle.request_id, None)
        # whether it was active (holding a reservation) or still queued,
        # the admission policy must drop any page reservation right now --
        # a cancelled request can never consume the pages it was charged for
        self.admission.on_release(handle, self)
        return True

    def withdraw(self, handle: RequestHandle) -> bool:
        """Pull a never-admitted request back out of the queues.

        Unlike :meth:`cancel` this is *not* a terminal resolution: the
        request is simply no longer this engine's problem -- its session
        stays untouched, no callback ever fires for the handle, it appears
        in neither the per-request metrics nor the ``cancelled`` count, and
        its id is free to be resubmitted (here or on another engine).  This
        is the primitive cluster failover uses to re-route the queued
        backlog of a replica that was marked down.

        Only requests that were never admitted qualify -- ``QUEUED`` state,
        no slot, no KV, no generated tokens -- so withdrawal cannot lose
        work.  Returns ``False`` for anything else (active, preempted,
        cancelled or terminal handles).
        """
        if handle.cancelled or handle.session.is_terminal:
            return False
        if handle.session.state is not SessionState.QUEUED:
            return False
        # the heap entries drop lazily on pop, exactly like a cancel --
        # the cancelled flag is handle-level and never touched the session
        handle.cancelled = True
        handle._complete_fired = True
        self._queued_count -= 1
        self._withdrawn += 1
        self._request_ids.discard(handle.request_id)
        self.admission.on_release(handle, self)
        return True

    def release_inflight(self) -> int:
        """Preempt every admitted session, releasing its arena pages.

        ``run(max_steps)`` that truncates leaves the in-flight batch holding
        KV pages, and before this method the only public reclaim was
        :meth:`shutdown` -- which terminally sheds the work.  Each in-flight
        session (decoding *or* mid-prefill) is instead preempted exactly as
        a policy eviction would: with ``kv_snapshots`` its pages are copied
        off-arena and the resume replays no prefill, otherwise the pages are
        freed and the session re-prefills.  Either way it re-enters the
        ready queue, so a follow-up :meth:`run` resumes and finishes with
        bit-identical tokens -- the pages are merely returned to the pool in
        the meantime (an engine without a prefix cache drains to zero pages
        in use).  Returns the number of sessions released.
        """
        step = self.current_step
        released = list(self._active)
        self._active.clear()
        for handle in released:
            handle.session.preempt(step, snapshot=self.kv_snapshots)
            self._push_ready(handle)
            self._queued_count += 1
            self.admission.on_release(handle, self)
        return len(released)

    @property
    def n_queued(self) -> int:
        return self._queued_count

    @property
    def n_active(self) -> int:
        return len(self._active)

    @property
    def active_handles(self) -> Tuple[RequestHandle, ...]:
        """The handles currently holding batch slots (policies read this)."""
        return tuple(self._active)

    @property
    def n_finished(self) -> int:
        return len(self._finished)

    @property
    def n_cancelled(self) -> int:
        return len(self._cancelled)

    @property
    def n_failed(self) -> int:
        return len(self._failed)

    @property
    def n_timed_out(self) -> int:
        return len(self._timed_out)

    @property
    def n_shed(self) -> int:
        return len(self._shed)

    @property
    def n_withdrawn(self) -> int:
        """Requests pulled back out via :meth:`withdraw` (cluster re-routes)."""
        return self._withdrawn

    @property
    def queued_handles(self) -> Tuple[RequestHandle, ...]:
        """Live handles waiting in the queues (no slot held), by submit order.

        Covers both not-yet-arrived and arrived-but-unadmitted requests as
        well as preempted/backoff re-entries; the cluster failover path
        filters this for ``QUEUED`` sessions it may :meth:`withdraw`.
        """
        seen: set = set()
        out: List[RequestHandle] = []
        for heap in (self._ready, self._pending):
            for entry in heap:
                handle = entry[2]
                if self._live(handle) and id(handle) not in seen:
                    seen.add(id(handle))
                    out.append(handle)
        return tuple(sorted(out, key=lambda h: h.index))

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The armed injector (``None`` on a fault-free engine)."""
        return self._faults

    @property
    def has_work(self) -> bool:
        return bool(self._active) or self.n_queued > 0

    # -- stepping --------------------------------------------------------------

    def _push_ready(self, handle: RequestHandle) -> None:
        key = self.admission.admission_key_at(handle, self.current_step)
        heapq.heappush(self._ready, (key, handle.index, handle))

    # -- failure model ---------------------------------------------------------

    @staticmethod
    def _live(handle: RequestHandle) -> bool:
        """Whether a heap entry still represents schedulable work."""
        return not (handle.cancelled or handle.session.is_terminal)

    def _resolve(
        self,
        handle: RequestHandle,
        state: SessionState,
        step: int,
        failure: Optional[FailureInfo] = None,
    ) -> None:
        """Terminally resolve a live request as FAILED / TIMED_OUT / SHED.

        Handles every location the request may occupy -- a batch slot, the
        ready queue, or the pending/backoff heap -- releasing its KV pages
        and admission reservation, recording it in the outcome buckets, and
        firing its ``on_complete`` exactly once.  Heap entries are dropped
        lazily (the heaps skip terminal handles on pop).
        """
        session = handle.session
        if handle.cancelled or session.is_terminal:
            return
        if handle in self._active:
            self._active.remove(handle)
        else:
            self._queued_count -= 1
        if failure is not None:
            session.failure = failure.to_json()
        session.finalize(state, step)
        bucket = {
            SessionState.FAILED: self._failed,
            SessionState.TIMED_OUT: self._timed_out,
            SessionState.SHED: self._shed,
        }[state]
        bucket.append(handle)
        self._terminal.append(handle)
        self.admission.on_release(handle, self)
        self._spec_state.pop(handle.request_id, None)
        self._fire_complete(handle, step)

    def _quarantine(self, handle: RequestHandle, exc: Exception, step: int) -> None:
        """Route one quarantined fault: retry with backoff, or FAILED.

        The faulted session's KV is untrusted, so a retry releases it
        wholesale and requeues the request through the pending heap with
        capped exponential backoff; the eventual resume re-prefills
        ``prompt + generated`` bit-identically.  A request out of retries
        resolves ``FAILED`` with a structured post-mortem.

        With ``kv_snapshots`` on, faults from the schedule-time allocation
        probe (``arena.alloc``) are the exception: they fire *before* the
        fused forward touches any KV row, so the victim's pages are still
        trusted and are snapshotted for a re-prefill-free resume.  Every
        other site (``session.compute`` fires after the forward already
        appended the step's KV rows; ``session.append`` is corruption
        itself) keeps the discard-and-re-prefill path.
        """
        trusted = (
            self.kv_snapshots and getattr(exc, "site", None) == "arena.alloc"
        )
        session = handle.session
        if self.watchdog is not None:
            self.watchdog.record_failure(step)
        if session.retries >= self.max_retries:
            failure = FailureInfo(
                site=getattr(exc, "site", "unknown"),
                step=step,
                retries=session.retries,
                message=str(exc),
            )
            self._resolve(handle, SessionState.FAILED, step, failure=failure)
            return
        if handle in self._active:
            self._active.remove(handle)
        else:
            # quarantined before taking a slot (schedule-time arena fault on
            # a not-yet-admitted handle): it leaves the queue count now and
            # re-enters it below with its backoff arrival
            self._queued_count -= 1
        session.retry(step, snapshot=trusted)
        self.admission.on_release(handle, self)
        delay = min(
            self.retry_backoff_cap,
            self.retry_backoff_steps * (2 ** (session.retries - 1)),
        )
        heapq.heappush(self._pending, (step + delay, handle.index, handle))
        self._queued_count += 1

    def _check_arena_faults(
        self, handles: List[RequestHandle], step: int
    ) -> List[RequestHandle]:
        """Schedule-time arena-allocation probe; returns the survivors.

        Mirrors real engines, which test allocatability when *scheduling* a
        sequence, not mid-kernel: every session about to append KV rows this
        step is probed before the fused forward, and a faulted one is
        quarantined (retry/FAILED) without ever entering the batch.
        """
        survivors: List[RequestHandle] = []
        for handle in handles:
            try:
                self.arena.check_alloc(handle.request_id, step)
            except _FAULT_TYPES as exc:
                self._quarantine(handle, exc, step)
                continue
            survivors.append(handle)
        return survivors

    def _route_commit_faults(
        self, handles: List[RequestHandle], step: int
    ) -> None:
        """Collect faults the batch commit loops quarantined per-session."""
        for handle in handles:
            session = handle.session
            if session.last_fault is not None:
                exc = session.last_fault
                session.last_fault = None
                self._quarantine(handle, exc, step)

    def _reap_timeouts(self, step: int) -> None:
        """Resolve every request still live past its ``timeout_step``."""
        while self._timeouts and self._timeouts[0][0] < step:
            _, _, handle = heapq.heappop(self._timeouts)
            if self._live(handle):
                self._resolve(handle, SessionState.TIMED_OUT, step)

    def _shed_queued(self, n: int, step: int) -> None:
        """Shed ``n`` queued requests: lowest priority first, youngest first.

        Within a priority class the *youngest* submission goes first, so the
        longest-waiting work of every class survives the purge.
        """
        candidates = [h for _, _, h in self._ready if self._live(h)]
        candidates.sort(key=lambda h: (h.request.priority, -h.index))
        for handle in candidates[:n]:
            self._resolve(handle, SessionState.SHED, step)

    def _contain_callback(self, handle: RequestHandle, which: str) -> None:
        """A user callback raised mid-dispatch: warn once, detach, move on.

        The engine's step must stay atomic no matter what user code does, so
        the offending callback is detached (it will never fire again for
        this handle) and the first containment emits one ``RuntimeWarning``
        per engine; ``callback_errors`` in the report counts them all.
        """
        self._callback_errors += 1
        setattr(handle, which, None)
        if not self._callback_warned:
            self._callback_warned = True
            warnings.warn(
                f"user {which} callback for request {handle.request_id!r} "
                f"raised; detached it and continuing (this warning fires "
                f"once per engine -- see report policy['callback_errors'] "
                f"for the total)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _dispatch_token(self, handle: RequestHandle, token: int, step: int) -> None:
        cb = handle.on_token
        if cb is None:
            return
        try:
            if self._faults is not None and self._faults.fires(
                "callback.on_token", handle.request_id, step
            ):
                raise InjectedCallbackError(
                    f"injected on_token failure for {handle.request_id!r}"
                )
            cb(handle, token, step)
        except Exception:
            self._contain_callback(handle, "on_token")

    def _fire_complete(self, handle: RequestHandle, step: int) -> None:
        """Dispatch ``on_complete`` exactly once per handle, contained."""
        if handle._complete_fired:
            return
        handle._complete_fired = True
        cb = handle.on_complete
        if cb is None:
            return
        try:
            if self._faults is not None and self._faults.fires(
                "callback.on_complete", handle.request_id, step
            ):
                raise InjectedCallbackError(
                    f"injected on_complete failure for {handle.request_id!r}"
                )
            cb(handle, handle.session.to_metrics())
        except Exception:
            self._contain_callback(handle, "on_complete")

    def _build_drafts(self, decoding: List[RequestHandle]) -> List[List[int]]:
        """One draft proposal list per decoding handle (throttled, clamped).

        Each session's adaptive :class:`_SessionThrottle` sets this step's
        draft budget (created on first decode step, ticked every step so
        cooldowns expire deterministically), clamped so drafts never extend
        past the request's remaining decode budget -- the committed row
        already emits one token, so at most ``remaining - 1`` drafts could
        ever be accepted.  ``last_spec_outcome`` is cleared here so the
        post-step observe loop only folds in *this* step's accept outcome
        (a quarantined commit leaves it ``None`` and the window untouched).
        """
        drafts: List[List[int]] = []
        for handle in decoding:
            session = handle.session
            throttle = self._spec_state.get(handle.request_id)
            if throttle is None:
                throttle = _SessionThrottle(self._speculative)
                self._spec_state[handle.request_id] = throttle
            room = (
                session.request.max_new_tokens
                - len(session.generated_tokens)
                - 1
            )
            k = min(throttle.next_k(), max(0, room))
            if k <= 0:
                proposal: List[int] = []
            else:
                history = (
                    [int(t) for t in session.request.prompt_tokens]
                    + session.generated_tokens
                )
                proposal = [int(t) for t in self._drafter.propose(history, k)][:k]
            session.last_spec_outcome = None
            drafts.append(proposal)
        return drafts

    def step(self) -> Dict[str, List[int]]:
        """Advance one engine step; returns the tokens emitted per request.

        Every value is the list of tokens the request committed this step:
        one token for a first token or a plain decode row, several for a
        speculative chunk whose drafts were accepted.
        """
        emitted: Dict[str, List[int]] = {}
        step = self.current_step

        # timeout reaper first: a request past its hard bound must not take
        # (or keep) a batch slot this step
        if self._timeouts:
            self._reap_timeouts(step)

        # dynamic admission policies (aging) re-key the whole ready queue
        # each step -- their ordering depends on how long requests waited
        if self.admission.dynamic and self._ready:
            self._ready = [
                (self.admission.admission_key_at(handle, step), index, handle)
                for _, index, handle in self._ready
                if self._live(handle)
            ]
            heapq.heapify(self._ready)

        # arrivals: everything due this step joins the ready queue in the
        # admission policy's order (terminal handles are dropped lazily)
        while self._pending and self._pending[0][0] <= step:
            _, _, handle = heapq.heappop(self._pending)
            if not self._live(handle):
                continue
            self._push_ready(handle)

        # overload watchdog: with arrivals counted, advance the hysteresis
        # state machine and shed the lowest-priority queued excess
        if self.watchdog is not None:
            self.watchdog.update(self.n_queued, step)
            excess = self.watchdog.shed_excess(self.n_queued)
            if excess > 0:
                self._shed_queued(excess, step)

        # preemption (tentative): the scheduling policy may evict active
        # sessions for strictly more urgent ready requests.  Victims leave
        # the batch *before* admission runs so the gate sees their slots and
        # arena reservations as free, but they are only preempted for real
        # (KV released, re-queued) once an admission actually consumes the
        # evicted capacity -- a refused candidate must never cost a victim
        # its prefill/decode progress
        pre_active = list(self._active)
        victims: List[RequestHandle] = []
        if self.scheduling.preemptive and self._ready:
            ready_handles = [h for *_, h in self._ready if self._live(h)]
            victims = self.scheduling.select_preemptions(
                ready_handles, pre_active, self.max_active - len(pre_active), step
            )
            for victim in victims:
                self._active.remove(victim)

        # admission into free slots, best admission key first; head-of-line:
        # a refused head (e.g. arena budget) stops admission for this step
        free = self.max_active - len(self._active)
        admitted: List[RequestHandle] = []
        while free > 0 and self._ready:
            _, _, handle = self._ready[0]
            if not self._live(handle):
                heapq.heappop(self._ready)  # counted out when it went terminal
                continue
            if not self.admission.may_admit(handle, self):
                break
            heapq.heappop(self._ready)
            self._active.append(handle)
            admitted.append(handle)
            self._queued_count -= 1
            free -= 1
            # pin the reservation now so later candidates in this same loop
            # are gated against it (admissions are never rolled back)
            self.admission.on_admit(handle, self)

        # commit or roll back the evictions: only as many victims stay
        # preempted as the admissions actually needed beyond the slots that
        # were already free; the rest rejoin the batch untouched
        if victims:
            used = max(0, len(admitted) - (self.max_active - len(pre_active)))
            restored, victims = victims[used:], victims[:used]
            if restored:
                victim_ids = set(map(id, victims))
                self._active = [
                    h for h in pre_active if id(h) not in victim_ids
                ] + admitted
            for victim in victims:
                # a policy eviction leaves trusted KV behind: with snapshots
                # on, the pages are copied off-arena instead of discarded and
                # the eventual resume skips re-prefill entirely
                victim.session.preempt(step, snapshot=self.kv_snapshots)
                self._push_ready(victim)
                self._queued_count += 1
                # realized eviction: its KV is gone, so its reservation is
                # too (restored victims above keep theirs untouched)
                self.admission.on_release(victim, self)

        # the sessions that kept their slots decode this step; prefilling
        # survivors rejoin the chunk budget below (continuous batching: old
        # and new requests share the same fused pass)
        evicted_ids = set(map(id, victims))
        survivors = [h for h in pre_active if id(h) not in evicted_ids]
        decoding = [
            h for h in survivors if h.session.state is SessionState.ACTIVE
        ]

        self._max_concurrency = max(self._max_concurrency, len(self._active))

        # admissions enter the chunked pipeline; older PREFILLING sessions
        # come first so the queue head always finishes first
        for handle in admitted:
            session = handle.session
            if session.state is SessionState.PREEMPTED:
                if session.has_snapshot:
                    # page restore, zero re-prefill passes: an ACTIVE session
                    # rejoins the decode batch this very step, a mid-prefill
                    # one rejoins the chunk scan below with its progress
                    # intact
                    if session.resume_from_snapshot(step) is SessionState.ACTIVE:
                        decoding.append(handle)
                else:
                    session.begin_resume(step)
            else:
                session.begin_admit(step)
        prefilling = [
            h for h in self._active if h.session.state is SessionState.PREFILLING
        ]
        # schedule-time arena probe: every session about to append KV rows
        # this step (prefill chunks and decode rows alike) is tested before
        # the fused forward; faulted ones never enter it
        if self._faults is not None and self.arena is not None:
            prefilling = self._check_arena_faults(prefilling, step)
            decoding = self._check_arena_faults(decoding, step)
        # spend the step's prefill-row budget in admission order: the head
        # always progresses (its chunk is clamped to >= 1 row even under a
        # zero-returning policy override, so the engine cannot livelock),
        # long prompts split across steps, later sessions may wait a step
        # entirely.  Forward-only models take whole prompts.
        budget = None
        if self.chunked_prefill:
            budget = self.admission.prefill_token_budget(self)
            if self.watchdog is not None:
                budget = self.watchdog.throttle(budget)
        chunked: List[RequestHandle] = []
        chunk_sizes: List[int] = []
        for handle in prefilling:
            remaining = handle.session.decoder.prefill_remaining
            if budget is None:
                take = remaining
            else:
                cap = budget if chunked else max(budget, 1)
                take = min(remaining, cap)
            if take <= 0:
                continue
            chunked.append(handle)
            chunk_sizes.append(take)
            if budget is not None:
                budget -= take
        prefill_rows = sum(chunk_sizes)
        draft_lists: Optional[List[List[int]]] = None
        if self._speculative is not None and decoding:
            draft_lists = self._build_drafts(decoding)
            if not any(draft_lists):
                # nothing proposed anywhere: plain one-token decode rows --
                # identical rows, no verify overhead
                draft_lists = None
        if chunked or decoding:
            emitted.update(
                GenerationSession.prefill_step_batch(
                    [h.session for h in chunked],
                    chunk_sizes,
                    [h.session for h in decoding],
                    step,
                    draft_tokens=draft_lists,
                )
            )
        # fold this step's accept outcomes into the per-session throttles
        # (quarantined commits left no outcome: a faulted step must not skew
        # the acceptance window)
        spec_proposed = spec_accepted = 0
        if self._speculative is not None:
            for handle in decoding:
                outcome = handle.session.last_spec_outcome
                if outcome is None:
                    continue
                handle.session.last_spec_outcome = None
                proposed, accepted = outcome
                spec_proposed += proposed
                spec_accepted += accepted
                throttle = self._spec_state.get(handle.request_id)
                if throttle is not None:
                    throttle.observe(proposed, accepted)
        recipients = chunked + decoding

        # commit-time faults the batch loops quarantined per-session: route
        # each to retry-with-backoff or FAILED before callbacks/retirement,
        # so the surviving rows' commits stand and the step stays atomic
        if self._faults is not None:
            self._route_commit_faults(recipients, step)

        for handle in recipients:
            # on_token fires once per token, in commit order, same step
            # timestamp (a speculative chunk commits several)
            for token in emitted.get(handle.request_id, ()):
                self._dispatch_token(handle, token, step)

        retired = 0
        for handle in list(self._active):
            if handle.session.is_finished:
                self._active.remove(handle)
                handle.session.release_kv()  # pages return to the pool now
                self._finished.append(handle)
                self._terminal.append(handle)
                self.admission.on_release(handle, self)
                self._spec_state.pop(handle.request_id, None)
                retired += 1
                self._fire_complete(handle, step)

        stats: Dict[str, int] = {
            "step": step,
            "emitted": sum(len(v) for v in emitted.values()),
            "admitted": len(admitted),
            "preempted": len(victims),
            "decoded": len(decoding),
            "prefill_rows": prefill_rows,
            "retired": retired,
            "active": len(self._active),
            "queued": self.n_queued,
        }
        if self._speculative is not None:
            stats["draft_proposed"] = spec_proposed
            stats["draft_accepted"] = spec_accepted
        if self.arena is not None:
            a = self.arena.stats
            stats["arena_pages_in_use"] = a.pages_in_use
            stats["arena_page_faults"] = a.page_faults
            stats["arena_gather_bytes_copied"] = a.gather_bytes_copied
        self.last_step_stats = stats

        self.current_step += 1
        return emitted

    def run(self, max_steps: int = 100_000) -> ServingReport:
        """Step until every submitted request resolves (or ``max_steps``).

        Hitting ``max_steps`` with work still queued/active no longer
        raises: the returned report carries ``truncated=True`` plus the
        leftover queue/batch counts, so partial results stay inspectable
        (and a caller that wants the old behaviour can assert on it).
        """
        while self.has_work and self.current_step < max_steps:
            self.step()
        return self.report()

    def drain(self, max_steps: int = 100_000) -> ServingReport:
        """Graceful stop: refuse new work, run the backlog dry, report.

        Every already-submitted request is served to its natural terminal
        state (further :meth:`submit` calls raise), so the arena's books
        balance in the final report -- zero pages in use, every fault freed.
        """
        self._closed = True
        return self.run(max_steps)

    def shutdown(self) -> ServingReport:
        """Immediate stop: resolve all outstanding work as ``SHED``, report.

        No further forward passes run; queued and active requests alike are
        terminally resolved (with their KV released and ``on_complete``
        fired) at the current step, so the engine still exits with balanced
        arena books -- just without serving the backlog.
        """
        self._closed = True
        step = self.current_step
        for handle in list(self._active):
            self._resolve(handle, SessionState.SHED, step)
        for heap in (self._pending, self._ready):
            for entry in heap:
                handle = entry[2]
                if self._live(handle):
                    self._resolve(handle, SessionState.SHED, step)
        self._pending.clear()
        self._ready.clear()
        self._timeouts.clear()
        return self.report()

    def report(self) -> ServingReport:
        """Snapshot of the terminally-resolved requests so far.

        Queued, still-active and cancelled sessions are excluded from the
        per-request metrics, so a mid-run call (while :attr:`has_work` is
        true) understates total tokens, throughput and the latency
        aggregates -- and is marked ``truncated`` with the leftover counts;
        :meth:`run` reports after draining (or marks the truncation).
        """
        metrics = [h.session.to_metrics() for h in self._terminal]
        policy = {
            "admission": self.admission.name,
            "scheduling": self.scheduling.name,
            "preemptions": sum(m.preemptions for m in metrics),
            "deadline_misses": sum(m.deadline_misses for m in metrics),
            "cancelled": len(self._cancelled),
            "failed": len(self._failed),
            "timed_out": len(self._timed_out),
            "shed": len(self._shed),
            "retries": sum(m.retries for m in metrics),
            "callback_errors": self._callback_errors,
        }
        if self._speculative is not None:
            # keys appear only when speculation is on, so a spec-off
            # engine's policy block stays byte-identical to older readers
            # (and the pinned golden); from_json tolerates both shapes
            draft_proposed = sum(m.draft_proposed for m in metrics)
            draft_accepted = sum(m.draft_accepted for m in metrics)
            spec_steps = sum(m.spec_steps for m in metrics)
            policy["draft_proposed"] = draft_proposed
            policy["draft_accepted"] = draft_accepted
            policy["mean_accepted_len"] = (
                draft_accepted / spec_steps if spec_steps else 0.0
            )
        return ServingReport(
            steps=self.current_step,
            max_concurrency=self._max_concurrency,
            requests=metrics,
            arena=self.arena.stats.to_json() if self.arena is not None else None,
            policy=policy,
            truncated=self.has_work,
            leftover_queued=self.n_queued,
            leftover_active=self.n_active,
        )
