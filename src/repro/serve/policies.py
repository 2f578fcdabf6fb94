"""Pluggable admission and scheduling policies for the serving engine.

The serving control plane is split into two small interfaces so that
request-lifecycle mechanics (owned by
:class:`~repro.serve.scheduler.ServingEngine`) stay separate from *decisions*:

* :class:`AdmissionPolicy` -- orders the ready queue (requests that have
  arrived but hold no slot) and gates whether its head may take a free slot
  right now.  Shipped: :class:`FIFOAdmission`, :class:`PriorityAdmission`,
  :class:`DeadlineAdmission`, and :class:`ArenaBudgetAdmission`, which queues
  requests instead of letting the paged KV arena grow past a configurable
  watermark of its ``max_pages`` budget.
* :class:`SchedulingPolicy` -- decides which active sessions to *preempt*
  when more urgent work is waiting.  Shipped: :class:`FCFSPolicy` (never
  preempts; with :class:`FIFOAdmission` it reproduces the pre-policy
  scheduler bit-exactly), :class:`PriorityPolicy` (higher ``priority`` evicts
  lower) and :class:`DeadlinePolicy` (earliest absolute deadline first).

Both interfaces see :class:`~repro.serve.scheduler.RequestHandle` objects,
which expose the immutable :class:`~repro.serve.session.Request`, the live
session, and a monotonically increasing ``index`` (submission order) for
deterministic tie-breaking.  All shipped policies derive their ordering keys
from *static* request attributes only; combined with strict-inequality
preemption this guarantees the engine cannot livelock -- the most urgent
unfinished request is never preempted, so every step makes progress.

Writing a custom policy
-----------------------

Subclass one of the two ABCs.  An admission policy needs
``admission_key(handle)`` (smaller tuples admit first) and may override
``may_admit(handle, engine)`` to gate on engine state (queue depths, arena
occupancy via ``engine.arena``).  A scheduling policy needs
``urgency_key(handle, step)`` and, if ``preemptive``, may tune
``preempts(waiting, active, step)``; the default base-class
``select_preemptions`` then evicts the least urgent active sessions for
strictly more urgent waiting ones.  Keep keys static per request unless you
also re-verify drain behaviour -- see ``src/repro/serve/README.md``.
"""

from __future__ import annotations

import math
import warnings
import zlib
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cluster import Replica
    from .scheduler import RequestHandle, ServingEngine
    from .session import Request

__all__ = [
    "AdmissionPolicy",
    "FIFOAdmission",
    "PriorityAdmission",
    "DeadlineAdmission",
    "ArenaBudgetAdmission",
    "AgingPriorityAdmission",
    "AdaptivePrefillAdmission",
    "SchedulingPolicy",
    "FCFSPolicy",
    "PriorityPolicy",
    "DeadlinePolicy",
    "make_policies",
    "RoutingPolicy",
    "RoundRobinRouting",
    "LeastLoadedRouting",
    "PrefixAffinityRouting",
    "make_routing",
]


def _deadline_value(handle: "RequestHandle") -> float:
    """Absolute deadline step of a handle's request (inf when none)."""
    deadline = handle.request.deadline_step
    return math.inf if deadline is None else float(deadline)


# Shared ordering keys.  Each discipline's admission policy and scheduling
# policy MUST sort by the same key -- the engine's preemption bookkeeping
# (victims paired against the most urgent waiting requests, which then take
# the freed slots in admission order) relies on that alignment -- so both
# hierarchies reference these functions instead of re-implementing tuples.


def _arrival_key(handle: "RequestHandle") -> Tuple:
    return (handle.request.arrival_step, handle.index)


def _priority_key(handle: "RequestHandle") -> Tuple:
    return (-handle.request.priority,) + _arrival_key(handle)


def _edf_key(handle: "RequestHandle") -> Tuple:
    return (_deadline_value(handle),) + _arrival_key(handle)


# -- admission ----------------------------------------------------------------


# one-shot process-wide latch: pairing ArenaBudgetAdmission with an engine
# that has no arena is legal (the gate just admits everything) but almost
# certainly a misconfiguration, so the first such submit warns once
_arena_budget_warned = False


class AdmissionPolicy(ABC):
    """Orders the ready queue and gates admissions into free batch slots.

    The engine keeps its ready queue as a heap keyed by
    :meth:`admission_key`; each step it pops eligible handles in key order
    into free slots, asking :meth:`may_admit` before each pop.  Admission is
    head-of-line: when the best-ranked handle is refused, the engine stops
    admitting for this step rather than skipping ahead (no starvation of the
    queue head by smaller requests behind it).
    """

    name = "admission"
    #: When true the engine re-keys the whole ready queue every step via
    #: :meth:`admission_key_at` (keys may depend on the current step, e.g.
    #: aging).  Static-key policies keep the cheap push-once heap.
    dynamic = False

    @abstractmethod
    def admission_key(self, handle: "RequestHandle") -> Tuple:
        """Sort key of one ready handle; the smallest key admits first."""

    def admission_key_at(self, handle: "RequestHandle", step: int) -> Tuple:
        """Step-aware ordering key; defaults to the static ``admission_key``.

        Only consulted when :attr:`dynamic` is true -- the engine then
        recomputes every queued handle's key each step, so time-varying
        orderings (anti-starvation aging, wait-time boosts) stay correct.
        Must remain deterministic for a given ``(handle, step)``.
        """
        return self.admission_key(handle)

    def may_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> bool:
        """Resource gate consulted right before ``handle`` takes a slot."""
        return True

    def prefill_token_budget(self, engine: "ServingEngine") -> Optional[int]:
        """Prefill rows the engine may spend this step (``None`` = no cap).

        The TTFT-vs-decode-throughput knob of the chunked prefill pipeline:
        each step the engine feeds at most this many prompt rows (summed over
        every ``PREFILLING`` session, head of the admission order first) into
        the fused pass alongside the decode tokens.  The default defers to
        the engine's ``prefill_token_budget`` constructor knob; policies can
        override it to spend the step budget adaptively (e.g. throttle
        prefill while many sessions are decoding, or open the floodgates
        when the ready queue is deep).
        """
        return engine.prefill_token_budget

    def check_submit(self, request, engine: "ServingEngine") -> None:
        """Validate a request at submit time; raise ``ValueError`` to reject.

        Runs inside :meth:`ServingEngine.submit` before any engine state is
        touched, so a policy can refuse requests that could *never* be
        served (rather than queueing them forever or crashing mid-run).
        The default accepts everything.
        """

    def on_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        """Lifecycle hook: ``handle`` just took a slot.

        Fired by the engine immediately after each admission commits (still
        inside the admission loop, so later candidates in the same step are
        gated against whatever state this call pins).  Stateful policies use
        it to record per-handle resource reservations; the default is a
        no-op.
        """

    def on_release(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        """Lifecycle hook: ``handle`` left the batch for good (or for now).

        Fired on retirement, on cancellation (queued *or* active -- a
        cancelled request must stop being charged immediately), and on a
        realized preemption (rolled-back tentative victims keep their
        state).  Must be idempotent and safe for handles that were never
        admitted.  The default is a no-op.
        """


class FIFOAdmission(AdmissionPolicy):
    """Earliest arrival first, submission order on ties (the classic queue)."""

    name = "fifo"

    def admission_key(self, handle: "RequestHandle") -> Tuple:
        return _arrival_key(handle)


class PriorityAdmission(AdmissionPolicy):
    """Highest ``Request.priority`` first; FIFO within a priority class."""

    name = "priority"

    def admission_key(self, handle: "RequestHandle") -> Tuple:
        return _priority_key(handle)


class DeadlineAdmission(AdmissionPolicy):
    """Earliest absolute deadline first; deadline-free requests go last."""

    name = "deadline"

    def admission_key(self, handle: "RequestHandle") -> Tuple:
        return _edf_key(handle)


class ArenaBudgetAdmission(AdmissionPolicy):
    """Queue requests instead of growing the KV arena past a watermark.

    Wraps an ``inner`` ordering policy (FIFO by default) and reserves, for
    every admitted request, its *whole lifetime* of KV rows -- ``prompt +
    max_new_tokens - 1`` tokens, the exact row count an unpreempted run
    appends.  A candidate is admitted only while the sum of all active
    reservations plus its own stays within ``watermark * max_pages``.
    Reserving lifetimes (rather than reading current occupancy, which lags:
    pages materialise at prefill and grow every decode step) means admitted
    requests can never exhaust the pool mid-decode, so the engine trades
    queueing delay for a hard occupancy bound (the ROADMAP's "reject/queue
    when the pool is near ``max_pages`` instead of growing or raising").

    Engines without an arena (a one-shot ``RuntimeWarning`` flags the inert
    pairing), arenas without a ``max_pages`` budget, and an idle engine
    (nothing active -- refusing then would deadlock the queue) admit
    unconditionally.

    Reservations are pinned per handle at admission (:meth:`on_admit`) and
    dropped the moment the handle stops holding KV (:meth:`on_release`:
    retirement, realized preemption, or cancellation -- including a cancel
    while still queued, which must not leave a phantom charge).  With the
    engine's ``prefix_cache`` enabled, an admission is charged only for its
    *novel suffix*: pages fully covered by the arena's prefix index are
    shared mappings, not new allocations (see :meth:`_charged_pages`).

    Combined with a *preemptive* scheduling policy (not one of the shipped
    pairs), the watermark can transiently overshoot: admissions are gated
    while evictions are still tentative, and an eviction rolled back after a
    partial admission restores its reservation.  The ``max_pages`` hard
    bound itself is never at stake -- reservations are bookkeeping, and the
    pool still grows page by page only as rows are appended.
    """

    def __init__(
        self,
        inner: Optional[AdmissionPolicy] = None,
        watermark: float = 1.0,
    ) -> None:
        if not 0.0 < watermark <= 1.0:
            raise ValueError("watermark must be in (0, 1]")
        self.inner = inner if inner is not None else FIFOAdmission()
        self.watermark = watermark

    @property
    def name(self) -> str:
        return f"arena-budget({self.inner.name})"

    @property
    def dynamic(self) -> bool:
        # the wrapper only gates resources; ordering -- including dynamic
        # re-keying (e.g. a wrapped AgingPriorityAdmission) -- is the inner
        # policy's, so every ordering hook delegates
        return self.inner.dynamic

    def admission_key(self, handle: "RequestHandle") -> Tuple:
        return self.inner.admission_key(handle)

    def admission_key_at(self, handle: "RequestHandle", step: int) -> Tuple:
        return self.inner.admission_key_at(handle, step)

    def prefill_token_budget(self, engine: "ServingEngine") -> Optional[int]:
        return self.inner.prefill_token_budget(engine)

    @staticmethod
    def _request_pages(arena, request) -> int:
        # early EOS only under-runs this, so the reservation stays safe
        return arena.pages_needed(
            len(request.prompt_tokens) + request.max_new_tokens - 1
        )

    @classmethod
    def _lifetime_pages(cls, arena, handle: "RequestHandle") -> int:
        return cls._request_pages(arena, handle.request)

    def _charged_pages(
        self, arena, handle: "RequestHandle", engine: "ServingEngine"
    ) -> int:
        """Pages this admission is charged: lifetime minus cached prefix.

        With the engine's ``prefix_cache`` on, pages the session will *map*
        from the arena's prefix index are shared, not allocated, so only the
        novel suffix counts against the watermark.  Only fully cached pages
        are discounted (a partially matched page is copy-on-written into a
        fresh one the moment the session appends, so it is charged in full).
        The probe keys on the session's replay stream -- prompt plus any
        tokens generated before a preemption -- which is exactly what a
        resume re-prefills.

        A **snapshot-preempted** handle never re-prefills: its resume
        faults back exactly the snapshot's *copied* pages and re-attaches
        the *referenced* (shared) ones, so the charge is the lifetime
        count minus the referenced pages -- not the novel-suffix formula,
        whose prefix probe describes a replay that will never run (and
        would double-discount pages the snapshot already pins).
        """
        pages = self._lifetime_pages(arena, handle)
        session = handle.session
        snapshot = getattr(session, "kv_snapshot", None)
        if snapshot is not None:
            return max(0, pages - snapshot.pages_referenced)
        if not getattr(engine, "prefix_cache", False):
            return pages
        replay = list(session.request.prompt_tokens) + list(
            session.generated_tokens
        )
        reused = arena.probe_prefix(replay)
        return max(0, pages - reused // arena.page_size)

    def on_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        """Pin the admitted handle's page reservation on the handle itself.

        Recorded at admission time (before the session's prefill runs) so
        the suffix discount reflects the prefix index as the gate saw it;
        later candidates in the same step already count this reservation.
        """
        self.inner.on_admit(handle, engine)
        arena = engine.arena
        if arena is None or arena.max_pages is None:
            return
        handle.reserved_pages = self._charged_pages(arena, handle, engine)

    def on_release(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        """Drop the reservation the moment the handle stops holding KV.

        Covers retirement, realized preemption, and cancellation -- a
        request cancelled while still *queued* never held a reservation
        (``reserved_pages`` is ``None``), and one cancelled while active
        stops being charged immediately rather than haunting the watermark
        until the step it would have retired.
        """
        self.inner.on_release(handle, engine)
        handle.reserved_pages = None

    def check_submit(self, request, engine: "ServingEngine") -> None:
        """Reject requests whose lifetime could never fit ``max_pages``.

        Without this, such a request would wait until the engine idles, be
        force-admitted, and crash the whole run with ``arena exhausted``
        mid-prefill -- rejecting it up front with a clear error keeps the
        queue serviceable.
        """
        self.inner.check_submit(request, engine)
        arena = engine.arena
        if arena is None:
            global _arena_budget_warned
            if not _arena_budget_warned:
                _arena_budget_warned = True
                warnings.warn(
                    "ArenaBudgetAdmission is paired with an engine that has "
                    "no KV arena; the page-budget gate is inert and every "
                    "request admits unconditionally",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        if arena.max_pages is None:
            return
        needed = self._request_pages(arena, request)
        if needed > arena.max_pages:
            raise ValueError(
                f"request {request.request_id!r} needs {needed} arena pages "
                f"for its lifetime ({len(request.prompt_tokens)} prompt + "
                f"{request.max_new_tokens} new tokens), over the max_pages "
                f"budget ({arena.max_pages}); it can never be admitted"
            )

    def may_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> bool:
        arena = engine.arena
        if arena is None or arena.max_pages is None:
            return True
        if not self.inner.may_admit(handle, engine):
            return False
        if engine.n_active == 0:
            return True  # forced progress: an empty engine must not starve
        reserved = sum(
            h.reserved_pages
            if h.reserved_pages is not None
            else self._lifetime_pages(arena, h)
            for h in engine.active_handles
        )
        return arena.within_watermark(
            reserved + self._charged_pages(arena, handle, engine),
            watermark=self.watermark,
        )


class AgingPriorityAdmission(AdmissionPolicy):
    """Priority admission with anti-starvation aging of queued requests.

    A request's *effective* priority is its static class boosted by one for
    every ``aging_steps`` engine steps it has waited since arrival::

        effective(h, step) = h.priority + (step - h.arrival_step) // aging_steps

    so a low-priority request stuck behind a stream of urgent arrivals
    eventually out-ranks them and cannot starve (the ROADMAP's
    "aging/anti-starvation priorities" item).  Ordering within an effective
    class stays FIFO and ties break on the submission index, so runs are
    deterministic.  The policy is :attr:`dynamic`: the engine re-keys its
    ready queue every step through :meth:`admission_key_at`.

    Pair it with the non-preemptive :class:`FCFSPolicy` (what
    ``make_policies("aging")`` returns): preemption driven by *static*
    priority would evict exactly the aged sessions this policy fought to
    admit, reintroducing the starvation loop.
    """

    name = "aging-priority"
    dynamic = True

    def __init__(self, aging_steps: int = 16) -> None:
        if aging_steps < 1:
            raise ValueError("aging_steps must be >= 1")
        self.aging_steps = aging_steps

    def effective_priority(self, handle: "RequestHandle", step: int) -> int:
        waited = max(0, step - handle.request.arrival_step)
        return handle.request.priority + waited // self.aging_steps

    def admission_key(self, handle: "RequestHandle") -> Tuple:
        # static fallback (push-time ordering before the first re-key)
        return _priority_key(handle)

    def admission_key_at(self, handle: "RequestHandle", step: int) -> Tuple:
        return (-self.effective_priority(handle, step),) + _arrival_key(handle)


class AdaptivePrefillAdmission(AdmissionPolicy):
    """Throttle chunked prefill while the fleet is decode-heavy.

    Wraps an ``inner`` ordering policy (FIFO by default) and overrides only
    :meth:`prefill_token_budget`: while at least ``decode_threshold`` of the
    active handles are decoding (state ``ACTIVE``, past their prefill), the
    step's prefill-row budget is clamped to ``throttled_budget`` rows, so
    incoming prompts trickle in instead of stealing a decode-heavy step's
    fused pass -- the inter-token latency of the established streams stays
    flat and admissions still progress (the engine clamps the head's chunk
    to >= 1 row, so no livelock).  Below the threshold the engine's own
    ``prefill_token_budget`` knob applies unchanged; an engine whose active
    set never crosses the threshold behaves bit-identically to the bare
    ``inner`` policy.

    Ordering, gating and lifecycle hooks all delegate to ``inner``
    (mirroring :class:`ArenaBudgetAdmission`), so the throttle composes
    with any ordering discipline -- including a dynamic one.
    """

    def __init__(
        self,
        inner: Optional[AdmissionPolicy] = None,
        throttled_budget: int = 4,
        decode_threshold: float = 0.75,
    ) -> None:
        if throttled_budget < 1:
            raise ValueError(
                f"throttled_budget must be >= 1, got {throttled_budget}"
            )
        if not 0.0 < decode_threshold <= 1.0:
            raise ValueError(
                f"decode_threshold must be in (0, 1], got {decode_threshold}"
            )
        self.inner = inner if inner is not None else FIFOAdmission()
        self.throttled_budget = int(throttled_budget)
        self.decode_threshold = float(decode_threshold)

    @property
    def name(self) -> str:
        return f"adaptive-prefill({self.inner.name})"

    @property
    def dynamic(self) -> bool:
        return self.inner.dynamic

    def admission_key(self, handle: "RequestHandle") -> Tuple:
        return self.inner.admission_key(handle)

    def admission_key_at(self, handle: "RequestHandle", step: int) -> Tuple:
        return self.inner.admission_key_at(handle, step)

    def may_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> bool:
        return self.inner.may_admit(handle, engine)

    def check_submit(self, request, engine: "ServingEngine") -> None:
        self.inner.check_submit(request, engine)

    def on_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        self.inner.on_admit(handle, engine)

    def on_release(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        self.inner.on_release(handle, engine)

    def prefill_token_budget(self, engine: "ServingEngine") -> Optional[int]:
        from .session import SessionState

        base = self.inner.prefill_token_budget(engine)
        active = engine.active_handles
        if not active:
            return base
        decoding = sum(
            1 for h in active if h.session.state is SessionState.ACTIVE
        )
        if decoding / len(active) < self.decode_threshold:
            return base
        if base is None:
            return self.throttled_budget
        return min(base, self.throttled_budget)


# -- scheduling ---------------------------------------------------------------


class SchedulingPolicy(ABC):
    """Decides service urgency and preemption among admitted sessions.

    Every active session decodes each step (continuous batching); the lever a
    scheduling policy holds is *eviction*: :meth:`select_preemptions` names
    active sessions to preempt so that strictly more urgent waiting requests
    can take their slots (and their arena pages) this very step.

    The engine consults :meth:`select_preemptions` only when
    :attr:`preemptive` is true, and treats the selection as *tentative*: a
    victim is preempted for real only if the subsequent admission pass
    actually uses its evicted capacity; otherwise it keeps its slot and KV
    untouched (so a selection wasted on an admission-gated candidate costs
    nothing).
    """

    name = "scheduling"
    preemptive = False

    @abstractmethod
    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        """Service-urgency key (smaller = more urgent, never preempted first)."""

    def preempts(
        self, waiting: "RequestHandle", active: "RequestHandle", step: int
    ) -> bool:
        """Whether ``waiting`` is urgent enough to evict ``active``.

        The default is a strict key comparison; policies may loosen it (e.g.
        compare only the priority class) to avoid churn between requests that
        tie on the attribute that matters.
        """
        return self.urgency_key(waiting, step) < self.urgency_key(active, step)

    def select_preemptions(
        self,
        ready: Sequence["RequestHandle"],
        active: Sequence["RequestHandle"],
        free_slots: int,
        step: int,
    ) -> List["RequestHandle"]:
        """Pick the active sessions to evict for this step's admissions.

        The most urgent waiting handles first absorb any free slots; each
        one beyond that evicts the least urgent remaining active session iff
        :meth:`preempts` holds strictly.  Victims are returned most-evictable
        first; the engine releases their pages before running admission, so
        the freed slots (and KV budget) are taken in the same step.
        """
        if not self.preemptive or not ready or not active:
            return []
        waiting = sorted(ready, key=lambda h: self.urgency_key(h, step))
        survivors = sorted(active, key=lambda h: self.urgency_key(h, step))
        victims: List["RequestHandle"] = []
        spare = free_slots
        for candidate in waiting:
            if spare > 0:
                spare -= 1  # a free slot serves this arrival without eviction
                continue
            if not survivors:
                break
            if self.preempts(candidate, survivors[-1], step):
                victims.append(survivors.pop())
                # the freed slot is consumed by ``candidate`` itself
            else:
                break
        return victims


class FCFSPolicy(SchedulingPolicy):
    """First come, first served; never preempts.

    With :class:`FIFOAdmission` this is the engine's default pairing, whose
    report (tokens, metrics and arena counters) the golden and fuzz suites
    pin.
    """

    name = "fcfs"
    preemptive = False

    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        return _arrival_key(handle)


class PriorityPolicy(SchedulingPolicy):
    """Strict priority service: higher ``Request.priority`` evicts lower.

    Preemption compares *priority classes only* -- a waiting request must
    carry strictly higher priority than the victim, so equal-priority
    requests never churn each other's KV.  Within a class, service order is
    FIFO via the urgency key.
    """

    name = "priority"
    preemptive = True

    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        return _priority_key(handle)

    def preempts(
        self, waiting: "RequestHandle", active: "RequestHandle", step: int
    ) -> bool:
        return waiting.request.priority > active.request.priority


class DeadlinePolicy(SchedulingPolicy):
    """Earliest-deadline-first service with deadline-driven preemption.

    Requests without a deadline are served last and preempted first.  A
    waiting request evicts an active one only when its absolute deadline is
    strictly earlier, so identical deadlines never ping-pong.
    """

    name = "deadline"
    preemptive = True

    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        return _edf_key(handle)

    def preempts(
        self, waiting: "RequestHandle", active: "RequestHandle", step: int
    ) -> bool:
        return _deadline_value(waiting) < _deadline_value(active)


def make_policies(name: str) -> Tuple[AdmissionPolicy, SchedulingPolicy]:
    """Admission/scheduling pair for a named serving discipline.

    ``"fcfs"`` -> (:class:`FIFOAdmission`, :class:`FCFSPolicy`);
    ``"priority"`` -> (:class:`PriorityAdmission`, :class:`PriorityPolicy`);
    ``"deadline"`` -> (:class:`DeadlineAdmission`, :class:`DeadlinePolicy`);
    ``"aging"`` -> (:class:`AgingPriorityAdmission`, :class:`FCFSPolicy`) --
    aged effective priorities order admission while service stays
    non-preemptive, so waiting always pays off (see the class docstring).
    The pairs keep the admission order aligned with the service order, which
    is what ``examples/serving_simulation.py --policy`` and the serving
    benchmark use.
    """
    pairs = {
        "fcfs": (FIFOAdmission, FCFSPolicy),
        "priority": (PriorityAdmission, PriorityPolicy),
        "deadline": (DeadlineAdmission, DeadlinePolicy),
        "aging": (AgingPriorityAdmission, FCFSPolicy),
    }
    if name not in pairs:
        raise KeyError(f"unknown policy {name!r}; available: {sorted(pairs)}")
    admission_cls, scheduling_cls = pairs[name]
    return admission_cls(), scheduling_cls()


# -- cluster routing ----------------------------------------------------------


class RoutingPolicy(ABC):
    """Chooses the replica a cluster-level request lands on.

    The third policy interface, mirroring :class:`AdmissionPolicy`: the
    cluster control plane (:class:`~repro.serve.cluster.ClusterEngine`) owns
    the mechanics -- dispatch timing, session affinity, failover re-routing --
    and delegates only the *placement decision* here.  ``route`` sees the
    full replica tuple (including replicas currently marked down, so a
    policy can keep stable positions) and must return a replica whose
    ``up`` flag is true; the cluster raises if it does not.  Policies must
    be deterministic functions of (request, replica state, own internal
    state): no wall clock, no unseeded randomness -- that is what lets any
    ``(routing policy, D)`` configuration replay bit-for-bit.
    """

    #: short name recorded in :class:`~repro.serve.cluster.ClusterReport`
    name = "routing"

    @abstractmethod
    def route(
        self, request: "Request", replicas: Sequence["Replica"], step: int
    ) -> "Replica":
        """Pick the replica for ``request`` at cluster step ``step``."""

    @staticmethod
    def healthy(replicas: Sequence["Replica"]) -> List["Replica"]:
        """The routable (up) subset, in replica-index order."""
        return [r for r in replicas if r.up]


class RoundRobinRouting(RoutingPolicy):
    """Cycle through replica indices, skipping ones that are down.

    The cursor advances over *global* indices (not the healthy subset), so
    the assignment pattern is stable while everything is up and degrades
    gracefully around a down replica.  With D=1 every request lands on
    replica 0, which is the cluster's bit-identity anchor against a bare
    :class:`~repro.serve.scheduler.ServingEngine`.
    """

    name = "rr"

    def __init__(self) -> None:
        self._cursor = 0

    def route(
        self, request: "Request", replicas: Sequence["Replica"], step: int
    ) -> "Replica":
        n = len(replicas)
        for _ in range(n):
            replica = replicas[self._cursor % n]
            self._cursor += 1
            if replica.up:
                return replica
        raise RuntimeError("no healthy replica to route to")


class LeastLoadedRouting(RoutingPolicy):
    """Send each request to the emptiest replica.

    Load is ``(queued + active requests, arena pages in use, index)`` --
    queue depth dominates, KV occupancy breaks queue ties, and the replica
    index makes the choice deterministic when replicas are truly identical.
    """

    name = "least-loaded"

    def route(
        self, request: "Request", replicas: Sequence["Replica"], step: int
    ) -> "Replica":
        up = self.healthy(replicas)
        if not up:
            raise RuntimeError("no healthy replica to route to")
        return min(up, key=lambda r: (r.queue_load, r.pages_in_use, r.index))


class PrefixAffinityRouting(RoutingPolicy):
    """Hash the prompt head so shared-prefix requests share a replica.

    Requests whose first ``head_tokens`` prompt tokens match hash to the
    same *home* replica, which is where the prefix cache that can serve
    them lives -- spreading a shared-prefix group round-robin would pay the
    prefix miss once per replica instead of once per fleet.  The hash is
    ``zlib.crc32`` over the token ids (Python's builtin ``hash`` is
    per-process salted and would break replay).  A down home replica
    linear-probes to the next healthy index, so the group re-homes
    deterministically during failover and returns after recovery.
    """

    name = "affinity"

    def __init__(self, head_tokens: int = 32) -> None:
        if head_tokens < 1:
            raise ValueError(f"head_tokens must be >= 1, got {head_tokens}")
        self.head_tokens = head_tokens

    def prompt_key(self, request: "Request") -> int:
        head = request.prompt_tokens[: self.head_tokens]
        return zlib.crc32(",".join(map(str, head)).encode("ascii"))

    def route(
        self, request: "Request", replicas: Sequence["Replica"], step: int
    ) -> "Replica":
        n = len(replicas)
        home = self.prompt_key(request) % n
        for offset in range(n):
            replica = replicas[(home + offset) % n]
            if replica.up:
                return replica
        raise RuntimeError("no healthy replica to route to")


def make_routing(name: str) -> RoutingPolicy:
    """Routing policy for a named strategy.

    ``"rr"`` -> :class:`RoundRobinRouting`; ``"least-loaded"`` ->
    :class:`LeastLoadedRouting`; ``"affinity"`` ->
    :class:`PrefixAffinityRouting` (default prompt head of 32 tokens).
    These are the names ``examples/serving_simulation.py --routing`` and the
    cluster benchmark block accept.
    """
    factories = {
        "rr": RoundRobinRouting,
        "least-loaded": LeastLoadedRouting,
        "affinity": PrefixAffinityRouting,
    }
    if name not in factories:
        raise KeyError(f"unknown routing {name!r}; available: {sorted(factories)}")
    return factories[name]()
