"""Policy-driven batched serving layer over one shared MCBP engine.

This package turns the single-stream functional reproduction into a
multi-tenant serving simulator with a pluggable control plane:

* :mod:`repro.serve.session` -- per-request state (KV caches, lifecycle
  timestamps, traffic counters) built on
  :class:`~repro.model.generation.IncrementalDecoder`, including the
  preempt/resume state machine;
* :mod:`repro.serve.kv_arena` -- a shared paged KV arena
  (:class:`PagedKVArena`): preallocated per-layer page pools, per-session
  page tables, occupancy watermarks for admission control, and an
  incrementally maintained batch view for attention;
* :mod:`repro.serve.policies` -- the pluggable
  :class:`AdmissionPolicy` / :class:`SchedulingPolicy` interfaces plus the
  shipped FIFO / priority / deadline / arena-budget implementations;
* :mod:`repro.serve.scheduler` -- the :class:`ServingEngine` facade (request
  lifecycle: ``submit() -> RequestHandle``, ``cancel``, streaming and
  completion callbacks, ``step``/``run``) wrapped around the batched
  execution core.

Execution is *fused*: each engine step builds one mixed batch -- every
decoding session's token as a one-row chunk plus up to
``prefill_token_budget`` ragged prompt chunk rows from the ``PREFILLING``
sessions (admissions and preemption resumes alike) -- and advances it with
one call.  Models exposing ``prefill_batch`` (the quantised transformer)
run a single forward pass for the whole batch, one GEMM per weight matrix
and one ragged attention per layer, with bit-identical tokens and
statistics to solo ``generate()``; forward-only models run each stream's
chunk through ``forward`` (whole prompts, one chunk each).

KV storage is *paged*: every session's per-layer keys/values live as
fixed-size pages inside one :class:`PagedKVArena` (vLLM-style), read by
batched attention through an incrementally maintained view that copies only
``O(B * hidden)`` bytes per step.  Finished *and preempted* sessions return
their pages to the pool, so occupancy tracks live tokens and preemption is
how priority/deadline policies reclaim KV budget for urgent work; the
page-fault / occupancy / copy-traffic counters surface in
:meth:`ServingReport.to_json` next to the per-policy preemption and
deadline-miss counts.  Two opt-in capacity levers layer on top:
**snapshot preemption** (``ServingEngine(kv_snapshots=True)``) copies a
victim's pages off-arena and faults them back on resume -- zero re-prefill
forward passes, bit-identical tokens *and* metrics -- and **int8 KV pages**
(``kv_dtype="int8"``) store pool rows quantised with per-page scales for an
~8x smaller arena and snapshots (:class:`KVDtype`, :class:`KVSnapshot`).

The failure model lives in :mod:`repro.serve.faults`: a deterministic,
seedable :class:`FaultInjector` (driven by a :class:`FaultPlan`) threads
through the arena, the sessions and the callback dispatch; the engine
hardens the request lifecycle around it with per-request timeouts, capped
exponential-backoff retries (bit-identical recovered token streams),
failure isolation (one faulted row never aborts its batch siblings),
hysteretic load shedding (:class:`LoadShedWatchdog`) and graceful
``drain()`` / ``shutdown()``.  Every request ends in exactly one terminal
state -- ``FINISHED`` / ``CANCELLED`` / ``FAILED`` / ``TIMED_OUT`` /
``SHED`` -- recorded as :attr:`RequestMetrics.outcome`.

Decode throughput has its own opt-in lever, **speculative multi-token
decode** (:mod:`repro.serve.speculative`): a deterministic
:class:`Drafter` (:class:`NGramDrafter` prompt/history echo, or the
:class:`TruncatedBitDrafter` built from the target's own truncated
quantised LM head) proposes up to ``k`` tokens per decoding session, the
engine verifies the ``1 + k`` rows inside the *same* fused batched pass,
and the greedy accept rule plus arena rollback
(:meth:`PagedKVArena.truncate_session`) keeps committed token streams
bit-identical to one-token decode (``ServingEngine(speculative=...)``,
adaptive per-session throttling via :class:`SpeculationConfig`).

Above the single engine sits the fleet layer, :mod:`repro.serve.cluster`:
a :class:`ClusterEngine` multiplexes one traffic stream across ``D``
data-parallel :class:`ServingEngine` replicas behind a pluggable
:class:`RoutingPolicy` (round-robin, least-loaded, prefix-affinity), with
session affinity, deterministic replica failover (health-window tripping,
queued-backlog re-routing, cooldown recovery) and per-replica fault streams
split from one seed; :class:`ClusterReport` aggregates the per-replica
reports into fleet-wide percentiles, a load-imbalance coefficient and
prefix-hit locality.  ``D=1`` with round-robin is bit-identical to a bare
engine.

See ``src/repro/serve/README.md`` for the API guide, the failure model and
how to write a custom policy.
"""

from .cluster import ClusterEngine, ClusterHandle, ClusterReport, Replica
from .faults import (
    FAULT_SITES,
    FailureInfo,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCallbackError,
    LoadShedWatchdog,
    SessionComputeFault,
    TransientArenaFault,
)
from .kv_arena import ArenaStats, KVDtype, KVSnapshot, PagedKVArena
from .policies import (
    AdaptivePrefillAdmission,
    AdmissionPolicy,
    AgingPriorityAdmission,
    ArenaBudgetAdmission,
    DeadlineAdmission,
    DeadlinePolicy,
    FCFSPolicy,
    FIFOAdmission,
    LeastLoadedRouting,
    PrefixAffinityRouting,
    PriorityAdmission,
    PriorityPolicy,
    RoundRobinRouting,
    RoutingPolicy,
    SchedulingPolicy,
    make_policies,
    make_routing,
)
from .scheduler import (
    RequestHandle,
    RequestMetrics,
    ServingEngine,
    ServingReport,
)
from .session import GenerationSession, Request, SessionState, TERMINAL_STATES
from .speculative import (
    Drafter,
    NGramDrafter,
    SpeculationConfig,
    TruncatedBitDrafter,
)

__all__ = [
    "AdaptivePrefillAdmission",
    "AdmissionPolicy",
    "AgingPriorityAdmission",
    "ArenaBudgetAdmission",
    "ArenaStats",
    "ClusterEngine",
    "ClusterHandle",
    "ClusterReport",
    "DeadlineAdmission",
    "DeadlinePolicy",
    "Drafter",
    "FAULT_SITES",
    "FCFSPolicy",
    "FIFOAdmission",
    "FailureInfo",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GenerationSession",
    "InjectedCallbackError",
    "KVDtype",
    "KVSnapshot",
    "LeastLoadedRouting",
    "LoadShedWatchdog",
    "NGramDrafter",
    "PagedKVArena",
    "PrefixAffinityRouting",
    "PriorityAdmission",
    "PriorityPolicy",
    "Replica",
    "Request",
    "RequestHandle",
    "RequestMetrics",
    "RoundRobinRouting",
    "RoutingPolicy",
    "SchedulingPolicy",
    "ServingEngine",
    "ServingReport",
    "SessionComputeFault",
    "SessionState",
    "SpeculationConfig",
    "TERMINAL_STATES",
    "TransientArenaFault",
    "TruncatedBitDrafter",
    "make_policies",
    "make_routing",
]
