"""Multi-replica cluster serving: router, session affinity, failover.

The fleet control plane of the "millions of users" arc.  A
:class:`ClusterEngine` owns ``D`` independent
:class:`~repro.serve.scheduler.ServingEngine` replicas -- each with its own
paged KV arena, admission/scheduling policies and (optionally) its own
seeded :class:`~repro.serve.faults.FaultInjector` stream -- behind a
pluggable :class:`~repro.serve.policies.RoutingPolicy`:

* ``rr`` -- round-robin over healthy replicas (the bit-identity anchor:
  D=1 round-robin reproduces a bare engine exactly);
* ``least-loaded`` -- emptiest replica by (queue depth, arena occupancy);
* ``affinity`` -- prompt-head hashing so shared-prefix requests land on
  the replica whose prefix cache already holds their pages.

Admission is two-level: submissions wait in one cluster-wide arrival queue
(a min-heap on ``(arrival_step, submission order)``) and are routed to a
replica *at their arrival step*; from there the replica's own admission
policy (watermarks, arena budgets) takes over.  Because dispatch preserves
the ``(arrival_step, submission index)`` order and happens before the
replica's step runs, a request observes the exact same admission schedule a
bare engine would have given it.

Failover: every replica carries a health window over its failure events
(fault-injector fires + terminal ``FAILED`` requests).  A replica whose
window trips ``failover_threshold`` is marked DOWN: it receives no new
routes, its *queued* (never-admitted) requests are withdrawn and re-routed
to healthy replicas at the same cluster step (original ``arrival_step``
preserved, so latency and timeout accounting survive the move), while its
admitted work keeps stepping to a natural terminal state -- a drain, not a
kill.  After ``failover_cooldown`` steps the replica is marked UP and
routable again.  Sessions re-routed this way update the cluster's affinity
map, so subsequent requests with the same affinity key follow them.

Everything is step-domain deterministic.  The only randomness -- per-replica
fault streams -- is derived by spawning one ``numpy`` ``SeedSequence`` per
replica from the cluster ``seed``, so any ``(routing policy, D, fault
plan)`` configuration replays bit-for-bit: same routes, same failovers,
same tokens, same :class:`ClusterReport`.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .faults import FaultInjector, FaultPlan
from .policies import (
    AdmissionPolicy,
    RoutingPolicy,
    SchedulingPolicy,
    make_policies,
    make_routing,
)
from .scheduler import RequestHandle, ServingEngine, ServingReport
from .session import Request, RequestMetrics, SessionState

__all__ = [
    "ClusterEngine",
    "ClusterHandle",
    "ClusterReport",
    "Replica",
]

ClusterTokenCallback = Callable[["ClusterHandle", int, int], None]
ClusterCompleteCallback = Callable[["ClusterHandle", RequestMetrics], None]


class Replica:
    """One engine in the fleet plus its health bookkeeping.

    Routing policies read the load views (:attr:`queue_load`,
    :attr:`pages_in_use`) and the :attr:`up` flag; the cluster drives
    :meth:`observe` once per step to maintain the failure window.
    """

    __slots__ = (
        "index",
        "engine",
        "up",
        "down_step",
        "downs",
        "_window",
        "_window_steps",
        "_last_fires",
        "_last_failed",
    )

    def __init__(self, index: int, engine: ServingEngine, window_steps: int) -> None:
        self.index = index
        self.engine = engine
        self.up = True
        self.down_step: Optional[int] = None
        self.downs = 0
        self._window: deque = deque()
        self._window_steps = window_steps
        self._last_fires = 0
        self._last_failed = 0

    @property
    def queue_load(self) -> int:
        """Requests this replica is responsible for (queued + in batch)."""
        return self.engine.n_queued + self.engine.n_active

    @property
    def pages_in_use(self) -> int:
        """Live KV pages on this replica's arena (0 when arena-less)."""
        arena = self.engine.arena
        return arena.stats.pages_in_use if arena is not None else 0

    def observe(self, step: int) -> int:
        """Record this step's failure events; return the window total.

        Failure events are the deltas of the replica's fault-injector fire
        count and its terminally-``FAILED`` request count -- both monotone,
        so deltas are cheap and exact.  The window holds the last
        ``window_steps`` cluster steps.
        """
        injector = self.engine.fault_injector
        fires = injector.total_fires if injector is not None else 0
        failed = self.engine.n_failed
        events = (fires - self._last_fires) + (failed - self._last_failed)
        self._last_fires = fires
        self._last_failed = failed
        self._window.append((step, events))
        horizon = step - self._window_steps
        while self._window and self._window[0][0] <= horizon:
            self._window.popleft()
        return sum(count for _, count in self._window)

    def reset_window(self) -> None:
        """Forget accumulated failures (called when the replica recovers)."""
        self._window.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else f"down@{self.down_step}"
        return f"Replica({self.index}, {state}, load={self.queue_load})"


class ClusterHandle:
    """The caller's view of one cluster-routed request.

    Stable across failover: a re-route swaps the underlying per-replica
    :class:`~repro.serve.scheduler.RequestHandle` (the withdrawn one never
    fires callbacks), while this object -- the one user callbacks receive --
    stays the same.  ``replica_index`` always names the replica currently
    responsible; ``rerouted`` counts failover moves.
    """

    __slots__ = (
        "request",
        "index",
        "affinity_key",
        "on_token",
        "on_complete",
        "handle",
        "replica_index",
        "rerouted",
    )

    def __init__(
        self,
        request: Request,
        index: int,
        affinity_key: str,
        on_token: Optional[ClusterTokenCallback] = None,
        on_complete: Optional[ClusterCompleteCallback] = None,
    ) -> None:
        self.request = request
        self.index = index
        self.affinity_key = affinity_key
        self.on_token = on_token
        self.on_complete = on_complete
        self.handle: Optional[RequestHandle] = None
        self.replica_index: Optional[int] = None
        self.rerouted = 0

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def dispatched(self) -> bool:
        """Whether the request has been routed to a replica yet."""
        return self.handle is not None

    @property
    def state(self) -> SessionState:
        if self.handle is None:
            return SessionState.QUEUED
        return self.handle.state

    @property
    def generated_tokens(self) -> List[int]:
        return [] if self.handle is None else self.handle.generated_tokens

    @property
    def done(self) -> bool:
        return self.handle is not None and self.handle.session.is_terminal

    def metrics(self) -> RequestMetrics:
        if self.handle is None:
            raise ValueError(
                f"request {self.request_id!r} was never dispatched to a replica"
            )
        return self.handle.metrics()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterHandle({self.request_id!r}, replica={self.replica_index}, "
            f"state={self.state.name}, rerouted={self.rerouted})"
        )


@dataclass
class ClusterReport:
    """Aggregate outcome of a cluster run: D replica reports plus fleet views.

    ``replicas`` embeds one full :class:`~repro.serve.scheduler.ServingReport`
    per replica (every request appears on exactly one of them -- withdrawn
    re-routes leave no trace on the replica they left).  The fleet-level
    aggregates are derived, never stored: percentiles pool all replicas'
    requests, :attr:`load_imbalance` is the coefficient of variation of
    per-replica served tokens (0.0 means a perfectly even fleet), and
    :attr:`prefix_hit_rate` pools the per-replica prefix-cache counters --
    the locality metric affinity routing exists to improve.
    ``failover_events`` is the step-stamped down/up history.  ``to_json`` /
    ``from_json`` follow the tolerant contract of the per-engine report:
    unknown keys are ignored, missing keys default.
    """

    steps: int
    routing: str = "rr"
    replicas: List[ServingReport] = field(default_factory=list)
    failover_events: List[dict] = field(default_factory=list)
    rerouted: int = 0
    affinity_hits: int = 0
    leftover_pending: int = 0

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def fleet_requests(self) -> List[RequestMetrics]:
        return [m for report in self.replicas for m in report.requests]

    @property
    def total_tokens(self) -> int:
        return sum(report.total_tokens for report in self.replicas)

    @property
    def throughput_tokens_per_step(self) -> float:
        return self.total_tokens / self.steps if self.steps else 0.0

    @property
    def tokens_by_replica(self) -> List[int]:
        return [report.total_tokens for report in self.replicas]

    def latency_percentile(self, q: float) -> float:
        """Fleet-wide latency percentile over finished requests."""
        pool = [
            m.latency_steps
            for m in self.fleet_requests
            if m.outcome == "finished" and m.latency_steps is not None
        ]
        return float(np.percentile(pool, q)) if pool else 0.0

    def ttft_percentile(self, q: float) -> float:
        """Fleet-wide time-to-first-token percentile (finished requests)."""
        pool = [
            m.time_to_first_token_steps
            for m in self.fleet_requests
            if m.outcome == "finished"
            and m.time_to_first_token_steps is not None
        ]
        return float(np.percentile(pool, q)) if pool else 0.0

    @property
    def load_imbalance(self) -> float:
        """Coefficient of variation (std/mean) of per-replica served tokens."""
        tokens = self.tokens_by_replica
        if not tokens:
            return 0.0
        mean = float(np.mean(tokens))
        if mean == 0.0:
            return 0.0
        return float(np.std(tokens) / mean)

    @property
    def prefix_hits(self) -> int:
        return sum(
            (r.arena or {}).get("prefix_hits", 0) for r in self.replicas
        )

    @property
    def prefix_hit_rate(self) -> Optional[float]:
        """Fleet prefix-cache hit rate, ``None`` without any lookups."""
        hits = self.prefix_hits
        misses = sum(
            (r.arena or {}).get("prefix_misses", 0) for r in self.replicas
        )
        total = hits + misses
        return hits / total if total else None

    def to_json(self) -> dict:
        """JSON dict: stored fields plus derived fleet aggregates.

        Like :meth:`ServingReport.to_json`, the derived block is for human
        consumption; :meth:`from_json` recomputes it from the stored fields.
        """
        return {
            "steps": self.steps,
            "routing": self.routing,
            "n_replicas": self.n_replicas,
            "rerouted": self.rerouted,
            "affinity_hits": self.affinity_hits,
            "leftover_pending": self.leftover_pending,
            "total_tokens": self.total_tokens,
            "throughput_tokens_per_step": self.throughput_tokens_per_step,
            "tokens_by_replica": self.tokens_by_replica,
            "load_imbalance": self.load_imbalance,
            "prefix_hit_rate": self.prefix_hit_rate,
            "fleet_p50_latency_steps": self.latency_percentile(50),
            "fleet_p95_latency_steps": self.latency_percentile(95),
            "fleet_p50_ttft_steps": self.ttft_percentile(50),
            "fleet_p95_ttft_steps": self.ttft_percentile(95),
            "failover_events": list(self.failover_events),
            "replicas": [report.to_json() for report in self.replicas],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ClusterReport":
        """Tolerant inverse of :meth:`to_json` (unknown keys ignored)."""
        return cls(
            steps=int(payload.get("steps", 0)),
            routing=str(payload.get("routing", "rr")),
            replicas=[
                ServingReport.from_json(entry)
                for entry in payload.get("replicas", [])
            ],
            failover_events=list(payload.get("failover_events", [])),
            rerouted=int(payload.get("rerouted", 0)),
            affinity_hits=int(payload.get("affinity_hits", 0)),
            leftover_pending=int(payload.get("leftover_pending", 0)),
        )

    def summary(self) -> str:
        """Human-readable fleet summary with one row per replica."""
        lines = [
            f"cluster: {self.n_replicas} replica(s), routing={self.routing}, "
            f"{self.steps} steps",
            f"  fleet tokens: {self.total_tokens} "
            f"({self.throughput_tokens_per_step:.2f} tokens/step), "
            f"imbalance CV {self.load_imbalance:.3f}",
            f"  fleet latency p50/p95: {self.latency_percentile(50):.0f}/"
            f"{self.latency_percentile(95):.0f} steps, "
            f"TTFT p50/p95: {self.ttft_percentile(50):.0f}/"
            f"{self.ttft_percentile(95):.0f} steps",
        ]
        if self.prefix_hit_rate is not None:
            lines.append(
                f"  prefix locality: {self.prefix_hits} hits "
                f"(rate {self.prefix_hit_rate:.2f})"
            )
        if self.rerouted or self.failover_events:
            downs = sum(1 for e in self.failover_events if e.get("event") == "down")
            lines.append(
                f"  failover: {downs} down event(s), "
                f"{self.rerouted} request(s) re-routed"
            )
        header = f"  {'replica':>8} {'requests':>9} {'tokens':>8} {'p95 lat':>8}"
        lines.append(header)
        for idx, report in enumerate(self.replicas):
            lines.append(
                f"  {idx:>8} {len(report.requests):>9} "
                f"{report.total_tokens:>8} {report.latency_percentile(95):>8.0f}"
            )
        if self.leftover_pending:
            lines.append(f"  leftover pending (never dispatched): {self.leftover_pending}")
        return "\n".join(lines)


class ClusterEngine:
    """D data-parallel :class:`ServingEngine` replicas behind one router.

    Construction mirrors a single engine -- every extra keyword argument
    (``page_size``, ``max_pages``, ``prefix_cache``, ``kv_dtype``,
    ``kv_snapshots``, ``prefill_token_budget``, ...) is forwarded verbatim
    to each replica's constructor -- plus the fleet knobs:

    * ``n_replicas`` -- D, the data-parallel width.
    * ``routing`` -- a policy name (``"rr"``, ``"least-loaded"``,
      ``"affinity"``) or a :class:`RoutingPolicy` instance.
    * ``policies`` -- ``None`` (engine defaults), a ``make_policies`` name
      applied to every replica, or a callable ``replica_index -> (admission,
      scheduling)`` for heterogeneous fleets.
    * ``faults`` -- one :class:`FaultPlan` template; each replica gets its
      own plan with a seed spawned from ``seed`` via ``SeedSequence``, so
      fault streams are independent across replicas yet fully reproducible.
    * ``failover_threshold`` / ``failover_window`` / ``failover_cooldown``
      -- a replica accumulating ``threshold`` failure events within
      ``window`` steps is marked down for ``cooldown`` steps (``None``
      threshold disables health tracking entirely).

    The cluster steps *all* replicas every :meth:`step`, so replica step
    counters stay aligned with the cluster's -- one shared step domain.
    With ``n_replicas=1`` and round-robin routing the whole apparatus is
    transparent: tokens, metrics and the replica report are bit-identical
    to a bare engine serving the same trace.
    """

    def __init__(
        self,
        model,
        n_replicas: int = 2,
        routing: Union[str, RoutingPolicy] = "rr",
        max_active: int = 8,
        policies: Union[
            None,
            str,
            Callable[[int], Tuple[AdmissionPolicy, SchedulingPolicy]],
        ] = None,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
        failover_threshold: Optional[int] = 4,
        failover_window: int = 8,
        failover_cooldown: int = 16,
        **engine_kwargs,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if isinstance(faults, FaultInjector):
            raise TypeError(
                "pass a FaultPlan template, not a FaultInjector: the cluster "
                "derives one independently-seeded plan per replica"
            )
        if failover_window < 1:
            raise ValueError(f"failover_window must be >= 1, got {failover_window}")
        if failover_cooldown < 1:
            raise ValueError(
                f"failover_cooldown must be >= 1, got {failover_cooldown}"
            )
        self.routing = make_routing(routing) if isinstance(routing, str) else routing
        self.seed = int(seed)
        self.failover_threshold = failover_threshold
        self.failover_window = failover_window
        self.failover_cooldown = failover_cooldown

        children = np.random.SeedSequence(self.seed).spawn(n_replicas)
        self.replicas: List[Replica] = []
        for index, child in enumerate(children):
            if policies is None:
                admission: Optional[AdmissionPolicy] = None
                scheduling: Optional[SchedulingPolicy] = None
            elif isinstance(policies, str):
                admission, scheduling = make_policies(policies)
            else:
                admission, scheduling = policies(index)
            plan = None
            if faults is not None:
                plan = replace(faults, seed=int(child.generate_state(1)[0]))
            engine = ServingEngine(
                model,
                max_active=max_active,
                admission=admission,
                scheduling=scheduling,
                faults=plan,
                **engine_kwargs,
            )
            self.replicas.append(Replica(index, engine, failover_window))

        self.current_step = 0
        self.failover_events: List[dict] = []
        self._pending: List[Tuple[int, int, ClusterHandle]] = []
        self._deferred: List[ClusterHandle] = []
        self._routed: Dict[str, ClusterHandle] = {}
        self._request_ids: set = set()
        self._affinity: Dict[str, int] = {}
        self._affinity_hits = 0
        self._rerouted = 0
        self._submitted = 0
        self._dropped_pending = 0
        self._closed = False

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        request: Request,
        on_token: Optional[ClusterTokenCallback] = None,
        on_complete: Optional[ClusterCompleteCallback] = None,
        affinity_key: Optional[str] = None,
    ) -> ClusterHandle:
        """Queue one request with the fleet; returns its :class:`ClusterHandle`.

        The request waits in the cluster arrival queue until its
        ``arrival_step``, is then routed to a replica and submitted there
        with its original arrival step, so replica-side accounting (queue
        delay, TTFT, timeouts) is measured from cluster arrival.  Requests
        sharing an ``affinity_key`` ("session" stickiness) are routed to the
        same replica while it stays healthy; the default key is the request
        id, which makes retries after a failover re-route follow the moved
        request.  Callbacks receive this handle, and survive re-routing.
        """
        if self._closed:
            raise RuntimeError(
                f"cluster is closed (drain/shutdown); cannot submit "
                f"{request.request_id!r}"
            )
        if request.request_id in self._request_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        self._request_ids.add(request.request_id)
        handle = ClusterHandle(
            request,
            self._submitted,
            request.request_id if affinity_key is None else affinity_key,
            on_token=on_token,
            on_complete=on_complete,
        )
        heapq.heappush(
            self._pending, (request.arrival_step, handle.index, handle)
        )
        self._submitted += 1
        return handle

    def submit_many(self, requests: Sequence[Request]) -> List[ClusterHandle]:
        return [self.submit(r) for r in requests]

    def cancel(self, handle: ClusterHandle) -> bool:
        """Abort a request anywhere in the fleet; False once terminal."""
        if handle.handle is not None:
            return self.replicas[handle.replica_index].engine.cancel(handle.handle)
        # still in the cluster arrival queue: route it nowhere, ever
        for i, (_, _, pending) in enumerate(self._pending):
            if pending is handle:
                self._pending.pop(i)
                heapq.heapify(self._pending)
                return True
        if handle in self._deferred:
            self._deferred.remove(handle)
            return True
        return False

    # -- fleet views -----------------------------------------------------------

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def n_healthy(self) -> int:
        return sum(1 for r in self.replicas if r.up)

    @property
    def n_pending(self) -> int:
        """Requests still waiting in the cluster queue (never dispatched)."""
        return len(self._pending) + len(self._deferred)

    @property
    def has_work(self) -> bool:
        return bool(self._pending or self._deferred) or any(
            r.engine.has_work for r in self.replicas
        )

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, chandle: ClusterHandle, step: int) -> bool:
        """Route one due request to a replica; False when none is healthy."""
        target: Optional[Replica] = None
        mapped = self._affinity.get(chandle.affinity_key)
        if mapped is not None and self.replicas[mapped].up:
            target = self.replicas[mapped]
            self._affinity_hits += 1
        if target is None:
            if not any(r.up for r in self.replicas):
                return False
            target = self.routing.route(
                chandle.request, tuple(self.replicas), step
            )
            if not target.up:
                raise RuntimeError(
                    f"routing policy {self.routing.name!r} returned down "
                    f"replica {target.index}"
                )
        self._affinity[chandle.affinity_key] = target.index

        user_on_token = chandle.on_token
        user_on_complete = chandle.on_complete
        on_token = None
        if user_on_token is not None:
            def on_token(_handle, token, at_step, _ch=chandle, _cb=user_on_token):
                _cb(_ch, token, at_step)

        on_complete = None
        if user_on_complete is not None:
            def on_complete(_handle, metrics, _ch=chandle, _cb=user_on_complete):
                _cb(_ch, metrics)

        replica_handle = target.engine.submit(
            chandle.request, on_token=on_token, on_complete=on_complete
        )
        if chandle.handle is not None:
            chandle.rerouted += 1
            self._rerouted += 1
        chandle.handle = replica_handle
        chandle.replica_index = target.index
        self._routed[chandle.request_id] = chandle
        return True

    def _reroute_queued(self, replica: Replica, step: int) -> int:
        """Withdraw a down replica's queued backlog and re-route it."""
        moved = 0
        for replica_handle in replica.engine.queued_handles:
            if replica_handle.session.state is not SessionState.QUEUED:
                continue  # preempted/backoff re-entries hold progress; drain here
            chandle = self._routed.get(replica_handle.request_id)
            if chandle is None or chandle.handle is not replica_handle:
                continue  # directly-submitted work is not cluster-owned
            if not replica.engine.withdraw(replica_handle):
                continue
            moved += 1
            if not self._dispatch(chandle, step):
                self._deferred.append(chandle)
        return moved

    # -- stepping --------------------------------------------------------------

    def step(self) -> Dict[str, List[int]]:
        """Advance the whole fleet one step; returns all emitted tokens.

        Order within a cluster step: (1) cooled-down replicas recover,
        (2) due arrivals (and previously-undeliverable deferrals) are routed
        and submitted, (3) every replica runs one engine step, (4) health
        windows update and tripped replicas go down, re-routing their queued
        backlog.  The emitted-token dict is keyed by request id, which is
        unique fleet-wide, so replicas cannot shadow each other.
        """
        step = self.current_step

        for replica in self.replicas:
            if (
                not replica.up
                and step - replica.down_step >= self.failover_cooldown
            ):
                replica.up = True
                replica.down_step = None
                replica.reset_window()
                self.failover_events.append(
                    {"step": step, "replica": replica.index, "event": "up"}
                )

        deferred, self._deferred = self._deferred, []
        for chandle in deferred:
            if not self._dispatch(chandle, step):
                self._deferred.append(chandle)
        while self._pending and self._pending[0][0] <= step:
            _, _, chandle = heapq.heappop(self._pending)
            if not self._dispatch(chandle, step):
                self._deferred.append(chandle)

        emitted: Dict[str, List[int]] = {}
        for replica in self.replicas:
            emitted.update(replica.engine.step())

        if self.failover_threshold is not None:
            for replica in self.replicas:
                failures = replica.observe(step)
                if replica.up and failures >= self.failover_threshold:
                    replica.up = False
                    replica.down_step = step
                    replica.downs += 1
                    moved = self._reroute_queued(replica, step)
                    self.failover_events.append(
                        {
                            "step": step,
                            "replica": replica.index,
                            "event": "down",
                            "rerouted": moved,
                        }
                    )

        self.current_step += 1
        return emitted

    def run(self, max_steps: int = 100_000) -> ClusterReport:
        """Step until every submitted request resolves (or ``max_steps``)."""
        while self.has_work and self.current_step < max_steps:
            self.step()
        return self.report()

    def drain(self, max_steps: int = 100_000) -> ClusterReport:
        """Graceful stop: refuse new work, run the backlog dry, report."""
        self._closed = True
        return self.run(max_steps)

    def shutdown(self) -> ClusterReport:
        """Immediate stop: shed all outstanding work on every replica.

        Requests still in the cluster arrival queue were never dispatched;
        they are dropped and surface as ``leftover_pending`` in the report.
        """
        self._closed = True
        self._dropped_pending += self.n_pending
        self._pending.clear()
        self._deferred.clear()
        for replica in self.replicas:
            replica.engine.shutdown()
        return self.report()

    def report(self) -> ClusterReport:
        """Aggregate the fleet's :class:`ServingReport`s into one view."""
        return ClusterReport(
            steps=self.current_step,
            routing=self.routing.name,
            replicas=[replica.engine.report() for replica in self.replicas],
            failover_events=list(self.failover_events),
            rerouted=self._rerouted,
            affinity_hits=self._affinity_hits,
            leftover_pending=self.n_pending + self._dropped_pending,
        )
