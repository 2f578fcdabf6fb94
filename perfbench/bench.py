"""One benchmark run of one workload; ``run.py`` starts it in a pinned child.

Phases, all in this one process, with a host probe slice (``probe.py``)
between every few engine steps and between set-up phases:

1. **set-up**, repeated (at least three times and one second) and reported
   as the median ``setup_s``; the last one is kept;
2. **warm-up**: one untimed batch, because the first engine run in a process
   is markedly slower than later ones;
3. **timed rounds**: the workload's seeded jobs, submitted up front with
   their arrival steps, run through a fresh engine until it has no work;
   rounds repeat while another fits in ``--seconds`` of reference time;
4. with ``--trace 1`` untraced and traced rounds alternate; the per-layer
   metrics come from the traced rounds and ``trace.overhead_frac`` compares
   the two kinds;
5. **checks**: every request must finish with all its tokens, every round
   must give the same tokens and the same step-by-step batch composition as
   the first, and a seeded sample of requests must match solo
   ``repro.model.generate()`` with the same model and predictor.

Every timestamp is raw ``perf_counter``; after the run the probe slices turn
them into reference time (see ``probe.py``).  End-to-end timings are in
reference units; their raw twins are the per-layer ``wall.*`` metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

# the program under test is this checkout's source tree, never an install
sys.path.insert(0, str(ROOT / "src"))
try:
    import repro
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
    sys.exit(f"perfbench: repro resolved to {repro.__file__}, not {ROOT / 'src'}")

import numpy as np  # noqa: E402
from repro.model import generate  # noqa: E402
from repro.serve import (  # noqa: E402
    NGramDrafter,
    Request,
    ServingEngine,
    SpeculationConfig,
    make_policies,
)

from probe import RefClock, Timeline  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SLOTS, WORKLOADS, model_config, set_up  # noqa: E402

MIN_SETUPS = 3
MIN_SETUP_SECONDS = 1.0
#: the warm-up sends one batch of the workload's jobs at once, outputs capped
#: at this many tokens and prompts at four times as many
WARMUP_TOKENS = 16

LINEAR_SPANS = {
    "wq": "model.qkv",
    "wk": "model.qkv",
    "wv": "model.qkv",
    "wo": "model.o",
    "ffn_up": "model.ffn_up",
    "ffn_down": "model.ffn_down",
}

#: per-layer self-time metrics: metric name -> span name
SELF_MS = {
    "scheduler.self_ms": "scheduler.step",
    "kv_arena.gather_ms": "kv_arena.gather",
    "kv_arena.append_ms": "kv_arena.append",
    "kv_arena.prefix_ms": "kv_arena.prefix",
    "kv_arena.snapshot_ms": "kv_arena.snapshot",
    "kv_arena.truncate_ms": "kv_arena.truncate",
    "kv_arena.free_ms": "kv_arena.free",
    "spec.propose_ms": "spec.propose",
    "model.attention_ms": "model.attention",
    "model.act_ms": "model.act",
    "model.norm_ms": "model.norm",
    "model.qkv_ms": "model.qkv",
    "model.o_ms": "model.o",
    "model.ffn_up_ms": "model.ffn_up",
    "model.ffn_down_ms": "model.ffn_down",
    "model.lm_head_ms": "model.lm_head",
    "quant.quantize_ms": "quant.quantize",
    "mcbp.matmul_ms": "mcbp.matmul",
    "bgpp.select_ms": "bgpp.select",
}


def _fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


@dataclass
class Round:
    """Client-side record of one engine run over the workload's jobs.

    Times are raw ``perf_counter`` readings, mapped later by the timeline.
    """

    traced: bool
    steps: List[tuple] = field(default_factory=list)  # (start, end) per step
    composition: List[tuple] = field(default_factory=list)
    first: Dict[str, float] = field(default_factory=dict)
    deliveries: List[tuple] = field(default_factory=list)  # (previous, this)
    tokens: Dict[str, List[int]] = field(default_factory=dict)
    outcomes: Dict[str, str] = field(default_factory=dict)
    arrival: Dict[str, int] = field(default_factory=dict)
    report: object = None
    mcbp_stats: Optional[object] = None
    rows: int = 0

    @property
    def n_tokens(self) -> int:
        return sum(len(t) for t in self.tokens.values())

    def engine_seconds(self, clock) -> float:
        """Time inside ``engine.step()`` on the given clock (``Timeline.ref``/``wall``)."""
        starts, ends = np.array(self.steps).T
        return float(np.sum(clock(ends) - clock(starts)))

    def ttft(self, clock) -> np.ndarray:
        """From the start of each request's due step to its first token."""
        rids = sorted(self.first)
        due = [self.steps[self.arrival[r]][0] for r in rids]
        return clock([self.first[r] for r in rids]) - clock(due)

    def itl(self, clock) -> np.ndarray:
        """Gaps between successive deliveries to one request."""
        if not self.deliveries:
            return np.zeros(0)
        prev, this = np.array(self.deliveries).T
        return clock(this) - clock(prev)


class Bench:
    """Set-up, serving and checks of one workload in this process."""

    def __init__(self, workload, trace: bool, extra_act: int = 0) -> None:
        self.workload = workload
        self.trace = trace
        self.extra_act = extra_act
        self.clock = RefClock()
        self.tracer = Tracer()
        self.request_of_session: Dict[tuple, str] = {}
        self.vocab = model_config(workload.model).vocab_size
        self.setups: List[tuple] = []
        self.rounds: List[Round] = []

    # -- set-up -----------------------------------------------------------------

    def set_up(self) -> None:
        clock = self.clock
        spent = 0.0
        while len(self.setups) < MIN_SETUPS or spent < MIN_SETUP_SECONDS:
            self.setup = None  # drop the previous model before building anew
            gc.collect()
            clock.probe()
            start = clock.now()
            self.setup = set_up(self.workload, clock.probe)
            end = clock.now()
            clock.probe()
            self.setups.append((start, end))
            spent += end - start
        if self.extra_act:
            self._add_activation_work()

    def _add_activation_work(self) -> None:
        """Make every layer's activation do ``extra_act`` more passes of its work.

        The sensitivity self-test: a fixed extra amount of program work
        that the probe does not see.
        """
        extra = self.extra_act
        for layer in self.setup.model.model.layers:
            act = layer.activation

            def slower(x, act=act):
                out = act(x)
                for _ in range(extra):
                    act(x)
                return out

            layer.activation = slower

    # -- serving ----------------------------------------------------------------

    def _engine(self, traced: bool):
        w = self.workload
        predictor = self.setup.predictor
        if traced:
            predictor = self._instrument_model()
        drafter = NGramDrafter() if w.speculative else None
        admission, scheduling = make_policies("priority" if w.priority_policy else "fcfs")
        engine = ServingEngine(
            self.setup.model,
            max_active=SLOTS,
            predictor=predictor,
            admission=admission,
            scheduling=scheduling,
            prefix_cache=w.prefix_cache,
            kv_snapshots=w.priority_policy,
            prefill_token_budget=w.prefill_token_budget,
            speculative=(
                SpeculationConfig(k=8, adaptive=True, drafter=drafter)
                if w.speculative
                else None
            ),
        )
        if traced:
            self._instrument_engine(engine, drafter)
        return engine

    def serve(self, jobs, traced: bool = False) -> Round:
        """Run ``jobs`` through a fresh engine until it has no work."""
        gc.collect()
        try:
            return self._serve(jobs, self._engine(traced), traced)
        finally:
            if traced:
                self.tracer.restore()
                self.tracer.round += 1

    def _serve(self, jobs, engine, traced: bool) -> Round:
        clock = self.clock
        now = clock.now
        if self.setup.mcbp is not None:
            self.setup.mcbp.reset_stats()
        rnd = Round(traced=traced)
        tag = self.tracer.round
        last: Dict[str, tuple] = {}

        def on_token(handle, token, step):
            t = now()
            rid = handle.request_id
            prev = last.get(rid)
            if traced:
                # a resumed session may hold a new arena session id
                sid = handle.session.decoder.caches[0].arena_session
                self.request_of_session[(tag, sid)] = rid
            if prev is None:
                rnd.first[rid] = t
                last[rid] = (step, t)
            elif prev[0] != step:
                # one delivery per step: a speculative step hands over several
                # tokens at once, and their gap is the step, not zero
                rnd.deliveries.append((prev[1], t))
                last[rid] = (step, t)

        handles = {}
        for job in jobs:
            rnd.arrival[job.request_id] = job.arrival_step
            handles[job.request_id] = engine.submit(
                Request(
                    job.request_id,
                    list(job.prompt),
                    max_new_tokens=job.max_new_tokens,
                    arrival_step=job.arrival_step,
                    priority=job.priority,
                ),
                on_token=on_token,
            )
        every = self.workload.probe_every
        clock.probe()
        while engine.has_work:
            if rnd.steps and not len(rnd.steps) % every:
                clock.probe()
            start = now()
            emitted = engine.step()
            end = now()
            rnd.steps.append((start, end))
            s = engine.last_step_stats
            rnd.composition.append(
                (tuple(sorted(emitted)), s["admitted"], s["preempted"], s["decoded"],
                 s["prefill_rows"], s["retired"])
            )
        clock.probe()
        if engine.current_step != len(rnd.steps):
            raise RuntimeError("engine step count disagrees with the client's")
        rnd.report = engine.report()
        rnd.tokens = {rid: list(h.generated_tokens) for rid, h in handles.items()}
        rnd.outcomes = {rid: h.metrics().outcome for rid, h in handles.items()}
        if traced:
            rnd.rows = self.rows
        if self.setup.mcbp is not None:
            # a copy: the reference check later runs on the same MCBP engine
            rnd.mcbp_stats = dataclasses.replace(self.setup.mcbp.stats)
        return rnd

    def timed_rounds(self, jobs, seconds: float) -> None:
        """Untraced rounds, alternating with traced ones when tracing.

        Rounds repeat while another of the mean length fits in ``seconds``
        of reference time (by the probe slices seen so far) and until the
        workload's ``min_rounds``.  Alternating puts each traced round next
        to an untraced one, so ``trace.overhead_frac`` compares rounds that
        met the same state of the machine.
        """
        kinds = (False, True) if self.trace else (False,)
        spent = 0.0
        while True:
            for traced in kinds:
                start = self.clock.now()
                self.rounds.append(self.serve(jobs, traced=traced))
                spent += self.clock.estimate(start, self.clock.now())
            done = len(self.rounds) // len(kinds)
            if done >= self.workload.min_rounds and spent * (1 + 1 / done) > seconds:
                return

    # -- tracing ----------------------------------------------------------------

    def _instrument_model(self):
        """Wrap the model's layers until the round ends; returns the traced predictor."""
        tracer, setup = self.tracer, self.setup
        model = setup.model

        def counting(fn, count):
            def counted(*args, **kwargs):
                self.rows += count(*args)
                return fn(*args, **kwargs)

            return counted

        self.rows = 0
        tracer.replace(
            model,
            "prefill_batch",
            counting(
                tracer.wrap(model.prefill_batch, "model.forward"),
                lambda chunks, *_: sum(len(c) for c in chunks),
            ),
        )
        tracer.replace(
            model,
            "forward_batch",
            counting(
                tracer.wrap(model.forward_batch, "model.forward"),
                lambda tokens, *_: len(tokens),
            ),
        )
        for layer, entry in zip(model.model.layers, model.quant_layers):
            tracer.patch(layer.attention, "prefill_batch", "model.attention")
            tracer.patch(layer.attention, "decode_batch", "model.attention")
            tracer.patch(layer, "activation", "model.act")
            tracer.patch(layer, "norm_fn", "model.norm")
            for name, qlin in entry.items():
                tracer.patch(qlin, "forward", LINEAR_SPANS[name])
                tracer.patch(qlin, "quantize_input", "quant.quantize")
        tracer.patch(model.model, "norm_fn", "model.norm")
        tracer.patch(model.lm_head, "forward", "model.lm_head")
        tracer.patch(model.lm_head, "quantize_input", "quant.quantize")
        if setup.mcbp is not None:
            tracer.patch(setup.mcbp, "matmul", "mcbp.matmul")
        if setup.predictor is None:
            return None
        traced = tracer.wrap(setup.predictor, "bgpp.select")
        traced.select_ragged = tracer.wrap(setup.predictor.select_ragged, "bgpp.select")
        return traced

    def _instrument_engine(self, engine, drafter):
        tracer = self.tracer
        tracer.patch(engine, "step", "scheduler.step")
        arena = engine.arena
        tracer.patch(arena, "gather_batch", "kv_arena.gather")
        tracer.patch(arena, "append", "kv_arena.append", session_arg=True)
        tracer.patch(arena, "append_batch", "kv_arena.append")
        tracer.patch(arena, "truncate_session", "kv_arena.truncate", session_arg=True)
        for attr in ("acquire_prefix", "register_prefix"):
            tracer.patch(arena, attr, "kv_arena.prefix", session_arg=True)
        tracer.patch(arena, "probe_prefix", "kv_arena.prefix")
        for attr in ("snapshot_session", "restore_session"):
            tracer.patch(arena, attr, "kv_arena.snapshot", session_arg=True)
        tracer.patch(arena, "free", "kv_arena.free", session_arg=True)
        if drafter is not None:
            tracer.patch(drafter, "propose", "spec.propose")

    # -- checks -----------------------------------------------------------------

    def check(self, jobs, rng) -> tuple:
        """Returns ``(attempted, failed, notes)`` over every timed round."""
        by_id = {j.request_id: j for j in jobs}
        picks = rng.choice(len(jobs), size=min(self.workload.n_checked, len(jobs)), replace=False)
        expected = {}
        for k in sorted(int(p) for p in picks):
            job = jobs[k]
            expected[job.request_id] = generate(
                self.setup.model,
                list(job.prompt),
                max_new_tokens=job.max_new_tokens,
                predictor=self.setup.predictor,
            ).generated_tokens
        attempted = failed = 0
        notes = []
        first = self.rounds[0]
        for i, rnd in enumerate(self.rounds):
            if rnd.composition != first.composition:
                # step-clock traffic: the schedule is a function of the seed
                notes.append(
                    f"round {i}: {len(rnd.composition)} steps, batch composition "
                    f"differs from round 0 ({len(first.composition)} steps)"
                )
            for rid, tokens in rnd.tokens.items():
                attempted += 1
                bad = None
                if rnd.outcomes[rid] != "finished":  # failed, timed_out or shed
                    bad = f"outcome {rnd.outcomes[rid]}"
                elif len(tokens) != by_id[rid].max_new_tokens:
                    bad = f"{len(tokens)} tokens, wanted {by_id[rid].max_new_tokens}"
                elif rid in expected and tokens != expected[rid]:
                    bad = "tokens differ from generate()"
                elif tokens != first.tokens[rid]:
                    bad = "tokens differ between rounds"
                if bad is not None:
                    failed += 1
                    if len(notes) < 8:
                        notes.append(f"{rid}: {bad}")
        return attempted, failed, notes

    def composition_digest(self) -> str:
        return hashlib.sha256(repr(self.rounds[0].composition).encode()).hexdigest()[:16]


_T0 = time.perf_counter()


def log(what: str) -> None:
    """Progress on stderr, so a slow phase shows in the run's log."""
    print(f"perfbench: {what} at {time.perf_counter() - _T0:.1f} s", file=sys.stderr, flush=True)


def _pct(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _iqr_frac(values) -> float:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float((q3 - q1) / q2)


def timings(rounds: List[Round], clock) -> dict:
    """Throughput and latency of ``rounds`` on one clock, pooled over rounds."""
    ttft = np.concatenate([r.ttft(clock) for r in rounds])
    itl = np.concatenate([r.itl(clock) for r in rounds])
    return {
        "tok_per_s": sum(r.n_tokens for r in rounds) / sum(r.engine_seconds(clock) for r in rounds),
        "ttft_p50_ms": 1e3 * _pct(ttft, 50),
        "ttft_p90_ms": 1e3 * _pct(ttft, 90),
        "itl_p50_ms": 1e3 * _pct(itl, 50),
        "itl_p90_ms": 1e3 * _pct(itl, 90),
        "n_ttft": len(ttft),
        "n_itl": len(itl),
    }


def setup_seconds(setups, clock) -> float:
    starts, ends = np.array(setups).T
    return float(np.median(clock(ends) - clock(starts)))


def end_to_end(bench: Bench, timeline: Timeline) -> dict:
    plain = [r for r in bench.rounds if not r.traced]
    t = timings(plain, timeline.ref)
    return {
        "tok_per_s": (t["tok_per_s"], "tok/ref-s"),
        "ttft_p50_ms": (t["ttft_p50_ms"], "ref-ms"),
        "itl_p50_ms": (t["itl_p50_ms"], "ref-ms"),
        "setup_s": (setup_seconds(bench.setups, timeline.ref), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def host_and_wall(bench: Bench, timeline: Timeline) -> dict:
    """The probe's own figures, the latency tails and the raw twins of the end-to-end timings."""
    plain = [r for r in bench.rounds if not r.traced]
    t = timings(plain, timeline.ref)
    w = timings(plain, timeline.wall)
    parts = np.median(timeline.parts, axis=0) * 1e3
    engine = sum(r.engine_seconds(timeline.wall) for r in bench.rounds)
    probe = timeline.probe_seconds
    return {
        "host.probe_ms": (float(np.median(timeline.totals)) * 1e3, "ms"),
        "host.probe_py_ms": (float(parts[0]), "ms"),
        "host.probe_np_ms": (float(parts[1]), "ms"),
        "host.probe_blas_ms": (float(parts[2]), "ms"),
        "host.probe_spread": (_iqr_frac(timeline.totals), "frac"),
        "host.probe_share": (probe / (probe + engine), "frac"),
        # the tails are not end-to-end metrics: slow spells stretch short
        # decode steps more than long mixed ones, which no single host
        # factor undoes (see README)
        "client.ttft_p90_ms": (t["ttft_p90_ms"], "ref-ms"),
        "client.itl_p90_ms": (t["itl_p90_ms"], "ref-ms"),
        "wall.tok_per_s": (w["tok_per_s"], "tok/s"),
        "wall.ttft_p50_ms": (w["ttft_p50_ms"], "ms"),
        "wall.itl_p50_ms": (w["itl_p50_ms"], "ms"),
        "wall.setup_s": (setup_seconds(bench.setups, timeline.wall), "s"),
    }


def per_layer(bench: Bench, jobs, timeline: Timeline) -> dict:
    """Per-layer metrics of the traced rounds, per round."""
    tracer = bench.tracer
    rounds = [r for r in bench.rounds if r.traced]
    plain = [r for r in bench.rounds if not r.traced]
    n = len(rounds)
    self_s = tracer.self_times(timeline)
    out = {}
    for metric, span in SELF_MS.items():
        out[metric] = (1e3 * self_s.get(span, 0.0) / n, "ref-ms")
    out["scheduler.step_ms_p50"] = (1e3 * _pct(tracer.durations("scheduler.step", timeline), 50), "ref-ms")
    steps = sum(len(r.steps) for r in rounds)
    out["scheduler.steps"] = (steps / n, "count")
    out["scheduler.rows_per_step"] = (sum(r.rows for r in rounds) / steps, "rows")
    metrics = [m for r in rounds for m in r.report.requests]
    waits = [m.queue_delay_steps for m in metrics if m.queue_delay_steps is not None]
    out["scheduler.queue_wait_steps_p50"] = (_pct(waits, 50), "steps")
    out["scheduler.preemptions"] = (sum(m.preemptions for m in metrics) / n, "count")
    out["model.forward_ms"] = (1e3 * tracer.durations("model.forward", timeline).sum() / n, "ref-ms")

    arenas = [r.report.arena for r in rounds]
    per_round = lambda key: sum(a[key] for a in arenas) / n  # noqa: E731
    config = bench.setup.model.config
    # K and V rows of every layer, float64 in the default page pool
    page_bytes = 2 * config.n_layers * arenas[0]["page_size"] * config.hidden_size * 8
    out["kv_arena.gather_rebuilds"] = (per_round("gather_rebuilds"), "count")
    out["kv_arena.gather_mb"] = (per_round("gather_bytes_copied") / 1e6, "MB")
    out["kv_arena.page_faults"] = (per_round("page_faults"), "count")
    out["kv_arena.peak_kv_mb"] = (max(a["peak_pages_in_use"] for a in arenas) * page_bytes / 1e6, "MB")
    out["kv_arena.cow_copies"] = (per_round("cow_copies"), "count")
    out["kv_arena.snapshots_taken"] = (per_round("snapshots_taken"), "count")
    out["kv_arena.rows_rolled_back"] = (per_round("rows_rolled_back"), "count")
    prompt_rows = sum(len(j.prompt) for j in jobs)
    out["kv_arena.prefix_reuse_frac"] = (per_round("prefix_tokens_reused") / prompt_rows, "frac")

    proposed = sum(m.draft_proposed for m in metrics)
    accepted = sum(m.draft_accepted for m in metrics)
    out["spec.drafts_proposed"] = (proposed / n, "count")
    out["spec.drafts_accepted"] = (accepted / n, "count")
    out["spec.accept_frac"] = (accepted / proposed if proposed else 0.0, "frac")
    attended = sum(m.keys_attended for m in metrics)
    total = sum(m.keys_total for m in metrics)
    out["model.keys_attended"] = (attended / n, "count")
    out["model.keys_total"] = (total / n, "count")
    out["bgpp.keep_frac"] = (attended / total if bench.setup.predictor and total else 0.0, "frac")

    stats = [r.mcbp_stats for r in rounds if r.mcbp_stats is not None]
    hits = sum(s.cache_hits for s in stats)
    lookups = hits + sum(s.cache_misses for s in stats)
    out["mcbp.dense_gmacs"] = (sum(s.dense_macs for s in stats) / n / 1e9, "GMAC")
    out["mcbp.plane_hit_frac"] = (hits / lookups if lookups else 0.0, "frac")

    out.update(host_and_wall(bench, timeline))

    def per_token(rs):
        return sum(r.engine_seconds(timeline.ref) for r in rs) / sum(r.n_tokens for r in rs)

    out["trace.overhead_frac"] = (per_token(rounds) / per_token(plain) - 1.0, "frac")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report",
        choices=("auto", "all"),
        default="auto",
        help="all: with --trace 0, also print the host.*, client.* and wall.* metrics",
    )
    parser.add_argument(
        "--extra-act",
        type=int,
        default=0,
        help="sensitivity self-test: each activation call does this many extra passes",
    )
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(json.dumps({"machine": _fingerprint()}), flush=True)

    bench = Bench(workload, bool(args.trace), args.extra_act)
    bench.set_up()
    log(f"set-up ({len(bench.setups)} times)")
    rng = np.random.default_rng(args.seed)
    jobs = workload.make_jobs(rng, bench.vocab)

    warmup = [
        dataclasses.replace(
            j,
            prompt=j.prompt[:WARMUP_TOKENS * 4],
            max_new_tokens=min(j.max_new_tokens, WARMUP_TOKENS),
            arrival_step=0,
            priority=0,
        )
        for j in jobs[:SLOTS]
    ]
    bench.serve(warmup)
    log("warm-up")

    bench.timed_rounds(jobs, args.seconds)
    log(f"timed phase ({len(bench.rounds)} rounds)")

    attempted, failed, notes = bench.check(jobs, rng)
    log("checks")
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    timeline = bench.clock.freeze()
    plain = [r for r in bench.rounds if not r.traced]
    t = timings(plain, timeline.ref)
    log(
        f"{attempted} requests sent, {attempted - failed} succeeded, {failed} failed; "
        f"{len(plain[0].steps)} steps per round, composition {bench.composition_digest()}; "
        f"{t['n_ttft']} TTFT and {t['n_itl']} ITL samples"
    )

    if args.trace:
        metrics = per_layer(bench, jobs, timeline)
        OUT_DIR.mkdir(exist_ok=True)
        bench.tracer.write(
            OUT_DIR / f"{workload.name}-seed{args.seed}.trace.json.gz",
            bench.request_of_session,
        )
    else:
        metrics = end_to_end(bench, timeline)
        if args.report == "all":
            metrics.update(host_and_wall(bench, timeline))
            metrics["scheduler.steps"] = (len(plain[0].steps), "count")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not notes,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
