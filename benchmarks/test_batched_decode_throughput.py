"""Benchmark: fused batched decode vs the per-session loop, arena vs stacking.

For each batch size ``B`` in {1, 4, 8, 16} the same ``B`` prefilled decode
streams advance ``N_STEPS`` tokens two ways:

* **per-session loop** -- one ``IncrementalDecoder.step`` (one
  ``model.forward`` call) per stream per step;
* **fused batched step** -- ``IncrementalDecoder.prefill_step_batch`` runs
  every stream's token as a one-row chunk of a single quantised forward
  per step (the engine's one step path), with the model bound to an
  :class:`MCBPEngine` so each weight matrix's BSTC planes are decoded at
  most once per step (in steady state: once overall, via the
  decoded-plane cache).

A second grid pits the fused path's two KV layouts against each other at
long context (``ARENA_CONTEXT`` tokens, ``B`` in {8, 16}):

* **re-stacking** -- standalone per-stream caches, each step copies every
  stream's full history into a fresh padded tensor
  (``MultiHeadAttention.stack_copy_bytes``);
* **paged arena** -- one shared :class:`PagedKVArena`, each step refreshes
  an incrementally maintained batch view with only the ``B`` new rows
  (``ArenaStats.gather_bytes_copied``).

A third grid replays one bursty prioritized heavy-tail trace through the
policy-driven :class:`ServingEngine` under the shipped policy pairs
(FCFS, priority, deadline, aging) at ``B = 8`` slots, recording per-class
p95 latency, preemption and deadline-miss counts, and wall-clock tokens/sec.

A fourth grid measures the **chunked batched prefill pipeline**: one
prefill-heavy bursty (Pareto) trace at ``B = 8`` runs with no budget,
recording per-request *wall-clock* TTFT p50/p95 and checking the
step-domain report against the one-shot serial prefill schedule pinned
below, plus a ``prefill_token_budget`` sweep showing the
TTFT-vs-decode-throughput trade.

A fifth grid measures the **cross-request prefix cache**: a shared-prefix
trace (every prompt opens with the same long head) runs with
``prefix_cache`` off and on, recording wall-clock TTFT p95, page faults,
reused prompt rows and shared pages; a divergent-prompt trace (no two
prompts share a full page) pins the cache as a strict no-op.

CI gates: tokens bit-identical everywhere (including the preemption-heavy
policy runs, whose evicted sessions must resume bit-identically to their
solo decode, and every chunked/mixed prefill step), fused >= per-session at
``B = 8``, arena >= stacking at ``B = 8``, exactly one BSTC decode per
weight matrix, the arena must copy >= ``ARENA_BYTES_GATE``x fewer KV bytes
per step at the long context, ``ServingEngine`` at FCFS must emit solo
``generate()`` tokens on the sampled serving stream, the priority policy
must cut high-priority p95 latency strictly below FCFS on the bursty trace
(with real preemptions), the deadline policy must not miss more deadlines
than FCFS, the unbudgeted prefill run's step-domain report must equal the
pinned serial-prefill schedule, and the prefix cache must
allocate strictly fewer pages on the shared-prefix trace without losing
the cache-off TTFT p95 (tokens, per-request metrics and -- on the
divergent trace -- page faults all bit-identical).  Results are written to
``BENCH_serving.json`` at the repo root -- including a full engine run in
the ``ServingReport.to_json`` schema shared with
``examples/serving_simulation.py --json`` -- so the serving-performance
trajectory is tracked from this PR on.
"""

import gc
import json
import time
from pathlib import Path

import numpy as np

from repro.core.engine import MCBPEngine
from repro.model import QuantizedTransformer, TransformerModel, generate, get_model_config
from repro.model.generation import IncrementalDecoder
from repro.serve import (
    ClusterEngine,
    FaultPlan,
    FaultSpec,
    PagedKVArena,
    Request,
    ServingEngine,
    SpeculationConfig,
    make_policies,
)
from repro.workloads import sample_requests

from .conftest import print_result

BATCH_SIZES = (1, 4, 8, 16)
GATED_BATCH = 8  # the CI gates compare paths at this batch size
N_STEPS = 24
PROMPT_LEN = 12
REPEATS = 3

# long-context arena grid: prompt + decode steps add up to ARENA_CONTEXT
ARENA_BATCHES = (8, 16)
ARENA_CONTEXT = 512
ARENA_STEPS = 16
ARENA_BYTES_GATE = 5.0  # arena must copy >= 5x fewer KV bytes per step

# policy grid: one bursty prioritized heavy-tail trace, replayed under the
# shipped policy pairs at B = GATED_BATCH slots
POLICY_NAMES = ("fcfs", "priority", "deadline", "aging")
POLICY_REQUESTS = 48
POLICY_SEED = 29
HIGH_PRIORITY = 2

# prefill grid: one prefill-heavy bursty trace (long prompts, short decodes,
# dense Pareto bursts -- the regime where admissions dominate each step) at
# B = GATED_BATCH, unbudgeted chunked prefill + a chunk-budget sweep
PREFILL_REQUESTS = 32
PREFILL_BUDGETS = (16, 32, 64, None)
# the unbudgeted run's report on the prefill trace, pinned from the one-shot
# serial prefill engine (request_id, arrival, admitted, first token,
# finished, tokens, keys attended, keys total) in resolution order: with no
# budget every prompt lands in its admission step, so the schedule must not
# move
PREFILL_SERIAL_STEPS = 22
PREFILL_SERIAL_SCHEDULE = [
    ("req000-Winogrande", 0, 0, 0, 0, 1, 110, 110),
    ("req001-Cola", 0, 0, 0, 0, 1, 110, 110),
    ("req003-Winogrande", 0, 0, 0, 0, 1, 110, 110),
    ("req004-Cola", 1, 1, 1, 1, 1, 110, 110),
    ("req002-Dolly", 0, 0, 0, 2, 3, 2550, 2550),
    ("req005-SST2", 2, 2, 2, 2, 1, 110, 110),
    ("req006-Cola", 2, 2, 2, 2, 1, 110, 110),
    ("req008-Winogrande", 2, 2, 2, 2, 1, 110, 110),
    ("req009-MNLI", 2, 2, 2, 2, 1, 462, 462),
    ("req010-Cola", 2, 2, 2, 2, 1, 110, 110),
    ("req015-Cola", 3, 3, 3, 3, 1, 110, 110),
    ("req017-MMLU", 4, 4, 4, 4, 1, 462, 462),
    ("req007-Wikitext2", 2, 2, 2, 5, 4, 2652, 2652),
    ("req013-Dolly", 3, 3, 3, 5, 3, 2550, 2550),
    ("req012-Wikitext2", 3, 3, 3, 6, 4, 2652, 2652),
    ("req016-Dolly", 4, 4, 4, 6, 3, 2550, 2550),
    ("req018-Wikilingua", 4, 4, 4, 7, 4, 2652, 2652),
    ("req011-MBPP", 2, 2, 2, 9, 8, 90, 90),
    ("req014-MBPP", 3, 3, 3, 10, 8, 90, 90),
    ("req022-Cola", 13, 13, 13, 13, 1, 110, 110),
    ("req023-MMLU", 13, 13, 13, 13, 1, 462, 462),
    ("req025-Cola", 14, 14, 14, 14, 1, 110, 110),
    ("req026-MNLI", 14, 14, 14, 14, 1, 462, 462),
    ("req028-Cola", 14, 14, 14, 14, 1, 110, 110),
    ("req029-SST2", 14, 15, 15, 15, 1, 110, 110),
    ("req030-Cola", 15, 15, 15, 15, 1, 110, 110),
    ("req031-MMLU", 15, 15, 15, 15, 1, 462, 462),
    ("req019-Wikilingua", 13, 13, 13, 16, 4, 2652, 2652),
    ("req020-Wikitext2", 13, 13, 13, 16, 4, 2652, 2652),
    ("req021-Wikitext2", 13, 13, 13, 16, 4, 2652, 2652),
    ("req024-Dolly", 14, 14, 14, 16, 3, 2550, 2550),
    ("req027-MBPP", 14, 14, 14, 21, 8, 90, 90),
]

# prefix-cache grid: one shared-prefix trace (a long common prompt head,
# ragged novel tails) and one divergent trace (distinct leading token, so no
# full page is ever shared) at B = GATED_BATCH over small pages
PREFIX_REQUESTS = 24
PREFIX_BASE_LEN = 48
PREFIX_PAGE_SIZE = 8
PREFIX_SEED = 31
# cache-on must not lose cache-off on TTFT p95; it skips most prefill rows
# on the shared trace, so 1.1 only absorbs best-of-3 timer noise
PREFIX_TTFT_GATE = 1.1

# fault-injection hooks (PR 7): the acceptance gate says the hook points
# cost nothing measurable when no FaultInjector is installed, within 2%.
# A 2% comparison is only statistically meaningful same-process, so the
# gate pairs the hooks-disabled engine run against an armed-but-idle
# injector (a spec that can never match) over the identical stream -- the
# armed run exercises every live hook (arena probes, per-commit fires,
# commit-fault routing), so it upper-bounds the disabled-hook overhead vs
# the pre-faults engine.
FAULT_HOOK_GATE = 0.98
# odd: the gate rides the median of per-round pair ratios.  21 rounds puts
# the median's spread near 1% on a noisy shared box (single ~300ms runs
# carry +-5% CPU-time noise), leaving ~3 sigma of margin to the 2% gate
FAULT_REPEATS = 21
FAULT_PROBABILITY = 0.01  # per-opportunity rate of the recovery chaos trace
FAULT_SEED = 23

# snapshot grid (PR 8): the preemption-heavy priority trace replayed with
# kv_snapshots on/off (fp, then int8), plus a 512-token-context resume leg
# and an arena-level snapshot/restore micro-timing at the same context.
# int8 pages are 1 byte + one float64 scale per 64-wide row, so peak KV
# bytes must land near (1 + 8/64)/8 ~ 0.14x of fp; 0.2 leaves margin for
# small schedule drift from quantised argmax flips.
SNAPSHOT_INT8_BYTES_GATE = 0.2
SNAPSHOT_LONG_PROMPT = 480
SNAPSHOT_LONG_DECODE = 32  # prompt + decode = a 512-token context at resume

# cluster grid (PR 9): the bursty policy trace fanned over D data-parallel
# ServingEngine replicas behind the cluster router.  Step-domain metrics
# (steps, tokens/step, load-imbalance CV, prefix hits) are deterministic, so
# the routing gates never ride a timer; wall tokens/sec is recorded for the
# trajectory only.  D=1 round-robin must reproduce the bare engine's report
# bit-for-bit -- the anchor that makes every fleet number trustworthy.
CLUSTER_SIZES = (1, 2, 4)
BALANCE_REQUESTS = 24
BALANCE_SEED = 37
LOCALITY_GROUPS = 4
LOCALITY_SEED = 41

# speculative grid (PR 10): the fused draft-then-verify decode path.  The
# friendly trace uses cyclic motif prompts the (self-extending) n-gram
# drafter echoes almost perfectly, so spec-on must finish the same token
# volume in >= SPEC_STEP_GATE x fewer steps (step-domain, deterministic --
# the gate never rides a timer; measured ~1.4x at k=8).  The adversarial
# trace is uniform-random prompts where drafts rarely survive: with the
# adaptive throttle, spec-on must take no MORE steps than spec-off (the
# committed row of every chunk always emits, so speculation can only tie
# or win in the step domain).
SPEC_K = 8
SPEC_REQUESTS = 6
SPEC_DECODE = 48
SPEC_STEP_GATE = 1.3
SPEC_SEED = 43

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"


def _build_model() -> QuantizedTransformer:
    config = get_model_config("tiny")
    return QuantizedTransformer(TransformerModel(config, seed=0), seed=1)


def _prefilled_decoders(model, batch, prompt_len=PROMPT_LEN, arena=None):
    rng = np.random.default_rng(42)
    vocab = model.config.vocab_size
    decoders, tokens = [], []
    for _ in range(batch):
        decoder = IncrementalDecoder(model, arena=arena)
        tokens.append(
            decoder.prefill(rng.integers(0, vocab, size=prompt_len).tolist())
        )
        decoders.append(decoder)
    return decoders, tokens


def _decode_rows(decoders, tokens):
    """One decode row per stream through the engine's mixed pass."""
    _, out = IncrementalDecoder.prefill_step_batch([], [], decoders, tokens)
    return out


def _decode_tokens_per_sec(model, batch, mixed_pass):
    """Best-of-REPEATS tokens/sec of the decode loop; returns (tps, tokens)."""
    best = float("inf")
    final_tokens = None
    for _ in range(REPEATS):
        decoders, tokens = _prefilled_decoders(model, batch)
        start = time.perf_counter()
        for _ in range(N_STEPS):
            if mixed_pass:
                tokens = _decode_rows(decoders, tokens)
            else:
                tokens = [d.step(t) for d, t in zip(decoders, tokens)]
        best = min(best, time.perf_counter() - start)
        final_tokens = list(tokens)
    return batch * N_STEPS / best, final_tokens


def _stack_copy_bytes(model) -> int:
    return sum(layer.attention.stack_copy_bytes for layer in model.model.layers)


def _reset_stack_copy_bytes(model) -> None:
    for layer in model.model.layers:
        layer.attention.stack_copy_bytes = 0


def _arena_vs_stacking_row(model, batch):
    """Fused decode at long context: paged arena vs per-stream re-stacking."""
    config = model.config
    prompt_len = ARENA_CONTEXT - ARENA_STEPS
    row = {
        "batch": batch,
        "context_tokens": ARENA_CONTEXT,
        "decode_steps": ARENA_STEPS,
    }
    final_tokens = {}
    for mode in ("stacking", "arena"):
        best = float("inf")
        for _ in range(REPEATS):
            arena = None
            if mode == "arena":
                arena = PagedKVArena(
                    config.n_layers, config.hidden_size, page_size=32
                )
            decoders, tokens = _prefilled_decoders(
                model, batch, prompt_len=prompt_len, arena=arena
            )
            # count only decode-step copy traffic, not the prefill
            _reset_stack_copy_bytes(model)
            gather_base = arena.stats.gather_bytes_copied if arena else 0
            start = time.perf_counter()
            for _ in range(ARENA_STEPS):
                tokens = _decode_rows(decoders, tokens)
            best = min(best, time.perf_counter() - start)
            final_tokens[mode] = list(tokens)
            copied = (
                arena.stats.gather_bytes_copied - gather_base
                if arena
                else _stack_copy_bytes(model)
            )
        row[f"{mode}_tokens_per_sec"] = batch * ARENA_STEPS / best
        row[f"{mode}_kv_bytes_per_step"] = copied / ARENA_STEPS
    assert final_tokens["arena"] == final_tokens["stacking"], (
        f"arena decode diverged from stacking at B={batch}"
    )
    row["speedup"] = row["arena_tokens_per_sec"] / row["stacking_tokens_per_sec"]
    row["kv_bytes_ratio"] = (
        row["stacking_kv_bytes_per_step"] / row["arena_kv_bytes_per_step"]
    )
    return row


def _policy_trace(config):
    """Bursty Pareto arrivals, 75/25 low/high priority, tight deadlines."""
    return sample_requests(
        POLICY_REQUESTS,
        vocab_size=config.vocab_size,
        mean_interarrival=0.25,
        arrival_process="pareto",
        arrival_shape=1.5,
        priority_levels=(0, HIGH_PRIORITY),
        priority_weights=(0.75, 0.25),
        deadline_slack=(2, 8),
        seed=POLICY_SEED,
    )


def _policy_rows(model):
    """Replay one prioritized trace under fcfs/priority/deadline policies.

    Latency metrics are step-based (deterministic); wall-clock tokens/sec is
    recorded per policy for the trajectory.  Every run -- including the
    preemption-heavy priority/deadline ones -- must reproduce each request's
    solo-decode tokens exactly, which is the CI gate pinning that preempted
    sessions resume bit-identically.
    """
    config = model.config
    requests = _policy_trace(config)
    reference = {
        r.request_id: generate(
            model, r.prompt_tokens, max_new_tokens=r.max_new_tokens
        ).generated_tokens
        for r in requests
    }
    rows = {}
    for name in POLICY_NAMES:
        admission, scheduling = make_policies(name)
        engine = ServingEngine(
            model,
            max_active=GATED_BATCH,
            admission=admission,
            scheduling=scheduling,
        )
        handles = engine.submit_many(requests)
        start = time.perf_counter()
        report = engine.run()
        elapsed = time.perf_counter() - start
        for handle in handles:
            assert handle.generated_tokens == reference[handle.request_id], (
                f"{name} policy diverged from the solo reference for "
                f"{handle.request_id} (preempted trace must be bit-identical)"
            )
        rows[name] = {
            "steps": report.steps,
            "throughput_tokens_per_step": report.throughput_tokens_per_step,
            "wall_tokens_per_sec": report.total_tokens / elapsed,
            "p95_latency_steps": report.latency_percentile(95),
            "p95_high_priority": report.latency_percentile(
                95, priority=HIGH_PRIORITY
            ),
            "p95_low_priority": report.latency_percentile(95, priority=0),
            "preemptions": report.total_preemptions,
            "deadline_misses": report.total_deadline_misses,
        }
    return rows


def _prefill_trace(config):
    """Prefill-heavy bursty trace: long prompts, short decodes, Pareto bursts."""
    return sample_requests(
        PREFILL_REQUESTS,
        vocab_size=config.vocab_size,
        mean_interarrival=0.3,
        arrival_process="pareto",
        arrival_shape=1.5,
        prompt_divisor=24,
        max_prompt_len=48,
        decode_divisor=16,
        max_decode_len=8,
        seed=POLICY_SEED,
    )


def _ttft_wall_run(model, requests, budget=None, page_size=32, prefix_cache=False):
    """One engine run recording per-request wall-clock TTFT.

    A request's wall TTFT is the time from the start of its arrival step to
    the emission of its first token -- the wall-clock shadow of the
    step-domain ``time_to_first_token_steps``.
    """
    engine = ServingEngine(
        model,
        max_active=GATED_BATCH,
        prefill_token_budget=budget,
        page_size=page_size,
        prefix_cache=prefix_cache,
    )
    first_token_wall = {}

    def on_token(handle, token, step):
        first_token_wall.setdefault(handle.request_id, time.perf_counter())

    handles = [engine.submit(r, on_token=on_token) for r in requests]
    step_wall = []
    while engine.has_work:
        step_wall.append(time.perf_counter())
        engine.step()
    ttfts = np.array(
        [
            first_token_wall[r.request_id] - step_wall[r.arrival_step]
            for r in requests
        ]
    )
    return engine.report(), handles, ttfts


def _prefill_rows(model):
    """Unbudgeted chunked prefill TTFT, plus the chunk-budget sweep.

    Every run -- any budget, any mixed decode+prefill step, including the
    budget-stretched multi-step prefills -- must reproduce each request's
    solo-decode tokens exactly; that is the CI gate pinning that the chunked
    pipeline never changes content.  Preemption resumes ride the same
    batched path (see the policy grid's priority/deadline runs).
    """
    config = model.config
    requests = _prefill_trace(config)
    reference = {
        r.request_id: generate(
            model, r.prompt_tokens, max_new_tokens=r.max_new_tokens
        ).generated_tokens
        for r in requests
    }
    best_p95 = best_p50 = float("inf")
    for _ in range(REPEATS):
        report, handles, ttfts = _ttft_wall_run(model, requests)
        for handle in handles:
            assert handle.generated_tokens == reference[handle.request_id], (
                f"prefill diverged from the solo reference for "
                f"{handle.request_id}"
            )
        best_p95 = min(best_p95, float(np.percentile(ttfts, 95)))
        best_p50 = min(best_p50, float(np.percentile(ttfts, 50)))
    batched = {
        "ttft_wall_p50_ms": best_p50 * 1e3,
        "ttft_wall_p95_ms": best_p95 * 1e3,
        "steps": report.steps,
        "ttft_steps_p95": float(
            np.percentile(
                [m.time_to_first_token_steps for m in report.requests], 95
            )
        ),
    }
    # with no budget cap the chunked pipeline must not perturb the
    # step-domain schedule at all: the report equals the serial pin
    assert report.steps == PREFILL_SERIAL_STEPS
    assert [
        (
            m.request_id,
            m.arrival_step,
            m.admitted_step,
            m.first_token_step,
            m.finished_step,
            m.n_generated,
            m.keys_attended,
            m.keys_total,
        )
        for m in report.requests
    ] == PREFILL_SERIAL_SCHEDULE, (
        "chunked prefill changed the step-domain schedule at unlimited budget"
    )

    sweep = []
    for budget in PREFILL_BUDGETS:
        report, handles, ttfts = _ttft_wall_run(model, requests, budget=budget)
        for handle in handles:
            assert handle.generated_tokens == reference[handle.request_id], (
                f"budget={budget} prefill diverged for {handle.request_id}"
            )
        metrics = report.requests
        sweep.append(
            {
                "prefill_token_budget": budget,
                "steps": report.steps,
                "throughput_tokens_per_step": report.throughput_tokens_per_step,
                "ttft_steps_p50": float(
                    np.percentile(
                        [m.time_to_first_token_steps for m in metrics], 50
                    )
                ),
                "ttft_steps_p95": float(
                    np.percentile(
                        [m.time_to_first_token_steps for m in metrics], 95
                    )
                ),
                "prefill_steps_p95": float(
                    np.percentile([m.prefill_steps for m in metrics], 95)
                ),
                "ttft_wall_p95_ms": float(np.percentile(ttfts, 95)) * 1e3,
            }
        )
    return {
        "batch": GATED_BATCH,
        "requests": PREFILL_REQUESTS,
        "batched": batched,
        "budget_sweep": sweep,
    }


def _prefix_traces(config):
    """Shared-head and divergent request streams for the prefix-cache grid."""
    rng = np.random.default_rng(PREFIX_SEED)
    vocab = config.vocab_size
    base = rng.integers(0, vocab, size=PREFIX_BASE_LEN).tolist()
    arrivals = np.sort(rng.integers(0, 12, size=PREFIX_REQUESTS))
    shared, divergent = [], []
    for i in range(PREFIX_REQUESTS):
        tail = rng.integers(0, vocab, size=int(rng.integers(0, 9))).tolist()
        new_tokens = int(rng.integers(2, 7))
        shared.append(
            Request(
                f"s{i:02d}",
                prompt_tokens=base + tail,
                max_new_tokens=new_tokens,
                arrival_step=int(arrivals[i]),
            )
        )
        # a distinct leading token guarantees no full-page prefix is ever
        # shared, so the cache must behave as a strict no-op on this trace
        divergent.append(
            Request(
                f"d{i:02d}",
                prompt_tokens=[i % vocab]
                + rng.integers(0, vocab, size=int(rng.integers(4, 16))).tolist(),
                max_new_tokens=new_tokens,
                arrival_step=int(arrivals[i]),
            )
        )
    return shared, divergent


def _prefix_cache_block(model):
    """Cache on/off over shared-prefix and divergent traces, plus invariants.

    Correctness asserts here (bit-identical tokens and per-request step
    metrics, zero hits on the divergent trace, balanced books on drain)
    never ride on a timer; the TTFT/page gates live in the main test.
    """
    config = model.config
    shared, divergent = _prefix_traces(config)
    page_bytes = (
        PREFIX_PAGE_SIZE * config.hidden_size * config.n_layers * 2 * 8
    )
    runs, reports, tokens = {}, {}, {}
    for mode, cache in (("off", False), ("on", True)):
        best_p95 = float("inf")
        for _ in range(REPEATS):
            report, handles, ttfts = _ttft_wall_run(
                model,
                shared,
                page_size=PREFIX_PAGE_SIZE,
                prefix_cache=cache,
            )
            best_p95 = min(best_p95, float(np.percentile(ttfts, 95)))
        reports[mode] = report
        tokens[mode] = {h.request_id: h.generated_tokens for h in handles}
        arena = report.arena
        runs[mode] = {
            "ttft_wall_p95_ms": best_p95 * 1e3,
            "steps": report.steps,
            "page_faults": arena["page_faults"],
            "peak_pages_in_use": arena["peak_pages_in_use"],
            "kv_fault_bytes": arena["page_faults"] * page_bytes,
            "prefix_hits": arena["prefix_hits"],
            "prefix_tokens_reused": arena["prefix_tokens_reused"],
            "prefix_pages_shared": arena["prefix_pages_shared"],
            "cow_copies": arena["cow_copies"],
        }
    # sharing is an execution detail: tokens and the whole step-domain
    # per-request schedule are bit-identical to the cache-off run
    assert tokens["on"] == tokens["off"], "prefix cache changed tokens"
    assert reports["on"].requests == reports["off"].requests, (
        "prefix cache perturbed the step-domain schedule"
    )
    arena_on = reports["on"].arena
    assert (
        arena_on["page_faults"]
        == arena_on["pages_freed"] + arena_on["cached_idle_pages"]
    ), "prefix-cache refcount books unbalanced after drain"

    div = {}
    for mode, cache in (("off", False), ("on", True)):
        report, handles, _ = _ttft_wall_run(
            model,
            divergent,
            page_size=PREFIX_PAGE_SIZE,
            prefix_cache=cache,
        )
        div[mode] = report
        tokens[f"div_{mode}"] = {
            h.request_id: h.generated_tokens for h in handles
        }
    assert tokens["div_on"] == tokens["div_off"], (
        "prefix cache changed tokens on the divergent trace"
    )
    assert div["on"].requests == div["off"].requests
    # no full page is shared, so the cache allocates exactly like no-cache
    assert div["on"].arena["prefix_hits"] == 0
    assert div["on"].arena["page_faults"] == div["off"].arena["page_faults"]

    return {
        "batch": GATED_BATCH,
        "requests": PREFIX_REQUESTS,
        "base_prompt_len": PREFIX_BASE_LEN,
        "page_size": PREFIX_PAGE_SIZE,
        "shared_trace": runs,
        "page_fault_reduction": (
            runs["off"]["page_faults"] / runs["on"]["page_faults"]
        ),
        "divergent_trace": {
            "cache_on_page_faults": div["on"].arena["page_faults"],
            "cache_off_page_faults": div["off"].arena["page_faults"],
            "prefix_hits": div["on"].arena["prefix_hits"],
        },
    }


def _faults_block(model, stream):
    """Fault-hook overhead pair + 1%-fault recovery trace on one stream.

    The overhead gate compares two engines timed in interleaved rounds in
    this process: hooks disabled (``faults=None``) versus an armed-but-idle
    injector whose only spec can never match (probability 0, scheduled past
    any reachable step).  The armed engine keeps every engine-side hook
    live -- arena probes, per-commit fire checks, commit-fault routing --
    so its throughput upper-bounds the cost of the disabled hooks, and its
    report must be bit-identical to the baseline's.  The chaos leg then
    reruns the stream under a 1% uniform fault plan and records recovery
    behaviour (all step-domain, so only the timing pair rides on a clock).
    """
    idle_plan = FaultPlan(
        specs=(
            FaultSpec(site="session.compute", probability=0.0, at_step=10**9),
        )
    )
    # the timing pair runs a 3x longer stream than the serving report so a
    # single sample is ~300ms of work (the chaos leg below stays on the
    # shared 16-request stream so its counters remain comparable to
    # serving_report)
    pair_stream = sample_requests(
        48,
        vocab_size=model.config.vocab_size,
        mean_interarrival=0.5,
        seed=11,
    )

    def _one_run(make_engine):
        # process CPU time, not wall-clock: the pair gate is about compute
        # overhead, and CPU time is immune to the container scheduler
        # preempting one run but not its partner
        serving = make_engine()
        serving.submit_many(pair_stream)
        start = time.process_time()
        report = serving.run()
        return report, time.process_time() - start

    # a single ~100ms run carries +-3% timer noise, too much for a 2% gate
    # on one best-of pair -- so each round times the two engines adjacent
    # in time (alternating order to cancel ordering bias) and the gate
    # rides the MEDIAN of the per-round elapsed ratios: drift cancels
    # within a pair, outlier rounds cancel in the median.  Best-of
    # tokens/sec is still reported for display.
    makers = {
        "base": lambda: ServingEngine(model, max_active=GATED_BATCH),
        "armed": lambda: ServingEngine(
            model, max_active=GATED_BATCH, faults=idle_plan
        ),
    }
    best = {"base": float("inf"), "armed": float("inf")}
    reports, round_ratios = {}, []
    for which in ("base", "armed"):  # warmup: fault caches, allocator state
        _one_run(makers[which])
    # cyclic GC pauses land on whichever engine happens to cross the
    # allocation threshold -- under a full-suite heap that skew exceeds
    # the 2% gate, so the timed pair runs with the collector off
    gc.collect()
    gc.disable()
    try:
        for round_index in range(FAULT_REPEATS):
            order = (
                ("base", "armed") if round_index % 2 == 0 else ("armed", "base")
            )
            elapsed = {}
            for which in order:
                reports[which], elapsed[which] = _one_run(makers[which])
                best[which] = min(best[which], elapsed[which])
            round_ratios.append(elapsed["base"] / elapsed["armed"])
    finally:
        gc.enable()
    hook_ratio = sorted(round_ratios)[len(round_ratios) // 2]
    base_report, armed_report = reports["base"], reports["armed"]
    base_tps = base_report.total_tokens / best["base"]
    armed_tps = armed_report.total_tokens / best["armed"]
    assert armed_report.to_json() == base_report.to_json(), (
        "armed-but-idle fault injector perturbed the serving trace"
    )

    chaos_plan = FaultPlan.uniform(
        FAULT_PROBABILITY,
        seed=FAULT_SEED,
        sites=("arena.alloc", "session.compute", "session.append"),
    )
    chaos = ServingEngine(
        model, max_active=GATED_BATCH, faults=chaos_plan, max_retries=3
    )
    chaos.submit_many(stream)
    chaos_report = chaos.run(max_steps=5000)
    assert not chaos_report.truncated, "chaos trace failed to drain"
    arena = chaos_report.arena
    assert arena["pages_in_use"] == 0, "chaos trace leaked arena pages"
    assert arena["page_faults"] == arena["pages_freed"], (
        "chaos trace arena books unbalanced"
    )
    injector = chaos.fault_injector
    assert injector.total_fires > 0, (
        "the 1% chaos plan never fired -- the recovery leg measured nothing"
    )

    recovered = [
        m
        for m in chaos_report.requests
        if m.retries > 0 and m.outcome == "finished"
    ]
    recovery_ttfts = sorted(
        m.first_token_step - m.arrival_step
        for m in recovered
        if m.first_token_step is not None
    )
    recovery_ttft_p95 = (
        float(
            recovery_ttfts[
                min(len(recovery_ttfts) - 1, int(0.95 * len(recovery_ttfts)))
            ]
        )
        if recovery_ttfts
        else None
    )
    policy = chaos_report.to_json()["policy"]
    return {
        "hooks_disabled_tokens_per_sec": base_tps,
        "hooks_armed_idle_tokens_per_sec": armed_tps,
        "hook_overhead_ratio": hook_ratio,
        "chaos": {
            "fault_probability": FAULT_PROBABILITY,
            "seed": FAULT_SEED,
            "steps": chaos_report.steps,
            "fires_by_site": dict(injector.fires_by_site),
            "opportunities": int(injector.opportunities),
            "total_fires": int(injector.total_fires),
            "retries": policy["retries"],
            "failed": policy["failed"],
            "finished_with_retries": len(recovered),
            "recovery_ttft_p95_steps": recovery_ttft_p95,
        },
    }


def _snapshot_page_bytes(config, page_size, int8):
    """Resident bytes of one arena page (K+V, all layers) per pool dtype."""
    rows = page_size * config.n_layers * 2
    if int8:
        return rows * config.hidden_size + rows * 8  # int8 rows + f64 scales
    return rows * config.hidden_size * 8


def _snapshot_block(model):
    """Snapshot preemption on/off over the preemption-heavy priority trace.

    Correctness asserts here are all step-domain (bit-identical tokens,
    bit-equal schedule, strictly fewer KV appends, balanced books); only the
    512-token snapshot/restore micro-timing rides a clock, and it is
    recorded for the trajectory, never gated.
    """
    config = model.config
    requests = _policy_trace(config)
    reference = {
        r.request_id: generate(
            model, r.prompt_tokens, max_new_tokens=r.max_new_tokens
        ).generated_tokens
        for r in requests
    }

    def _run(kv_snapshots, kv_dtype=None):
        admission, scheduling = make_policies("priority")
        engine = ServingEngine(
            model,
            max_active=GATED_BATCH,
            admission=admission,
            scheduling=scheduling,
            kv_snapshots=kv_snapshots,
            kv_dtype=kv_dtype,
        )
        handles = engine.submit_many(requests)
        report = engine.run()
        return report, {h.request_id: h.generated_tokens for h in handles}

    reports, tokens = {}, {}
    for mode, snap in (("off", False), ("on", True)):
        reports[mode], tokens[mode] = _run(snap)
    # snapshots are an execution detail: the fp engine must reproduce every
    # solo stream and the exact snapshot-off (= pre-PR) step schedule
    assert tokens["on"] == tokens["off"] == reference, (
        "kv_snapshots changed the token streams"
    )
    schedule = {
        mode: [
            (m.request_id, m.admitted_step, m.first_token_step, m.finished_step)
            for m in reports[mode].requests
        ]
        for mode in ("off", "on")
    }
    assert schedule["on"] == schedule["off"], (
        "kv_snapshots perturbed the step-domain schedule"
    )
    arena_on, arena_off = reports["on"].arena, reports["off"].arena
    assert reports["on"].total_preemptions > 0, (
        "the snapshot trace no longer exercises preemption"
    )
    assert arena_on["snapshots_taken"] >= reports["on"].total_preemptions
    assert arena_on["pages_in_use"] == 0, "snapshot trace leaked arena pages"

    # int8 leg: same trace, quantised pool, snapshots on.  Tokens may
    # legitimately drift from fp (documented tolerance), so only the
    # capacity counters are compared.
    int8_report, _ = _run(True, kv_dtype="int8")
    assert int8_report.arena["pages_in_use"] == 0
    page_size = int(arena_on["page_size"])
    peak_bytes = {
        "fp": arena_on["peak_pages_in_use"]
        * _snapshot_page_bytes(config, page_size, int8=False),
        "int8": int8_report.arena["peak_pages_in_use"]
        * _snapshot_page_bytes(config, page_size, int8=True),
    }

    # 512-token-context resume leg: one long low-priority session is
    # preempted mid-decode by a burst of high-priority work on a single
    # slot, then resumes.  Snapshot-off replays the whole context through
    # prefill; snapshot-on faults the pages back and replays nothing.
    rng = np.random.default_rng(FAULT_SEED)
    long_requests = [
        Request(
            "long",
            prompt_tokens=rng.integers(
                0, config.vocab_size, size=SNAPSHOT_LONG_PROMPT
            ).tolist(),
            max_new_tokens=SNAPSHOT_LONG_DECODE,
            priority=0,
            arrival_step=0,
        ),
        Request(
            "rush",
            prompt_tokens=rng.integers(0, config.vocab_size, size=6).tolist(),
            max_new_tokens=4,
            priority=2,
            arrival_step=SNAPSHOT_LONG_PROMPT // 32 + 8,  # mid-decode
        ),
    ]
    long_runs = {}
    for mode, snap in (("off", False), ("on", True)):
        admission, scheduling = make_policies("priority")
        engine = ServingEngine(
            model,
            max_active=1,
            admission=admission,
            scheduling=scheduling,
            kv_snapshots=snap,
        )
        handles = engine.submit_many(long_requests)
        report = engine.run()
        long_runs[mode] = report
        for handle in handles:
            solo = generate(
                model,
                handle.request.prompt_tokens,
                max_new_tokens=handle.request.max_new_tokens,
            )
            assert handle.generated_tokens == solo.generated_tokens, (
                f"long-context {mode} run diverged for {handle.request_id}"
            )
    assert long_runs["on"].total_preemptions > 0, (
        "the long-context leg never preempted the 512-token session"
    )
    reprefill_rows_avoided = (
        long_runs["off"].arena["tokens_appended"]
        - long_runs["on"].arena["tokens_appended"]
    )

    # arena-level micro-timing: snapshot + restore of a full 512-token
    # session, per pool dtype (page copies only -- no model compute)
    micro = {}
    context = SNAPSHOT_LONG_PROMPT + SNAPSHOT_LONG_DECODE
    k = rng.normal(size=(context, config.hidden_size))
    v = rng.normal(size=(context, config.hidden_size))
    for dtype_name, kv_dtype in (("fp", None), ("int8", "int8")):
        arena = PagedKVArena(
            n_layers=config.n_layers,
            page_size=page_size,
            hidden_size=config.hidden_size,
            kv_dtype=kv_dtype,
        )
        sid = arena.create_session()
        for layer in range(config.n_layers):
            arena.append(sid, layer, k, v)
        best, snapshot_bytes = float("inf"), 0
        for _ in range(REPEATS):
            start = time.perf_counter()
            snapshot = arena.snapshot_session(sid)
            arena.restore_session(sid, snapshot)
            best = min(best, time.perf_counter() - start)
            snapshot_bytes = arena.stats.snapshot_bytes // arena.stats.snapshots_taken
        micro[dtype_name] = {
            "roundtrip_ms": best * 1e3,
            "snapshot_bytes": int(snapshot_bytes),
        }

    return {
        "batch": GATED_BATCH,
        "requests": POLICY_REQUESTS,
        "policy": "priority",
        "preemptions": reports["on"].total_preemptions,
        "snapshots_taken": arena_on["snapshots_taken"],
        "snapshots_restored": arena_on["snapshots_restored"],
        "kv_appends_reprefill": arena_off["tokens_appended"],
        "kv_appends_snapshot": arena_on["tokens_appended"],
        "int8": {
            "peak_kv_bytes_fp": peak_bytes["fp"],
            "peak_kv_bytes_int8": peak_bytes["int8"],
            "peak_kv_bytes_ratio": peak_bytes["int8"] / peak_bytes["fp"],
            "dequant_bytes": int8_report.arena["dequant_bytes"],
        },
        "long_context": {
            "context_tokens": context,
            "preemptions": long_runs["on"].total_preemptions,
            "kv_appends_reprefill": long_runs["off"].arena["tokens_appended"],
            "kv_appends_snapshot": long_runs["on"].arena["tokens_appended"],
            "reprefill_rows_avoided": int(reprefill_rows_avoided),
            "snapshot_roundtrip": micro,
        },
    }


def _cluster_block(model):
    """Fleet scaling + routing comparison over D ServingEngine replicas.

    Three legs, all sharing the bursty policy trace unless noted:

    * scaling -- round-robin fleets at D in CLUSTER_SIZES over the bursty
      policy trace: steps shrink and tokens/step grow with D (each replica
      runs its own fused batch), with wall tokens/sec recorded for the
      trajectory;
    * balance -- least-loaded vs round-robin load-imbalance CV at D >= 2 on
      a bimodal trace (alternating long/short requests, spaced arrivals).
      Round-robin parity-partitions every long request onto the same
      replicas; least-loaded routes to whichever replica drained, so its CV
      must not exceed round-robin's;
    * locality -- affinity vs round-robin prefix hits with per-replica
      prefix caches at D=2 on a four-group shared-prefix trace (hashing the
      prompt head keeps each prefix group on one replica, so the fleet pays
      each group's prefix miss once; round-robin splits every group across
      both replicas and registers every prefix twice).

    The D=1 anchor asserts here (cluster report vs bare-engine report, whole
    JSON: tokens, metrics, arena counters) so the routing gates in the main
    test never ride on a timer.
    """
    config = model.config
    requests = _policy_trace(config)

    def timed(make_cluster):
        best, report = float("inf"), None
        for _ in range(REPEATS):
            cluster = make_cluster()
            cluster.submit_many(requests)
            start = time.perf_counter()
            report = cluster.run()
            best = min(best, time.perf_counter() - start)
        return report, report.total_tokens / best

    bare = ServingEngine(model, max_active=GATED_BATCH)
    bare.submit_many(requests)
    start = time.perf_counter()
    bare_report = bare.run()
    bare_elapsed = time.perf_counter() - start

    scaling = {}
    rr_reports = {}
    for d in CLUSTER_SIZES:
        report, wall_tps = timed(
            lambda d=d: ClusterEngine(
                model, n_replicas=d, routing="rr", max_active=GATED_BATCH
            )
        )
        assert report.total_tokens == bare_report.total_tokens, (
            f"rr fleet at D={d} served different token volume than the "
            "single engine"
        )
        rr_reports[d] = report
        if d == 1:
            # D=1 anchor: the trivial fleet must *be* the bare engine --
            # the entire per-replica report is bit-identical, so every
            # fleet-level number below inherits the single-engine goldens
            assert report.replicas[0].to_json() == bare_report.to_json(), (
                "ClusterEngine(D=1, rr) diverged from the bare ServingEngine"
            )
            assert report.load_imbalance == 0.0
        scaling[str(d)] = {
            "steps": report.steps,
            "throughput_tokens_per_step": report.throughput_tokens_per_step,
            "wall_tokens_per_sec": wall_tps,
            "load_imbalance": report.load_imbalance,
            "step_speedup_vs_single": bare_report.steps / report.steps,
        }

    # bimodal balance trace: even submissions are long (16 new tokens), odd
    # ones short (2), two steps apart -- the adversarial-for-rr shape that
    # motivates load-aware routing in the first place
    rng = np.random.default_rng(BALANCE_SEED)
    vocab = config.vocab_size
    bimodal = [
        Request(
            f"b{i:02d}",
            prompt_tokens=rng.integers(0, vocab, size=6).tolist(),
            max_new_tokens=16 if i % 2 == 0 else 2,
            arrival_step=2 * i,
        )
        for i in range(BALANCE_REQUESTS)
    ]
    balance = {}
    for d in (2, 4):
        reports = {}
        for routing in ("rr", "least-loaded"):
            cluster = ClusterEngine(
                model, n_replicas=d, routing=routing, max_active=GATED_BATCH
            )
            cluster.submit_many(bimodal)
            reports[routing] = cluster.run()
        assert (
            reports["rr"].total_tokens == reports["least-loaded"].total_tokens
        ), f"routing changed the bimodal trace's token volume at D={d}"
        balance[str(d)] = {
            "rr_load_imbalance": reports["rr"].load_imbalance,
            "least_loaded_imbalance": reports["least-loaded"].load_imbalance,
        }

    # four prefix groups arriving as consecutive tenant bursts: round-robin
    # alternates inside each burst and lands every group on both replicas
    # (registering every prefix twice), the multi-tenant shape where
    # locality-aware routing actually pays off
    rng = np.random.default_rng(LOCALITY_SEED)
    group_size = PREFIX_REQUESTS // LOCALITY_GROUPS
    heads = [
        rng.integers(0, vocab, size=PREFIX_BASE_LEN).tolist()
        for _ in range(LOCALITY_GROUPS)
    ]
    shared = [
        Request(
            f"g{i // group_size}r{i % group_size}",
            prompt_tokens=heads[i // group_size]
            + rng.integers(0, vocab, size=int(rng.integers(0, 9))).tolist(),
            max_new_tokens=int(rng.integers(2, 7)),
            arrival_step=i,
        )
        for i in range(PREFIX_REQUESTS)
    ]
    locality = {}
    for routing in ("rr", "affinity"):
        cluster = ClusterEngine(
            model,
            n_replicas=2,
            routing=routing,
            max_active=GATED_BATCH,
            page_size=PREFIX_PAGE_SIZE,
            prefix_cache=True,
        )
        cluster.submit_many(shared)
        report = cluster.run()
        for rep in report.replicas:
            assert rep.arena["pages_in_use"] == 0, (
                f"{routing} replica arena failed to drain on the shared trace"
            )
        locality[routing] = {
            "prefix_hits": report.prefix_hits,
            "prefix_hit_rate": report.prefix_hit_rate,
            "tokens_by_replica": report.tokens_by_replica,
        }

    return {
        "batch": GATED_BATCH,
        "requests": POLICY_REQUESTS,
        "single_engine": {
            "steps": bare_report.steps,
            "throughput_tokens_per_step": bare_report.throughput_tokens_per_step,
            "wall_tokens_per_sec": bare_report.total_tokens / bare_elapsed,
        },
        "scaling": scaling,
        "balance": balance,
        "affinity_vs_rr": locality,
    }


def _speculative_block(model):
    """Spec-on vs spec-off over a friendly and an adversarial decode trace.

    Both legs assert bit-identical token streams (the speculative contract)
    and report step-domain throughput, which is deterministic -- wall
    tokens/sec is recorded for the trajectory only.  The spec-off leg also
    anchors ``speculative=None`` against a default-constructed engine:
    whole-report JSON equality, so the knob is provably a no-op when off.
    """
    config = model.config
    vocab = config.vocab_size
    # cyclic motif prompts: greedy tiny-model decode settles into the
    # prompt's cycle, which the self-extending n-gram drafter echoes
    friendly = [
        Request(
            f"f{i}",
            prompt_tokens=[3 + i, 17, 5, 9 + i] * 3,
            max_new_tokens=SPEC_DECODE,
            arrival_step=0,
        )
        for i in range(SPEC_REQUESTS)
    ]
    rng = np.random.default_rng(SPEC_SEED)
    adversarial = [
        Request(
            f"a{i}",
            prompt_tokens=rng.integers(0, vocab, size=12).tolist(),
            max_new_tokens=16,
            arrival_step=0,
        )
        for i in range(SPEC_REQUESTS)
    ]

    def _run(requests, speculative):
        engine = ServingEngine(
            model, max_active=SPEC_REQUESTS, speculative=speculative
        )
        handles = engine.submit_many(requests)
        start = time.perf_counter()
        report = engine.run()
        elapsed = time.perf_counter() - start
        tokens = {h.request_id: h.generated_tokens for h in handles}
        return report, tokens, elapsed

    spec_config = SpeculationConfig(k=SPEC_K, adaptive=True)
    rows = {}
    for trace_name, requests in (
        ("friendly", friendly),
        ("adversarial", adversarial),
    ):
        off_report, off_tokens, off_elapsed = _run(requests, None)
        on_report, on_tokens, on_elapsed = _run(requests, spec_config)
        assert on_tokens == off_tokens, (
            f"speculative decode changed tokens on the {trace_name} trace"
        )
        assert on_report.arena["pages_in_use"] == 0, (
            f"speculative {trace_name} run leaked arena pages"
        )
        policy = on_report.to_json()["policy"]
        rows[trace_name] = {
            "steps_off": off_report.steps,
            "steps_on": on_report.steps,
            "tokens_per_step_off": off_report.throughput_tokens_per_step,
            "tokens_per_step_on": on_report.throughput_tokens_per_step,
            "step_speedup": off_report.steps / on_report.steps,
            "wall_tokens_per_sec_off": off_report.total_tokens / off_elapsed,
            "wall_tokens_per_sec_on": on_report.total_tokens / on_elapsed,
            "draft_proposed": policy["draft_proposed"],
            "draft_accepted": policy["draft_accepted"],
            "mean_accepted_len": policy["mean_accepted_len"],
            "rows_rolled_back": on_report.arena["rows_rolled_back"],
        }

    # the off-default anchor: an engine built with speculative=None is the
    # default engine, whole report included
    explicit_off, _, _ = _run(friendly, None)
    default_engine = ServingEngine(model, max_active=SPEC_REQUESTS)
    default_engine.submit_many(friendly)
    default_report = default_engine.run()
    assert explicit_off.to_json() == default_report.to_json(), (
        "speculative=None diverged from the default engine"
    )

    return {
        "batch": SPEC_REQUESTS,
        "k": SPEC_K,
        "adaptive": True,
        "drafter": "ngram(3)",
        "friendly": rows["friendly"],
        "adversarial": rows["adversarial"],
    }


def test_batched_decode_throughput(benchmark):
    model = _build_model()
    engine = MCBPEngine(group_size=4, weight_bits=8)
    model.bind_engine(engine)
    engine.codec.reset_counters()

    rows = []
    for batch in BATCH_SIZES:
        sequential_tps, sequential_tokens = _decode_tokens_per_sec(
            model, batch, mixed_pass=False
        )
        fused_tps, fused_tokens = _decode_tokens_per_sec(
            model, batch, mixed_pass=True
        )
        assert fused_tokens == sequential_tokens, f"fused decode diverged at B={batch}"
        rows.append(
            {
                "batch": batch,
                "decode_steps": N_STEPS,
                "sequential_tokens_per_sec": sequential_tps,
                "batched_tokens_per_sec": fused_tps,
                "speedup": fused_tps / sequential_tps,
            }
        )

    # steady state: each of the model's weight matrices was BSTC-decoded
    # exactly once for the entire grid (<= one decode per layer per step)
    n_matrices = len(model.quantized_weight_matrices())
    assert engine.codec.decode_calls == n_matrices
    assert engine.stats.cache_misses == n_matrices

    # headline number under pytest-benchmark: the fused decode loop at B=8
    def fused_gated_batch():
        decoders, tokens = _prefilled_decoders(model, GATED_BATCH)
        for _ in range(N_STEPS):
            tokens = _decode_rows(decoders, tokens)
        return tokens

    benchmark.pedantic(fused_gated_batch, rounds=3, iterations=1)

    # long-context KV layout grid: paged arena vs per-stream re-stacking
    arena_rows = [_arena_vs_stacking_row(model, batch) for batch in ARENA_BATCHES]

    # shared-format serving report: one fused engine run over a sampled
    # request stream (the same schema serving_simulation.py --json emits)
    config = model.config
    stream = sample_requests(
        16, vocab_size=config.vocab_size, mean_interarrival=0.5, seed=11
    )

    best = float("inf")
    for _ in range(REPEATS):
        serving = ServingEngine(model, max_active=GATED_BATCH)
        handles = serving.submit_many(stream)
        start = time.perf_counter()
        report = serving.run()
        best = min(best, time.perf_counter() - start)
    fcfs_tps = report.total_tokens / best
    # the FCFS engine must emit exactly the solo generate() streams
    for request, handle in zip(stream, handles):
        assert handle.generated_tokens == generate(
            model, request.prompt_tokens, max_new_tokens=request.max_new_tokens
        ).generated_tokens, f"ServingEngine(FCFS) diverged for {request.request_id}"

    # fault hooks: disabled-vs-armed-idle overhead pair + 1% recovery trace
    faults_block = _faults_block(model, stream)

    # policy grid: priority/deadline/aging service under one bursty trace
    policy_rows = _policy_rows(model)

    # prefill grid: unbudgeted chunked prefill vs the serial pin + budgets
    prefill_block = _prefill_rows(model)

    # prefix-cache grid: shared-head trace cache on/off + divergent no-op
    prefix_block = _prefix_cache_block(model)

    # snapshot grid: kv_snapshots on/off + int8 pool + 512-token resume leg
    snapshot_block = _snapshot_block(model)

    # cluster grid: rr fleet scaling at D in CLUSTER_SIZES + routing duels
    cluster_block = _cluster_block(model)

    # speculative grid: fused draft-then-verify decode, friendly + adversarial
    speculative_block = _speculative_block(model)

    payload = {
        "benchmark": "batched_decode_throughput",
        "model": config.name,
        "prompt_len": PROMPT_LEN,
        "results": rows,
        "arena_vs_stacking": arena_rows,
        "bstc_decode_calls": int(engine.codec.decode_calls),
        "weight_matrices": n_matrices,
        "serving_report": report.to_json(),
        "fcfs_engine_tokens_per_sec": fcfs_tps,
        "policies": {
            "batch": GATED_BATCH,
            "requests": POLICY_REQUESTS,
            "high_priority_level": HIGH_PRIORITY,
            "results": policy_rows,
        },
        "prefill": prefill_block,
        "prefix_cache": prefix_block,
        "faults": faults_block,
        "snapshot": snapshot_block,
        "cluster": cluster_block,
        "speculative": speculative_block,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    gated = next(r for r in rows if r["batch"] == GATED_BATCH)
    gated_arena = next(r for r in arena_rows if r["batch"] == GATED_BATCH)
    print_result(
        "Fused batched decode -- tokens/sec vs per-session loop",
        "\n".join(
            f"B={r['batch']:>2}: per-session {r['sequential_tokens_per_sec']:9.1f} "
            f"tok/s   fused {r['batched_tokens_per_sec']:9.1f} tok/s   "
            f"speedup {r['speedup']:5.2f}x"
            for r in rows
        )
        + "\n"
        + "\n".join(
            f"B={r['batch']:>2} ctx={r['context_tokens']}: "
            f"stacking {r['stacking_kv_bytes_per_step'] / 1024.0:8.1f} KiB/step "
            f"{r['stacking_tokens_per_sec']:7.1f} tok/s   "
            f"arena {r['arena_kv_bytes_per_step'] / 1024.0:6.1f} KiB/step "
            f"{r['arena_tokens_per_sec']:7.1f} tok/s   "
            f"bytes {r['kv_bytes_ratio']:5.1f}x  speed {r['speedup']:4.2f}x"
            for r in arena_rows
        )
        + "\n".join(
            [""]
            + [
                f"{name:>9}: {r['steps']:>4} steps  "
                f"{r['throughput_tokens_per_step']:5.2f} tok/step  "
                f"p95 hi {r['p95_high_priority']:6.1f}  "
                f"lo {r['p95_low_priority']:6.1f}  "
                f"preempt {r['preemptions']:>3}  "
                f"misses {r['deadline_misses']:>3}"
                for name, r in policy_rows.items()
            ]
        )
        + f"\nFCFS engine {fcfs_tps:.1f} tok/s"
        + "\nprefill TTFT (wall): p50 "
        f"{prefill_block['batched']['ttft_wall_p50_ms']:.2f} ms   p95 "
        f"{prefill_block['batched']['ttft_wall_p95_ms']:.2f} ms"
        + "\n"
        + "\n".join(
            f"  budget={str(r['prefill_token_budget']):>4}: "
            f"{r['steps']:>3} steps  ttft p95 {r['ttft_steps_p95']:5.1f} steps"
            f" / {r['ttft_wall_p95_ms']:7.2f} ms  "
            f"prefill p95 {r['prefill_steps_p95']:4.1f} steps  "
            f"{r['throughput_tokens_per_step']:.2f} tok/step"
            for r in prefill_block["budget_sweep"]
        )
        + "\nprefix cache (shared trace): off "
        f"{prefix_block['shared_trace']['off']['page_faults']} faults / "
        f"p95 {prefix_block['shared_trace']['off']['ttft_wall_p95_ms']:.2f} ms"
        "   on "
        f"{prefix_block['shared_trace']['on']['page_faults']} faults / "
        f"p95 {prefix_block['shared_trace']['on']['ttft_wall_p95_ms']:.2f} ms"
        f"   ({prefix_block['page_fault_reduction']:.2f}x fewer faults, "
        f"{prefix_block['shared_trace']['on']['prefix_tokens_reused']} rows "
        "reused)"
        + "\nfault hooks: disabled "
        f"{faults_block['hooks_disabled_tokens_per_sec']:.1f} tok/s   "
        f"armed-idle {faults_block['hooks_armed_idle_tokens_per_sec']:.1f} "
        f"tok/s   ({faults_block['hook_overhead_ratio']:.3f}x)"
        + "\nchaos @1%: "
        f"{faults_block['chaos']['total_fires']} fires / "
        f"{faults_block['chaos']['opportunities']} opportunities   "
        f"retries {faults_block['chaos']['retries']}  "
        f"failed {faults_block['chaos']['failed']}  "
        "recovery ttft p95 "
        f"{faults_block['chaos']['recovery_ttft_p95_steps']} steps"
        + "\nsnapshots (priority trace): "
        f"{snapshot_block['preemptions']} preemptions   KV appends "
        f"{snapshot_block['kv_appends_reprefill']} reprefill -> "
        f"{snapshot_block['kv_appends_snapshot']} snapshot   int8 peak KV "
        f"{snapshot_block['int8']['peak_kv_bytes_ratio']:.3f}x of fp"
        + "\nsnapshot @512 ctx: "
        f"{snapshot_block['long_context']['reprefill_rows_avoided']} "
        "reprefill rows avoided   roundtrip fp "
        f"{snapshot_block['long_context']['snapshot_roundtrip']['fp']['roundtrip_ms']:.2f} ms"
        "   int8 "
        f"{snapshot_block['long_context']['snapshot_roundtrip']['int8']['roundtrip_ms']:.2f} ms"
        + "\ncluster (rr fleet): "
        + "   ".join(
            f"D={d}: {cluster_block['scaling'][str(d)]['steps']} steps "
            f"({cluster_block['scaling'][str(d)]['step_speedup_vs_single']:.2f}x) "
            f"CV {cluster_block['scaling'][str(d)]['load_imbalance']:.3f}"
            for d in CLUSTER_SIZES
        )
        + "\ncluster routing: least-loaded CV "
        f"{cluster_block['balance']['2']['least_loaded_imbalance']:.3f} vs rr "
        f"{cluster_block['balance']['2']['rr_load_imbalance']:.3f} @D=2   "
        "affinity prefix hits "
        f"{cluster_block['affinity_vs_rr']['affinity']['prefix_hits']} vs rr "
        f"{cluster_block['affinity_vs_rr']['rr']['prefix_hits']}"
        + "\nspeculative (k=8 ngram): friendly "
        f"{speculative_block['friendly']['steps_off']} -> "
        f"{speculative_block['friendly']['steps_on']} steps "
        f"({speculative_block['friendly']['step_speedup']:.2f}x, accept "
        f"{speculative_block['friendly']['draft_accepted']}/"
        f"{speculative_block['friendly']['draft_proposed']})   adversarial "
        f"{speculative_block['adversarial']['steps_off']} -> "
        f"{speculative_block['adversarial']['steps_on']} steps "
        f"({speculative_block['adversarial']['step_speedup']:.2f}x)"
        + f"\nBSTC decodes: {engine.codec.decode_calls} "
        f"(= {n_matrices} weight matrices)\nreport -> {BENCH_PATH.name}",
    )

    # CI gate: the fused path must never lose to the per-session loop at the
    # gated batch size (it sits ~3-4x above it; 1.0 keeps noise out of CI)
    assert gated["speedup"] >= 1.0, (
        f"fused decode slower than per-session loop at B={GATED_BATCH}: "
        f"{gated['speedup']:.2f}x"
    )
    # CI gate: the paged arena must not lose to re-stacking at B=8, and its
    # per-step KV copy traffic must no longer scale with context length
    assert gated_arena["speedup"] >= 1.0, (
        f"arena decode slower than re-stacking at B={GATED_BATCH}: "
        f"{gated_arena['speedup']:.2f}x"
    )
    for row in arena_rows:
        assert row["kv_bytes_ratio"] >= ARENA_BYTES_GATE, (
            f"arena copies too many KV bytes at B={row['batch']}: only "
            f"{row['kv_bytes_ratio']:.1f}x below stacking "
            f"(gate {ARENA_BYTES_GATE}x)"
        )
    # CI gate: priority service must demonstrably reorder the bursty trace --
    # high-priority p95 latency strictly below FCFS, with real preemptions
    # (all metrics are step-domain, so this is deterministic)
    assert policy_rows["priority"]["preemptions"] > 0, (
        "the policy trace no longer exercises preemption"
    )
    assert (
        policy_rows["priority"]["p95_high_priority"]
        < policy_rows["fcfs"]["p95_high_priority"]
    ), (
        "priority policy failed to cut high-priority p95 latency: "
        f"{policy_rows['priority']['p95_high_priority']:.1f} vs FCFS "
        f"{policy_rows['fcfs']['p95_high_priority']:.1f}"
    )
    # CI gate: deadline-aware service must not miss more deadlines than FCFS
    assert (
        policy_rows["deadline"]["deadline_misses"]
        <= policy_rows["fcfs"]["deadline_misses"]
    ), "deadline policy misses more deadlines than FCFS"
    # CI gate: the prefix cache must not lose the cache-off TTFT p95 on the
    # shared-prefix trace (it skips most prompt rows, so it should win; the
    # gate only absorbs best-of-3 timer noise).  Bit-exactness of tokens,
    # schedules and the divergent no-op assert inside _prefix_cache_block.
    shared_on = prefix_block["shared_trace"]["on"]
    shared_off = prefix_block["shared_trace"]["off"]
    assert (
        shared_on["ttft_wall_p95_ms"]
        <= PREFIX_TTFT_GATE * shared_off["ttft_wall_p95_ms"]
    ), (
        "prefix cache lost to no-cache on shared-prefix TTFT p95: "
        f"{shared_on['ttft_wall_p95_ms']:.2f} vs "
        f"{shared_off['ttft_wall_p95_ms']:.2f} ms (gate {PREFIX_TTFT_GATE}x)"
    )
    # CI gate: sharing must show up in the allocator -- strictly fewer page
    # faults (= fewer KV bytes materialised) and real reuse on the shared
    # trace, without any copy-on-write explosion (deterministic counters)
    assert shared_on["page_faults"] < shared_off["page_faults"], (
        "prefix cache failed to reduce page faults on the shared trace: "
        f"{shared_on['page_faults']} vs {shared_off['page_faults']}"
    )
    assert shared_on["prefix_hits"] > 0
    assert shared_on["prefix_tokens_reused"] > 0
    assert shared_on["peak_pages_in_use"] <= shared_off["peak_pages_in_use"], (
        "prefix cache raised peak arena occupancy on the shared trace"
    )
    # CI gate: the fault-injection hook points must cost nothing measurable
    # when no fault ever fires -- the armed-but-idle engine (which also pays
    # per-commit KV verification) must hold within 2% of the hooks-disabled
    # engine timed back-to-back in this process.  Behavioural identity of the
    # pair asserts inside _faults_block, so only throughput rides the timer.
    assert faults_block["hook_overhead_ratio"] >= FAULT_HOOK_GATE, (
        "fault-injection hooks taxed the fault-free path: armed-idle "
        f"{faults_block['hooks_armed_idle_tokens_per_sec']:.1f} vs disabled "
        f"{faults_block['hooks_disabled_tokens_per_sec']:.1f} tok/s "
        f"(ratio {faults_block['hook_overhead_ratio']:.3f}, "
        f"gate {FAULT_HOOK_GATE})"
    )
    # CI gate: snapshot resumes must be strictly cheaper than re-prefill in
    # forward work -- fewer KV rows appended over the identical preemption
    # schedule (deterministic counters; bit-equality of tokens and schedule
    # asserts inside _snapshot_block), on both the bursty priority trace and
    # the 512-token-context leg
    assert (
        snapshot_block["kv_appends_snapshot"]
        < snapshot_block["kv_appends_reprefill"]
    ), (
        "snapshot preemption failed to beat re-prefill on KV appends: "
        f"{snapshot_block['kv_appends_snapshot']} vs "
        f"{snapshot_block['kv_appends_reprefill']}"
    )
    assert snapshot_block["long_context"]["reprefill_rows_avoided"] > 0, (
        "512-token snapshot resume replayed prefill rows"
    )
    # CI gate: the int8 pool must shrink peak resident KV bytes to <= 0.2x
    # of the fp pool on the same trace (per-row scales put the floor near
    # 0.14x at hidden=64; the margin absorbs quantised-argmax schedule drift)
    assert (
        snapshot_block["int8"]["peak_kv_bytes_ratio"]
        <= SNAPSHOT_INT8_BYTES_GATE
    ), (
        "int8 KV pages failed the peak-bytes gate: "
        f"{snapshot_block['int8']['peak_kv_bytes_ratio']:.3f}x of fp "
        f"(gate {SNAPSHOT_INT8_BYTES_GATE}x)"
    )
    # CI gate: least-loaded routing must never balance the bursty trace
    # worse than blind round-robin (step-domain CV of per-replica tokens;
    # the D=1 report-equality anchor asserts inside _cluster_block)
    for d, row in cluster_block["balance"].items():
        assert row["least_loaded_imbalance"] <= row["rr_load_imbalance"], (
            f"least-loaded routing balanced worse than rr at D={d}: CV "
            f"{row['least_loaded_imbalance']:.3f} vs "
            f"{row['rr_load_imbalance']:.3f}"
        )
    # CI gate: speculative decode must multiply step-domain throughput on
    # the acceptance-friendly trace (same token volume in >= 1.3x fewer
    # steps; deterministic counters, never a timer) and must not take more
    # steps than plain decode on the adversarial trace under the adaptive
    # throttle.  Token bit-identity asserts inside _speculative_block.
    assert speculative_block["friendly"]["step_speedup"] >= SPEC_STEP_GATE, (
        "speculative decode missed the friendly-trace step gate: "
        f"{speculative_block['friendly']['step_speedup']:.2f}x "
        f"(gate {SPEC_STEP_GATE}x)"
    )
    assert (
        speculative_block["adversarial"]["steps_on"]
        <= speculative_block["adversarial"]["steps_off"]
    ), (
        "adaptive speculation regressed the adversarial trace: "
        f"{speculative_block['adversarial']['steps_on']} vs "
        f"{speculative_block['adversarial']['steps_off']} steps"
    )
    # CI gate: prefix-affinity routing must land strictly more prefix-cache
    # hits than round-robin on the shared-prefix trace -- hashing the prompt
    # head keeps each prefix group on one replica, so the fleet pays the
    # prefix miss once instead of once per replica (deterministic counters)
    assert (
        cluster_block["affinity_vs_rr"]["affinity"]["prefix_hits"]
        > cluster_block["affinity_vs_rr"]["rr"]["prefix_hits"]
    ), (
        "affinity routing failed to beat rr on prefix hits: "
        f"{cluster_block['affinity_vs_rr']['affinity']['prefix_hits']} vs "
        f"{cluster_block['affinity_vs_rr']['rr']['prefix_hits']}"
    )
