"""Golden regression tests for engine and serving counter accounting.

Each class runs one fixed, fully seeded workload and pins *every* counter:

* :class:`TestEngineGolden` -- repeated GEMMs through a deliberately
  undersized decoded-plane cache (so LRU eviction is exercised) plus single
  and batched BGPP selection, pinning :class:`repro.core.engine.EngineStats`;
* :class:`TestServingGolden` -- a fixed four-request scheduler run over the
  paged KV arena, pinning the ``ServingReport.to_json`` schema (including
  the arena counter block), the per-step stats dict, and the JSON round
  trip.  Every pinned value is derived from integer length accounting only
  (no request uses an EOS token), so the goldens are platform-independent.

Perf refactors must not silently change the accounting; if a change here is
intentional, the expected values below must be updated in the same commit
with an explanation.
"""

import json

import numpy as np
import pytest

from repro.core import BGPPConfig
from repro.core.engine import EngineStats, MCBPEngine
from repro.model import QuantizedTransformer, TransformerModel, get_model_config
from repro.serve import (
    Request,
    ServingEngine,
    ServingReport,
)
from repro.sparsity.synthetic import gaussian_int_weights

GOLDEN = {
    "gemm_calls": 10,
    "dense_macs": 35328,
    "brcr_additions": 79361,
    "weight_bits_raw": 184320,
    "weight_bits_compressed": 179040,
    "kv_bits_loaded": 7776,
    "kv_bits_dense": 30720,
    "keys_selected": 5,
    "keys_total": 240,
    "cache_hits": 1,
    "cache_misses": 9,
}


def run_fixed_workload() -> MCBPEngine:
    engine = MCBPEngine(
        group_size=4,
        weight_bits=8,
        bgpp_config=BGPPConfig(rounds=3, alpha=0.55, radius=3.0, score_scale=0.02),
        plane_cache_entries=2,  # three layers cycle through two slots -> evictions
    )
    engine.register_weight("wq", gaussian_int_weights((24, 96), seed=1))
    engine.register_weight("wk", gaussian_int_weights((24, 96), seed=2))
    engine.register_weight("ffn", gaussian_int_weights((32, 96), seed=3))
    rng = np.random.default_rng(42)
    for _ in range(3):
        x = rng.integers(-128, 128, size=96)
        engine.gemm("wq", x)
        engine.gemm("wk", x)
        engine.gemm("ffn", x)
    xb = rng.integers(-128, 128, size=(96, 4))
    engine.gemm("ffn", xb)  # the only lookup whose layer is still resident
    keys = gaussian_int_weights((48, 16), seed=4)
    queries = rng.integers(-128, 128, size=(4, 16))
    engine.select_keys(queries[0], keys)
    engine.select_keys(queries, keys)
    return engine


class TestEngineGolden:
    @pytest.fixture(scope="class")
    def engine(self):
        return run_fixed_workload()

    @pytest.mark.parametrize("counter,expected", sorted(GOLDEN.items()))
    def test_counter_pinned(self, engine, counter, expected):
        assert getattr(engine.stats, counter) == expected

    def test_decode_calls_track_cache_misses(self, engine):
        assert engine.codec.decode_calls == GOLDEN["cache_misses"]

    def test_derived_ratios_pinned(self, engine):
        assert engine.stats.compute_reduction == pytest.approx(3.561245448016028)
        assert engine.stats.weight_compression_ratio == pytest.approx(1.029490616621984)
        assert engine.stats.cache_hit_rate == pytest.approx(0.1)

    def test_steady_state_cache_eliminates_decodes(self):
        engine = MCBPEngine(plane_cache_entries=8)
        engine.register_weight("w", gaussian_int_weights((16, 64), seed=5))
        x = np.arange(64)
        for _ in range(6):
            engine.gemm("w", x)
        assert engine.codec.decode_calls == 1
        assert engine.stats.cache_misses == 1
        assert engine.stats.cache_hits == 5
        # weight traffic is charged once: hits fetch no compressed stream
        layer = engine._layers["w"]
        assert engine.stats.weight_bits_compressed == layer.compressed_bits

    def test_disabled_cache_restores_seed_accounting(self):
        engine = MCBPEngine(plane_cache_entries=0)
        engine.register_weight("w", gaussian_int_weights((16, 64), seed=5))
        x = np.arange(64)
        for _ in range(4):
            engine.gemm("w", x)
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 4
        assert engine.codec.decode_calls == 4
        layer = engine._layers["w"]
        assert engine.stats.weight_bits_compressed == 4 * layer.compressed_bits


class TestComputeReductionBitWidth:
    """compute_reduction must derive its dense baseline from weight_bits."""

    def test_four_bit_config_reports_four_bit_baseline(self):
        engine = MCBPEngine(group_size=4, weight_bits=4)
        engine.register_weight("w", gaussian_int_weights((16, 64), bits=4, seed=6))
        out = engine.gemm("w", np.arange(64))
        weights = engine.codec.decode(engine._layers["w"].encoded)
        assert np.array_equal(out, weights.astype(np.int64) @ np.arange(64))
        stats = engine.stats
        assert stats.compute_reduction == pytest.approx(
            (stats.dense_macs * 4.0) / stats.brcr_additions
        )

    def test_eight_bit_default_unchanged(self):
        stats = EngineStats(dense_macs=100, brcr_additions=200)
        assert stats.compute_reduction == pytest.approx(4.0)

    def test_reset_preserves_bit_width(self):
        engine = MCBPEngine(weight_bits=4)
        engine.reset_stats()
        assert engine.stats.weight_bits == 4


SERVING_GOLDEN = {
    "steps": 13,
    "total_tokens": 22,
    "max_concurrency": 2,
}

# ArenaStats.to_json() of the fixed run below; every value is a function of
# the requests' prompt/decode lengths and the admission schedule alone.
# Updated for the chunked batched prefill pipeline (PR 5): prompts now read
# the pool through gather_batch during their prefill step -- so prefill
# steps trade the old per-session view materialisations (view_bytes 133120
# -> 53248) for batched gather traffic (rebuilds 6 -> 10, bytes 143360 ->
# 245760), while every step-domain value (steps, tokens, page faults, peak
# occupancy) is unchanged.  Re-pinned when decode rows joined the mixed pass
# (one step path): one-session decode steps used to step alone through
# forward(), materialising the session's KV (view_bytes 53248 -> 0); they
# now read the pool through gather_batch like every other step (incremental
# 8 -> 14, rebuilds 10 -> 12, bytes 245760 -> 268288).  Step-domain values
# are again unchanged.
ARENA_GOLDEN = {
    "page_size": 4,
    "n_pages": 64,
    "pages_in_use": 0,
    "peak_pages_in_use": 6,
    "page_faults": 11,
    "pages_freed": 11,
    "pool_grows": 0,
    "tokens_appended": 74,
    "sessions_opened": 4,
    "sessions_freed": 4,
    "gather_rebuilds": 12,
    "gather_incremental": 14,
    "gather_bytes_copied": 268288,
    "view_bytes_copied": 0,
    # cross-request prefix cache counters (PR 6): the fixed run never enables
    # prefix_cache, so every counter is structurally zero -- the cache-off
    # engine must not touch the prefix index at all
    "prefix_hits": 0,
    "prefix_misses": 0,
    "prefix_tokens_reused": 0,
    "prefix_pages_shared": 0,
    "cow_copies": 0,
    "cached_idle_pages": 0,
    "prefix_evictions": 0,
    # snapshot preemption + KV dtype counters (PR 8): the fixed run uses
    # neither kv_snapshots nor int8 pages, so the counters are structurally
    # zero and the pool dtype reports full precision
    "snapshots_taken": 0,
    "snapshots_restored": 0,
    "snapshot_bytes": 0,
    "dequant_bytes": 0,
    # speculative decode counters (PR 10): the fixed run never passes
    # speculative=, so no draft rows are appended and none rolled back
    "rows_rolled_back": 0,
    "draft_rows_appended": 0,
    "kv_dtype": "fp",
    "occupancy": 0.0,
}

LAST_STEP_GOLDEN = {
    "step": 12,
    "emitted": 1,
    "admitted": 0,
    "preempted": 0,
    "decoded": 1,
    "prefill_rows": 0,
    "retired": 1,
    "active": 0,
    "queued": 0,
    "arena_pages_in_use": 0,
    "arena_page_faults": 11,
    "arena_gather_bytes_copied": 268288,
}

# per-policy metrics block of the FCFS/FIFO run (no preemption possible;
# the failure-model counters -- failed/timed_out/shed/retries/callback_errors,
# PR 7 -- are structurally zero on a fault-free run)
POLICY_GOLDEN = {
    "admission": "fifo",
    "scheduling": "fcfs",
    "preemptions": 0,
    "deadline_misses": 0,
    "cancelled": 0,
    "failed": 0,
    "timed_out": 0,
    "shed": 0,
    "retries": 0,
    "callback_errors": 0,
}

REPORT_JSON_KEYS = {
    "steps",
    "max_concurrency",
    "total_tokens",
    "throughput_tokens_per_step",
    "mean_latency_steps",
    "p95_latency_steps",
    "mean_queue_delay_steps",
    "truncated",
    "leftover_queued",
    "leftover_active",
    "arena",
    "policy",
    "requests",
}


def run_fixed_serving_workload():
    """Four fixed requests through two slots over a 4-token-page arena."""
    model = QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )
    requests = [
        Request("g0", prompt_tokens=[1, 2, 3, 4, 5], max_new_tokens=6, arrival_step=0),
        Request("g1", prompt_tokens=[7, 8, 9], max_new_tokens=4, arrival_step=0),
        Request("g2", prompt_tokens=[11] * 9, max_new_tokens=5, arrival_step=2),
        Request("g3", prompt_tokens=[3, 1], max_new_tokens=7, arrival_step=3),
    ]
    engine = ServingEngine(model, max_active=2, page_size=4)
    engine.submit_many(requests)
    report = engine.run()
    return engine, report


class TestServingGolden:
    @pytest.fixture(scope="class")
    def run(self):
        return run_fixed_serving_workload()

    @pytest.mark.parametrize("field,expected", sorted(SERVING_GOLDEN.items()))
    def test_report_field_pinned(self, run, field, expected):
        _, report = run
        assert getattr(report, field) == expected

    @pytest.mark.parametrize("counter,expected", sorted(ARENA_GOLDEN.items()))
    def test_arena_counter_pinned(self, run, counter, expected):
        _, report = run
        assert report.arena[counter] == expected

    def test_arena_schema_is_exactly_the_golden_keys(self, run):
        _, report = run
        assert set(report.arena) == set(ARENA_GOLDEN)

    def test_step_stats_dict_pinned(self, run):
        scheduler, _ = run
        assert scheduler.last_step_stats == LAST_STEP_GOLDEN

    def test_policy_block_pinned(self, run):
        _, report = run
        assert report.policy == POLICY_GOLDEN

    def test_cancelled_request_report_entry_pinned(self):
        """PR 8 satellite: ``cancel()`` stamps ``finished_step``.

        A cancelled request's handle must report a *defined* latency
        (previously ``finished_step`` stayed ``None`` and the cancelled
        handle's metrics claimed the request never finished).
        """
        model = QuantizedTransformer(
            TransformerModel(get_model_config("tiny"), seed=0), seed=1
        )
        engine = ServingEngine(model, max_active=2, page_size=4)
        victim = engine.submit(
            Request("gc0", prompt_tokens=[1, 2, 3, 4, 5], max_new_tokens=6)
        )
        engine.submit(Request("gc1", prompt_tokens=[7, 8, 9], max_new_tokens=4))
        engine.step()
        engine.step()
        assert engine.cancel(victim)
        report = engine.run()
        metrics = victim.metrics()
        assert metrics.outcome == "cancelled"
        assert metrics.finished_step == 2
        assert metrics.latency_steps == 2
        # cancelled rows stay out of the report's latency aggregates
        assert all(r.request_id != "gc0" for r in report.requests)
        assert report.policy["cancelled"] == 1

    def test_to_json_schema_and_round_trip(self, run):
        _, report = run
        payload = json.loads(json.dumps(report.to_json()))
        assert set(payload) == REPORT_JSON_KEYS
        rebuilt = ServingReport.from_json(payload)
        assert rebuilt.steps == report.steps
        assert rebuilt.max_concurrency == report.max_concurrency
        assert rebuilt.requests == report.requests
        assert rebuilt.arena == report.arena
        assert rebuilt.policy == report.policy
        assert rebuilt.summary() == report.summary()
        # a second round trip is a fixed point
        assert ServingReport.from_json(rebuilt.to_json()).to_json() == payload

    def test_legacy_payload_without_arena_still_loads(self, run):
        _, report = run
        payload = report.to_json()
        del payload["arena"]  # PR-2-era reports predate the arena block
        del payload["policy"]  # PR-3-era reports predate the policy block
        for entry in payload["requests"]:  # ...and the per-request counters
            del entry["priority"], entry["preemptions"], entry["deadline_misses"]
            # PR-4-era reports predate the TTFT queue/prefill split
            del entry["queue_steps"], entry["prefill_steps"]
        rebuilt = ServingReport.from_json(payload)
        assert rebuilt.arena is None
        assert rebuilt.policy is None
        assert [r.request_id for r in rebuilt.requests] == [
            r.request_id for r in report.requests
        ]
        assert all(r.preemptions == 0 for r in rebuilt.requests)
        # the split components default to None (unknown), not a fake zero
        assert all(r.queue_steps is None for r in rebuilt.requests)
        assert all(r.prefill_steps is None for r in rebuilt.requests)
        # new-era reports carry a consistent split
        assert all(
            r.queue_steps + r.prefill_steps == r.time_to_first_token_steps
            for r in report.requests
        )

    def test_pre_prefix_cache_arena_block_still_loads(self, run):
        """PR-5-era arena blocks predate the prefix-cache counters."""
        _, report = run
        payload = report.to_json()
        for key in (
            "prefix_hits",
            "prefix_misses",
            "prefix_tokens_reused",
            "prefix_pages_shared",
            "cow_copies",
            "cached_idle_pages",
            "prefix_evictions",
        ):
            del payload["arena"][key]
        rebuilt = ServingReport.from_json(payload)
        # the arena block is opaque pass-through: an old payload loads (and
        # re-serialises) without the counters, with no fabricated zeros
        assert "prefix_hits" not in rebuilt.arena
        assert rebuilt.arena["page_faults"] == ARENA_GOLDEN["page_faults"]
        assert rebuilt.to_json()["arena"] == payload["arena"]
        assert rebuilt.summary()  # summary() needs none of the new keys

    def test_prefix_cache_counters_survive_round_trip(self, run):
        """New-era payloads carry the counters through load/dump unchanged."""
        _, report = run
        payload = report.to_json()
        payload["arena"]["prefix_hits"] = 3
        payload["arena"]["prefix_tokens_reused"] = 24
        rebuilt = ServingReport.from_json(json.loads(json.dumps(payload)))
        assert rebuilt.arena["prefix_hits"] == 3
        assert rebuilt.arena["prefix_tokens_reused"] == 24
        assert rebuilt.to_json()["arena"] == payload["arena"]

    def test_from_json_ignores_unknown_keys(self, run):
        """Forward compat: newer writers may add blocks this reader predates."""
        _, report = run
        payload = report.to_json()
        payload["some_future_block"] = {"x": 1}
        for entry in payload["requests"]:
            entry["some_future_counter"] = 7
        rebuilt = ServingReport.from_json(payload)
        assert rebuilt.requests == report.requests
        assert rebuilt.arena == report.arena


class TestResetStatsCachePolicy:
    def test_warm_reset_measures_steady_state(self):
        engine = MCBPEngine()
        engine.register_weight("w", gaussian_int_weights((16, 64), seed=7))
        engine.gemm("w", np.arange(64))
        engine.reset_stats()
        engine.gemm("w", np.arange(64))
        assert engine.stats.cache_hits == 1
        assert engine.stats.weight_bits_compressed == 0  # no fetch in the window

    def test_cold_reset_restores_seed_accounting(self):
        engine = MCBPEngine()
        engine.register_weight("w", gaussian_int_weights((16, 64), seed=7))
        engine.gemm("w", np.arange(64))
        engine.reset_stats(clear_plane_cache=True)
        engine.gemm("w", np.arange(64))
        assert engine.stats.cache_misses == 1
        assert engine.stats.weight_compression_ratio > 1.0
