"""Exactness of ``MCBPEngine.matmul``'s K-blocked float32 product.

``matmul`` runs the integer GEMM as float32 BLAS over K-blocks narrow enough
that every partial sum is an integer below ``2**24``; INT8 operands give
1032-column blocks.  The shapes below straddle that width (1032 vs 1033) and
reach past two blocks (2048, 4096) with operands at the ±127 extremes, where
an unblocked float32 sum would round.  Activations too wide for any exact
block take the int64 product.
"""

import numpy as np
import pytest

from repro.core.engine import EngineStats, MCBPEngine

K_WIDTHS = [1, 512, 1032, 1033, 2048, 4096]


def _operands(k, n_cols, pattern, rng):
    """(3, k) weights and (k, n_cols) activations at the INT8 extremes."""
    if pattern == "all_max":
        return np.full((3, k), 127), np.full((k, n_cols), 127)
    if pattern == "opposed":
        return np.full((3, k), -127), np.full((k, n_cols), 127)
    return rng.choice([-127, 127], size=(3, k)), rng.choice([-127, 127], size=(k, n_cols))


@pytest.mark.parametrize("k", K_WIDTHS)
@pytest.mark.parametrize("pattern", ["all_max", "opposed", "random_signs"])
def test_matmul_equals_int64_product_and_gemm(k, pattern):
    rng = np.random.default_rng(k)
    weights, acts = _operands(k, 4, pattern, rng)
    engine = MCBPEngine(group_size=4, weight_bits=8)
    engine.register_weight("w", weights)
    expected = weights.astype(np.int64) @ acts
    out = engine.matmul("w", acts)
    assert out.dtype == np.int64
    assert np.array_equal(out, expected)
    assert np.array_equal(out, engine.gemm("w", acts))
    # 1-D activations take the same blocked path
    vec = engine.matmul("w", acts[:, 1])
    assert vec.shape == (3,) and vec.dtype == np.int64
    assert np.array_equal(vec, expected[:, 1])


@pytest.mark.parametrize("k", K_WIDTHS)
def test_all_zero_activations(k):
    engine = MCBPEngine(group_size=4, weight_bits=8)
    engine.register_weight("w", np.full((3, k), 127))
    assert np.array_equal(engine.matmul("w", np.zeros((k, 2), dtype=np.int64)), np.zeros((3, 2)))
    assert np.array_equal(engine.matmul("w", np.zeros(k, dtype=np.int64)), np.zeros(3))


@pytest.mark.parametrize(
    "x_max",
    [
        ((1 << 24) - 1) // (128 * 2),  # two-column blocks
        ((1 << 24) - 1) // 128,  # one-column blocks
        ((1 << 24) - 1) // 128 + 1,  # no exact block: int64 product
        2**40,
    ],
)
def test_wide_activations_stay_exact(x_max):
    rng = np.random.default_rng(x_max % 1000)
    weights = rng.choice([-127, 127], size=(5, 9))
    acts = rng.integers(-x_max, x_max + 1, size=(9, 3))
    acts[0, 0] = x_max
    engine = MCBPEngine(group_size=4, weight_bits=8)
    engine.register_weight("w", weights)
    expected = weights.astype(np.int64) @ acts
    assert np.array_equal(engine.matmul("w", acts), expected)
    assert np.array_equal(engine.matmul("w", acts[:, 0]), expected[:, 0])


@pytest.mark.parametrize("x_max", [127, 2**40])  # float32 blocks, int64 fallback
def test_engine_stats_counters(x_max):
    """Counters move exactly as the serving path has always moved them."""
    rng = np.random.default_rng(7)
    engine = MCBPEngine(group_size=4, weight_bits=8, plane_cache_entries=1)
    shapes = {"a": (6, 1033), "b": (4, 512)}
    layers = {
        name: engine.register_weight(name, rng.integers(-127, 128, size=shape))
        for name, shape in shapes.items()
    }
    calls = ["a", "a", "b", "a"]  # one-entry cache: a miss, a hit, b miss, a miss
    n_cols = [3, 1, 2, 5]
    for name, cols in zip(calls, n_cols):
        k = shapes[name][1]
        acts = rng.integers(-x_max, x_max + 1, size=(k, cols))
        engine.matmul(name, acts[:, 0] if cols == 1 else acts)
    misses = ["a", "b", "a"]
    assert engine.stats == EngineStats(
        weight_bits=8,
        gemm_calls=4,
        dense_macs=sum(np.prod(shapes[n]) * c for n, c in zip(calls, n_cols)),
        weight_bits_raw=sum(layers[n].raw_bits for n in misses),
        weight_bits_compressed=sum(layers[n].compressed_bits for n in misses),
        cache_hits=1,
        cache_misses=3,
    )
    assert engine.codec.decode_calls == 3
    assert engine.cache_contents() == ["a"]
