"""Unit and property tests for BGPP progressive prediction (repro.core.bgpp)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bgpp import (
    BGPPConfig,
    attention_sparsity,
    bgpp_select,
    bgpp_select_batch,
    exact_topk,
    make_bgpp_predictor,
    make_value_topk_predictor,
    selection_recall,
    value_topk_select,
)
from repro.core.bitslice import to_bitslices
from repro.workloads.profile import synthetic_attention_tensors


@pytest.fixture(scope="module")
def attention_data():
    queries, keys, scale = synthetic_attention_tensors(256, 64, seed=42)
    return queries, keys, scale


class TestBGPPConfig:
    def test_alpha_scalar(self):
        config = BGPPConfig(alpha=0.5)
        assert config.alpha_for_round(0) == 0.5
        assert config.alpha_for_round(5) == 0.5

    def test_alpha_schedule(self):
        config = BGPPConfig(alpha=[0.9, 0.7, 0.5])
        assert config.alpha_for_round(0) == 0.9
        assert config.alpha_for_round(2) == 0.5
        assert config.alpha_for_round(9) == 0.5  # clamps to last entry

    def test_validation(self):
        with pytest.raises(ValueError):
            BGPPConfig(rounds=0)
        with pytest.raises(ValueError):
            BGPPConfig(radius=-1)
        with pytest.raises(ValueError):
            BGPPConfig(min_keys=0)


class TestBGPPSelect:
    def test_returns_sorted_unique_indices(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(queries[0], keys, BGPPConfig(score_scale=scale))
        assert np.array_equal(result.selected, np.unique(result.selected))
        assert result.selected.size >= 1
        assert result.selected.max() < keys.shape[0]

    def test_alpha_one_keeps_more_than_aggressive(self, attention_data):
        queries, keys, scale = attention_data
        generous = bgpp_select(
            queries[0], keys, BGPPConfig(alpha=1.0, radius=10.0, score_scale=scale)
        )
        aggressive = bgpp_select(
            queries[0], keys, BGPPConfig(alpha=0.3, score_scale=scale)
        )
        assert generous.selected.size >= aggressive.selected.size

    def test_kv_traffic_less_than_full_precision(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(queries[0], keys, BGPPConfig(score_scale=scale))
        full_bits = keys.size * 8
        assert result.kv_bits_loaded < full_bits

    def test_traffic_below_value_topk_for_aggressive_filter(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(
            queries[0], keys, BGPPConfig(rounds=3, alpha=0.5, score_scale=scale)
        )
        baseline = value_topk_select(queries[0], keys, k=64, prediction_bits=4)
        assert result.kv_bits_loaded < baseline.kv_bits_loaded

    def test_recall_of_important_keys(self, attention_data):
        queries, keys, scale = attention_data
        recalls = []
        for q in queries:
            result = bgpp_select(
                q, keys, BGPPConfig(rounds=3, alpha=0.7, score_scale=scale)
            )
            reference = exact_topk(q, keys, 16)
            recalls.append(selection_recall(result.selected, reference))
        assert np.mean(recalls) > 0.7

    def test_survivors_monotonically_non_increasing(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(queries[1], keys, BGPPConfig(rounds=4, score_scale=scale))
        survivors = result.survivors_per_round
        assert all(a >= b for a, b in zip(survivors, survivors[1:]))

    def test_min_keys_respected(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(
            queries[0],
            keys,
            BGPPConfig(alpha=0.0, radius=100.0, score_scale=scale, min_keys=5),
        )
        assert result.selected.size >= 5

    def test_empty_keys(self):
        result = bgpp_select(np.array([1, 2]), np.zeros((0, 2), dtype=np.int64))
        assert result.selected.size == 0
        assert result.kv_bits_loaded == 0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            bgpp_select(np.array([1, 2, 3]), np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            bgpp_select(np.zeros((2, 3), dtype=np.int64), np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            bgpp_select(np.zeros((2, 2, 2), dtype=np.int64), np.zeros((4, 2), dtype=np.int64))

    def test_two_dim_query_dispatches_to_batch(self, attention_data):
        queries, keys, scale = attention_data
        results = bgpp_select(queries[:4], keys, BGPPConfig(score_scale=scale))
        assert isinstance(results, list) and len(results) == 4
        for q, res in zip(queries[:4], results):
            single = bgpp_select(q, keys, BGPPConfig(score_scale=scale))
            assert np.array_equal(res.selected, single.selected)
            assert res.kv_bits_loaded == single.kv_bits_loaded

    def test_batch_helper(self, attention_data):
        queries, keys, scale = attention_data
        results = bgpp_select_batch(queries[:3], keys, BGPPConfig(score_scale=scale))
        assert len(results) == 3
        sparsity = attention_sparsity(results, keys.shape[0])
        assert 0.0 <= sparsity <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_selected_indices_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-127, 128, size=(32, 16))
        q = rng.integers(-127, 128, size=16)
        result = bgpp_select(q, keys, BGPPConfig(score_scale=0.01))
        assert result.selected.size >= 1
        assert result.selected.min() >= 0
        assert result.selected.max() < 32


class TestValueTopK:
    def test_selects_k_keys(self, attention_data):
        queries, keys, _ = attention_data
        result = value_topk_select(queries[0], keys, k=10)
        assert result.selected.size == 10

    def test_k_larger_than_keys_clamped(self):
        keys = np.ones((4, 8), dtype=np.int64)
        result = value_topk_select(np.ones(8, dtype=np.int64), keys, k=100)
        assert result.selected.size == 4

    def test_traffic_scales_with_prediction_bits(self, attention_data):
        queries, keys, _ = attention_data
        four = value_topk_select(queries[0], keys, k=10, prediction_bits=4)
        eight = value_topk_select(queries[0], keys, k=10, prediction_bits=8)
        assert eight.kv_bits_loaded == 2 * four.kv_bits_loaded

    def test_full_precision_prediction_matches_exact(self, attention_data):
        queries, keys, _ = attention_data
        result = value_topk_select(queries[0], keys, k=16, prediction_bits=8)
        reference = exact_topk(queries[0], keys, 16)
        assert selection_recall(result.selected, reference) == 1.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            value_topk_select(np.ones(4, dtype=np.int64), np.ones((2, 4), dtype=np.int64), k=0)


class TestOracles:
    def test_exact_topk_finds_largest(self):
        keys = np.array([[1, 0], [10, 0], [5, 0]])
        q = np.array([1, 0])
        assert exact_topk(q, keys, 2).tolist() == [1, 2]

    def test_recall_bounds(self):
        assert selection_recall(np.array([1, 2, 3]), np.array([1, 2])) == 1.0
        assert selection_recall(np.array([1]), np.array([1, 2])) == 0.5
        assert selection_recall(np.array([]), np.array([])) == 1.0


class TestPredictorFactories:
    def test_bgpp_predictor_on_float_inputs(self):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(64, 16))
        q = keys[:4].mean(axis=0)
        predictor = make_bgpp_predictor(alpha=0.7)
        selected = predictor(q, keys)
        assert selected.size >= 1
        assert selected.max() < 64

    def test_value_predictor_keep_fraction(self):
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(40, 8))
        predictor = make_value_topk_predictor(keep_fraction=0.25)
        assert predictor(rng.normal(size=8), keys).size == 10

    def test_value_predictor_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            make_value_topk_predictor(keep_fraction=0.0)

    def test_predictors_handle_empty_keys(self):
        predictor = make_bgpp_predictor()
        assert predictor(np.ones(4), np.zeros((0, 4))).size == 0


# -- plane-by-plane reference ------------------------------------------------
#
# The hardware streams sign-magnitude key bit planes MSB-first and shift-
# accumulates each plane's partial product for the surviving keys only.  The
# library computes the same running sums from truncated keys in one BLAS
# product per round; this reference keeps the literal per-plane loop.


def _signed_key_planes(keys, key_bits):
    """Key bit planes MSB-first as {-1, 0, 1} matrices with signs applied."""
    slices = to_bitslices(keys, bits=key_bits, fmt="sign_magnitude")
    sign_factor = 1 - 2 * slices[-1].astype(np.int64)
    return [
        slices[i].astype(np.int64) * sign_factor
        for i in reversed(range(key_bits - 1))  # MSB magnitude plane first
    ]


def _reference_select(query, keys, config):
    """Plane-by-plane progressive filter for one query row."""
    n_keys, d = keys.shape
    if n_keys == 0:
        return None
    full = config.key_bits
    q = query.astype(np.int64)
    if config.query_bits < full:
        shift = full - config.query_bits
        q = (q >> shift) << shift
    planes = _signed_key_planes(keys, full)
    rounds = min(config.rounds, len(planes))
    alive = np.arange(n_keys)
    psum = np.zeros(n_keys, dtype=np.int64)
    kv_bits = n_keys * d  # sign plane rides with the first magnitude plane
    mac_ops = 0
    survivors = []
    early = False
    for r in range(rounds):
        kv_bits += alive.size * d
        mac_ops += alive.size * d
        psum[alive] += (planes[r][alive] @ q) << (full - 2 - r)
        scores = psum[alive].astype(np.float64) * config.score_scale
        threshold = scores.max() - config.alpha_for_round(r) * config.radius
        if threshold <= scores.min():
            survivors.append(int(alive.size))
            continue
        keep = scores >= threshold
        if keep.sum() < config.min_keys:
            keep = np.zeros_like(keep)
            keep[np.argsort(scores)[::-1][: config.min_keys]] = True
        alive = alive[keep]
        survivors.append(int(alive.size))
        if alive.size <= config.min_keys:
            early = True
            break
    return dict(
        selected=np.sort(alive),
        estimated_scores=psum.astype(np.float64) * config.score_scale,
        survivors_per_round=survivors,
        kv_bits_loaded=int(kv_bits),
        mac_ops=int(mac_ops),
        rounds_executed=len(survivors),
        early_terminated=early,
    )


def _assert_matches_reference(result, reference):
    if reference is None:  # empty key set
        assert result.selected.size == 0 and result.estimated_scores.size == 0
        assert result.survivors_per_round == [] and result.rounds_executed == 0
        assert result.kv_bits_loaded == 0 and result.mac_ops == 0
        assert not result.early_terminated
        return
    assert result.selected.dtype == np.int64
    assert np.array_equal(result.selected, reference["selected"])
    assert result.estimated_scores.dtype == np.float64
    assert np.array_equal(result.estimated_scores, reference["estimated_scores"])
    for name in (
        "survivors_per_round",
        "kv_bits_loaded",
        "mac_ops",
        "rounds_executed",
        "early_terminated",
    ):
        assert getattr(result, name) == reference[name], name


def _reference_predictor(query, keys, rounds, alpha, query_bits, score_std_target=0.8):
    """``make_bgpp_predictor``'s quantisation in front of the reference filter."""
    if keys.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    q_scale = max(np.abs(query).max(), 1e-12) / 127.0
    k_scale = max(np.abs(keys).max(), 1e-12) / 127.0
    q_int = np.clip(np.round(query / q_scale), -127, 127).astype(np.int64)
    k_int = np.clip(np.round(keys / k_scale), -127, 127).astype(np.int64)
    q_norm = float(np.linalg.norm(q_int))
    k_norm = float(np.mean(np.linalg.norm(k_int, axis=1)))
    score_std = max(q_norm * k_norm / np.sqrt(query.shape[0]), 1e-9)
    config = BGPPConfig(
        rounds=rounds,
        alpha=alpha,
        query_bits=query_bits,
        score_scale=score_std_target / score_std,
    )
    return _reference_select(q_int, k_int, config)["selected"]


_ALPHAS = st.one_of(
    st.sampled_from([0.0, 0.3, 0.55, 0.8, 1.0]),
    st.lists(st.sampled_from([0.2, 0.4, 0.6, 0.9]), min_size=1, max_size=4),
)


@st.composite
def _bgpp_cases(draw):
    """Integer queries/keys plus a config; keys include the ±(2**(b-1)-1) extremes."""
    key_bits = draw(st.integers(2, 8))
    k_max = (1 << (key_bits - 1)) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_keys = draw(st.integers(0, 40))
    d = draw(st.integers(1, 16))
    n_queries = draw(st.integers(1, 5))
    keys = rng.integers(-k_max, k_max + 1, size=(n_keys, d))
    extremes = rng.random(keys.shape) < 0.2
    keys[extremes] = rng.choice([-k_max, k_max], size=int(extremes.sum()))
    queries = rng.integers(-127, 128, size=(n_queries, d))
    # score scale sized so the radius threshold actually prunes
    spread = max(1.0, np.sqrt(d) * k_max * 127 / 4)
    config = BGPPConfig(
        rounds=draw(st.integers(1, 8)),
        radius=draw(st.sampled_from([1.0, 3.0, 6.0])),
        alpha=draw(_ALPHAS),
        key_bits=key_bits,
        query_bits=draw(st.integers(1, 8)),
        score_scale=draw(st.floats(0.5, 40.0)) / spread,
        min_keys=draw(st.integers(1, 4)),
    )
    lengths = rng.integers(0, n_keys + 1, size=n_queries)
    scales = config.score_scale * rng.uniform(0.25, 4.0, size=n_queries)
    return queries, keys, config, lengths, scales


ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


class TestTruncatedKeyRoundsMatchPlaneOracle:
    """Every result field equals the plane-by-plane shift-accumulate."""

    @ORACLE
    @given(_bgpp_cases())
    def test_single_row(self, case):
        queries, keys, config, _, _ = case
        for query in queries:
            _assert_matches_reference(
                bgpp_select(query, keys, config), _reference_select(query, keys, config)
            )

    @ORACLE
    @given(_bgpp_cases())
    def test_ragged_batch_with_per_row_scales(self, case):
        queries, keys, config, lengths, scales = case
        results = bgpp_select_batch(
            queries, keys, config, key_lengths=lengths, score_scales=scales
        )
        assert len(results) == len(queries)
        for query, length, scale, result in zip(queries, lengths, scales, results):
            row_config = BGPPConfig(**{**config.__dict__, "score_scale": float(scale)})
            _assert_matches_reference(
                result, _reference_select(query, keys[:length], row_config)
            )

    @ORACLE
    @given(_bgpp_cases())
    def test_batch_defaults_match_single_rows(self, case):
        queries, keys, config, _, _ = case
        for query, result in zip(queries, bgpp_select_batch(queries, keys, config)):
            _assert_matches_reference(result, _reference_select(query, keys, config))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 8),
        _ALPHAS,
    )
    def test_predictor_select_ragged(self, seed, rounds, query_bits, alpha):
        rng = np.random.default_rng(seed)
        n_keys, d = int(rng.integers(1, 30)), int(rng.integers(1, 24))
        keys = rng.normal(size=(n_keys, d))
        queries = rng.normal(size=(int(rng.integers(1, 6)), d))
        lengths = rng.integers(0, n_keys + 1, size=queries.shape[0])
        predictor = make_bgpp_predictor(alpha=alpha, rounds=rounds, query_bits=query_bits)
        ragged = predictor.select_ragged(queries, keys, lengths)
        for query, length, selected in zip(queries, lengths, ragged):
            expected = _reference_predictor(query, keys[:length], rounds, alpha, query_bits)
            assert np.array_equal(selected, expected)
            assert np.array_equal(predictor(query, keys[:length]), expected)

    def test_queries_too_wide_for_float64_take_the_int64_product(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(-127, 128, size=(24, 16))
        keys[0, 0] = 127
        queries = rng.integers(-(2**50), 2**50, size=(3, 16))  # 16*127*2**50 > 2**53
        config = BGPPConfig(rounds=7, alpha=0.4, score_scale=2.0**-52, min_keys=2)
        results = bgpp_select_batch(queries, keys, config, key_lengths=[24, 9, 0])
        for query, length, result in zip(queries, [24, 9, 0], results):
            reference = _reference_select(query, keys[:length], config)
            _assert_matches_reference(result, reference)
            if length == 24:
                _assert_matches_reference(bgpp_select(query, keys, config), reference)

    def test_out_of_range_keys_still_raise(self):
        keys = np.array([[-128, 3], [5, 7]])  # -128 has no 8-bit sign-magnitude code
        query = np.array([1, 2])
        with pytest.raises(ValueError):
            bgpp_select(query, keys, BGPPConfig(key_bits=8))
        with pytest.raises(ValueError):
            bgpp_select_batch(query[None, :], keys, BGPPConfig(key_bits=8))
        with pytest.raises(ValueError):
            bgpp_select(query, np.array([[8, 0]]), BGPPConfig(key_bits=4))
        with pytest.raises(TypeError):
            bgpp_select(query, keys.astype(np.float64), BGPPConfig(key_bits=8))
        # the predictors quantise to INT8 codes, which 4-bit keys cannot hold
        narrow = make_bgpp_predictor(key_bits=4)
        float_keys = np.array([[-1.0, 0.5], [0.25, 0.75]])
        with pytest.raises(ValueError):
            narrow(np.array([1.0, 2.0]), float_keys)
        with pytest.raises(ValueError):
            narrow.select_ragged(np.array([[1.0, 2.0]]), float_keys, [2])
