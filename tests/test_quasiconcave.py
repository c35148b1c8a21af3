"""Tests for the quasi-concave promise-problem solvers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.accounting.params import PrivacyParams
from repro.mechanisms.exponential import report_noisy_max
from repro.quasiconcave.binary_search import binary_search_loss, noisy_binary_search
from repro.quasiconcave.quality import is_quasi_concave
from repro.quasiconcave.rec_concave import (
    practical_promise,
    rec_concave,
    rec_concave_promise,
)
from repro.utils.rng import spawn_generators


def _tent(size: int, peak: int, height: float) -> np.ndarray:
    """A quasi-concave 'tent' score peaking at the given index."""
    indices = np.arange(size)
    return np.maximum(0.0, height - np.abs(indices - peak))


def _interval_minima(quality, starts, length):
    """Minimum quality of each interval ``[start, start + length)``, from
    one lookup per endpoint."""
    left = np.array([quality(int(start)) for start in starts], dtype=float)
    right = np.array([quality(int(start) + length - 1) for start in starts],
                     dtype=float)
    return np.minimum(left, right)


def _oracle_rec_concave(scores, params, rng):
    """RecConcave evaluated one index at a time, as a per-index quality
    function is read: the reference the dense solver must match exactly.
    Returns ``(index, quality, chosen_length)``."""
    size = len(scores)

    def quality(index):
        return float(scores[index])

    length_rng, interval_rng = spawn_generators(rng, 2)
    half_epsilon = PrivacyParams(params.epsilon / 2.0, params.delta)
    if size == 1:
        return 0, quality(0), 1
    lengths = [min(2 ** j, size)
               for j in range(int(math.ceil(math.log2(size))) + 1)]
    length_scores = [
        float(_interval_minima(quality, np.arange(0, size - length + 1),
                               length).max())
        for length in lengths
    ]
    chosen_length = lengths[report_noisy_max(length_scores, half_epsilon,
                                             rng=length_rng)]
    starts = np.arange(0, size - chosen_length + 1, max(1, chosen_length // 2),
                       dtype=np.int64)
    if starts.size == 0 or starts[-1] != size - chosen_length:
        starts = np.append(starts, size - chosen_length)
    chosen = report_noisy_max(_interval_minima(quality, starts, chosen_length),
                              half_epsilon, rng=interval_rng)
    index = min(int(starts[chosen]) + chosen_length // 2, size - 1)
    return index, quality(index), chosen_length


def _score_vector(kind: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "tent":
        peak = int(rng.integers(0, size))
        return _tent(size, peak, height=float(rng.uniform(1.0, 2.0 * size)))
    if kind == "ties":
        return rng.integers(0, 3, size=size).astype(float)
    return rng.normal(0.0, 50.0, size=size)


class TestQualityInterface:
    def test_is_quasi_concave(self):
        assert is_quasi_concave([1, 2, 3, 3, 2, 1])
        assert is_quasi_concave([0, 0, 0])
        assert is_quasi_concave([5])
        assert not is_quasi_concave([3, 1, 3])

    def test_array_quality_rejects_empty(self):
        # The quality is the score vector itself; an empty or non-1-d
        # vector has no index to release.
        with pytest.raises(ValueError):
            rec_concave([], promise=1.0, alpha=0.5, params=PrivacyParams(1.0))
        with pytest.raises(ValueError):
            rec_concave(np.ones((2, 2)), promise=1.0, alpha=0.5,
                        params=PrivacyParams(1.0))

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=29))
    def test_sorted_then_reversed_is_quasi_concave(self, values, split):
        split = min(split, len(values))
        rising = sorted(values[:split])
        falling = sorted(values[split:], reverse=True)
        # Make the junction consistent so the sequence is single-peaked.
        if rising and falling and rising[-1] > falling[0]:
            falling = [rising[-1]] + falling
        assert is_quasi_concave(rising + falling)


class TestRecConcave:
    def test_finds_near_optimal_on_tent(self):
        scores = _tent(size=2000, peak=700, height=500.0)
        result = rec_concave(scores, promise=400.0, alpha=0.5,
                             params=PrivacyParams(2.0, 1e-6), rng=0)
        assert scores[result.index] >= 200.0

    def test_single_candidate(self):
        result = rec_concave([7.0], promise=5.0, alpha=0.5,
                             params=PrivacyParams(1.0, 1e-6), rng=0)
        assert result.index == 0
        assert result.quality == 7.0

    def test_plateau_selects_inside(self):
        scores = np.zeros(500)
        scores[100:200] = 300.0
        result = rec_concave(scores, promise=250.0, alpha=0.5,
                             params=PrivacyParams(4.0, 1e-6), rng=1)
        assert 90 <= result.index <= 210

    def test_rejects_bad_arguments(self):
        scores = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            rec_concave(scores, promise=0.0, alpha=0.5, params=PrivacyParams(1.0))
        with pytest.raises(ValueError):
            rec_concave(scores, promise=1.0, alpha=1.5, params=PrivacyParams(1.0))
        with pytest.raises(ValueError):
            rec_concave(np.array([]), promise=1.0, alpha=0.5,
                        params=PrivacyParams(1.0))

    def test_reproducible_with_seed(self):
        scores = _tent(size=300, peak=40, height=100.0)
        a = rec_concave(scores, 50.0, 0.5, PrivacyParams(1.0), rng=9)
        b = rec_concave(scores, 50.0, 0.5, PrivacyParams(1.0), rng=9)
        assert a.index == b.index

    def test_success_rate_over_seeds(self):
        scores = _tent(size=1000, peak=321, height=400.0)
        successes = sum(
            scores[rec_concave(scores, 300.0, 0.5, PrivacyParams(2.0, 1e-6),
                               rng=seed).index] >= 150.0
            for seed in range(20)
        )
        assert successes >= 17

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3000),
           st.sampled_from(["tent", "noise", "ties"]),
           st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(1, "tent", 0, 0)
    @example(2, "ties", 1, 1)
    @example(1024, "ties", 2, 2)
    @example(1025, "noise", 3, 3)
    @example(3000, "tent", 4, 4)
    def test_matches_per_index_oracle(self, size, kind, data_seed, seed):
        scores = _score_vector(kind, size, data_seed)
        params = PrivacyParams(1.0, 1e-6)
        result = rec_concave(scores, promise=1.0, alpha=0.5, params=params,
                             rng=seed)
        assert ((result.index, result.quality, result.chosen_length)
                == _oracle_rec_concave(scores, params, seed))

    def test_promise_formulas(self):
        params = PrivacyParams(1.0, 1e-6)
        paper = rec_concave_promise(10 ** 6, alpha=0.5, beta=0.1, params=params)
        practical = practical_promise(10 ** 6, alpha=0.5, beta=0.1, params=params)
        assert paper > practical > 0

    def test_promise_requires_positive_delta(self):
        with pytest.raises(ValueError):
            rec_concave_promise(100, 0.5, 0.1, PrivacyParams(1.0, 0.0))


class TestNoisyBinarySearch:
    def test_finds_threshold_crossing(self):
        scores = np.concatenate([np.zeros(400), np.full(600, 100.0)])
        result = noisy_binary_search(scores.__getitem__, scores.size,
                                     threshold=50.0, params=PrivacyParams(4.0),
                                     rng=0)
        assert 380 <= result.index <= 420

    def test_gradual_ramp(self):
        scores = np.arange(1000, dtype=float)
        result = noisy_binary_search(scores.__getitem__, scores.size,
                                     threshold=500.0, params=PrivacyParams(4.0),
                                     rng=1)
        assert abs(result.index - 500) <= 60

    def test_single_candidate(self):
        result = noisy_binary_search(lambda index: 3.0, 1, threshold=1.0,
                                     params=PrivacyParams(1.0), rng=0)
        assert result.index == 0
        assert result.comparisons == 0

    def test_comparisons_logarithmic(self):
        scores = np.arange(4096, dtype=float)
        result = noisy_binary_search(scores.__getitem__, scores.size,
                                     threshold=1000.0, params=PrivacyParams(4.0),
                                     rng=0)
        assert result.comparisons <= 12

    def test_loss_grows_with_domain(self):
        params = PrivacyParams(1.0)
        assert (binary_search_loss(2 ** 20, params, 1.0, 0.1)
                > binary_search_loss(2 ** 5, params, 1.0, 0.1))

    def test_invalid_sensitivity(self):
        with pytest.raises(ValueError):
            noisy_binary_search(float, 2, 1.0, PrivacyParams(1.0),
                                sensitivity=0.0)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            noisy_binary_search(float, 0, 1.0, PrivacyParams(1.0))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=10, max_value=2000),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_always_returns_valid_index(self, size, seed):
        scores = np.sort(np.random.default_rng(seed).uniform(0, 100, size=size))
        result = noisy_binary_search(scores.__getitem__, size, threshold=50.0,
                                     params=PrivacyParams(1.0), rng=seed)
        assert 0 <= result.index < size
