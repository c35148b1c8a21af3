"""Tests for AboveThreshold (sparse vector) and the stability-based histogram."""

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.mechanisms.above_threshold import AboveThreshold, sparse_vector_first_above
from repro.mechanisms.histogram import (
    bucketize,
    choosing_mechanism_loss,
    choosing_mechanism_requirement,
    noisy_histogram,
    noisy_histogram_from_counts,
    release_threshold,
    stable_histogram_choice,
    stable_histogram_choice_from_counts,
)
from repro.neighbors.base import first_occurrence_cells


class TestAboveThreshold:
    def test_fires_on_clearly_above_query(self):
        mechanism = AboveThreshold(threshold=100.0, params=PrivacyParams(4.0),
                                   max_queries=10, rng=0)
        result = mechanism.query(1000.0)
        assert result.above
        assert mechanism.halted

    def test_does_not_fire_on_clearly_below_queries(self):
        mechanism = AboveThreshold(threshold=1000.0, params=PrivacyParams(4.0),
                                   max_queries=20, rng=0)
        answers = [mechanism.query(0.0).above for _ in range(20)]
        assert not any(answers)

    def test_raises_after_halt(self):
        mechanism = AboveThreshold(threshold=0.0, params=PrivacyParams(4.0), rng=0)
        mechanism.query(1000.0)
        with pytest.raises(RuntimeError):
            mechanism.query(1000.0)

    def test_query_index_increments(self):
        mechanism = AboveThreshold(threshold=1e9, params=PrivacyParams(1.0),
                                   max_queries=5, rng=0)
        indices = [mechanism.query(0.0).query_index for _ in range(5)]
        assert indices == [0, 1, 2, 3, 4]

    def test_accuracy_bound_monotone(self):
        mechanism = AboveThreshold(threshold=0.0, params=PrivacyParams(1.0),
                                   max_queries=100, rng=0)
        assert mechanism.accuracy_bound(0.01) > mechanism.accuracy_bound(0.1)

    def test_first_above_helper_finds_jump(self):
        values = [0.0] * 10 + [500.0] + [0.0] * 5
        index = sparse_vector_first_above(values, threshold=100.0,
                                          params=PrivacyParams(4.0), rng=0)
        assert index == 10

    def test_first_above_helper_returns_none(self):
        index = sparse_vector_first_above([0.0] * 10, threshold=1e6,
                                          params=PrivacyParams(4.0), rng=0)
        assert index is None

    def test_invalid_max_queries(self):
        with pytest.raises(ValueError):
            AboveThreshold(0.0, PrivacyParams(1.0), max_queries=0)


class TestStableHistogram:
    def test_finds_dominant_cell(self):
        labels = ["heavy"] * 500 + ["light"] * 3
        choice = stable_histogram_choice(labels, PrivacyParams(1.0, 1e-6), rng=0)
        assert choice.found
        assert choice.key == "heavy"
        assert choice.true_count == 500

    def test_abstains_when_all_cells_tiny(self):
        labels = [f"cell_{i}" for i in range(50)]  # every cell has count 1
        choice = stable_histogram_choice(labels, PrivacyParams(1.0, 1e-6), rng=0)
        assert not choice.found

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            stable_histogram_choice(["a"] * 100, PrivacyParams(1.0, 0.0))

    def test_noisy_histogram_suppresses_light_cells(self):
        labels = ["big"] * 300 + ["tiny"]
        released = noisy_histogram(labels, PrivacyParams(1.0, 1e-6), rng=0)
        assert "big" in released
        assert "tiny" not in released

    def test_release_threshold_grows_as_delta_shrinks(self):
        loose = release_threshold(PrivacyParams(1.0, 1e-3))
        tight = release_threshold(PrivacyParams(1.0, 1e-9))
        assert tight > loose

    def test_theorem_25_bounds_positive(self):
        params = PrivacyParams(1.0, 1e-6)
        assert choosing_mechanism_requirement(params, 0.1, 1000) > 0
        assert choosing_mechanism_loss(params, 0.1, 1000) > 0

    def test_theorem_25_utility(self):
        """When the max cell satisfies the Theorem 2.5 requirement, the chosen
        cell is (w.h.p.) within the stated loss of the maximum."""
        params = PrivacyParams(2.0, 1e-6)
        n = 2000
        requirement = choosing_mechanism_requirement(params, beta=0.1, num_elements=n)
        heavy_count = int(requirement) + 50
        labels = ["heavy"] * heavy_count + ["other"] * 30
        successes = 0
        for seed in range(20):
            choice = stable_histogram_choice(labels, params, rng=seed)
            loss = choosing_mechanism_loss(params, beta=0.1, num_elements=len(labels))
            if choice.found and choice.true_count >= heavy_count - loss:
                successes += 1
        assert successes >= 18

    def test_bucketize(self):
        values = np.array([0.0, 0.5, 1.0, 1.5])
        buckets = bucketize(values, width=1.0)
        assert buckets.tolist() == [0, 0, 1, 1]
        shifted = bucketize(values, width=1.0, offset=0.25)
        assert shifted.tolist() == [-1, 0, 0, 1]

    def test_bucketize_rejects_bad_width(self):
        with pytest.raises(ValueError):
            bucketize(np.array([1.0]), width=0.0)


def scalar_noisy_histogram(cells, params, generator):
    """The stability histogram drawn one variate per cell, in cell order."""
    threshold = release_threshold(params)
    released = {}
    for key, count in cells:
        noisy = count + generator.laplace(0.0, 2.0 / params.epsilon)
        if noisy >= threshold:
            released[key] = noisy
    return released


class TestHistogramDrawOrder:
    """The noise draws that make every backend's GoodCenter release equal:
    one ``Lap(2/epsilon)`` variate per cell, in cell order, whatever the
    counts-level entry point does to draw them."""

    PARAMS = PrivacyParams(1.0, 1e-6)

    @staticmethod
    def cells(num_cells, seed):
        """Box-like keys whose counts straddle the release threshold."""
        rng = np.random.default_rng(1000 + seed)
        keys = rng.integers(-50, 50, size=(num_cells, 3)).tolist()
        counts = rng.integers(0, 60, size=num_cells).tolist()
        unique = dict(zip(map(tuple, keys), counts))
        return list(unique.items())

    @pytest.mark.parametrize("num_cells", [0, 1, 1000])
    @pytest.mark.parametrize("pass_generator", [False, True])
    def test_matches_scalar_loop_bitwise(self, num_cells, pass_generator):
        for seed in range(5):
            cells = self.cells(num_cells, seed)
            reference_rng = np.random.default_rng(seed)
            expected = scalar_noisy_histogram(cells, self.PARAMS,
                                              reference_rng)
            generator = np.random.default_rng(seed)
            released = noisy_histogram_from_counts(
                cells, self.PARAMS,
                rng=generator if pass_generator else seed,
            )
            assert list(released) == list(expected)
            assert ([value.hex() for value in released.values()]
                    == [value.hex() for value in expected.values()])
            if pass_generator:
                # The generator is left where the scalar loop leaves it.
                assert generator.random() == reference_rng.random()
            if num_cells == 1000:
                assert 0 < len(released) < len(cells)

    def test_counts_choice_equals_label_choice(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            labels = rng.zipf(1.6, size=800) % 97
            keys, counts = first_occurrence_cells(labels)
            cells = list(zip(keys.tolist(), counts.tolist()))
            from_counts = stable_histogram_choice_from_counts(
                cells, self.PARAMS, rng=seed,
            )
            from_labels = stable_histogram_choice(labels.tolist(),
                                                  self.PARAMS, rng=seed)
            assert from_counts.key == from_labels.key
            assert from_counts.true_count == from_labels.true_count
            assert (from_counts.noisy_count.hex()
                    == from_labels.noisy_count.hex())
            if from_counts.found:
                assert from_counts.true_count == dict(cells)[from_counts.key]
