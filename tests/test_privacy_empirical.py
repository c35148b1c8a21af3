"""Empirical differential-privacy sanity checks.

These tests estimate output distributions of the primitive mechanisms on a
pair of neighbouring databases and verify that no event's probability ratio
wildly exceeds ``exp(epsilon)`` (allowing for Monte-Carlo slack and the
``delta`` term).  They are sanity checks on the implementations' noise
calibration — a true privacy proof is analytical — but they reliably catch
calibration regressions such as dropping a factor of two in a scale.
"""

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.core.good_radius import RadiusScore
from repro.mechanisms.exponential import exponential_mechanism
from repro.mechanisms.histogram import stable_histogram_choice
from repro.mechanisms.laplace import laplace_counting_query


def _event_probability(samples, event) -> float:
    samples = np.asarray(samples)
    return float(np.mean(event(samples)))


class TestLaplaceCalibration:
    def test_counting_query_ratio_bounded(self):
        epsilon = 1.0
        params = PrivacyParams(epsilon)
        trials = 4000
        # Neighbouring counts differ by 1 (sensitivity of a counting query).
        a = np.array([laplace_counting_query(100, params, rng=seed)
                      for seed in range(trials)])
        b = np.array([laplace_counting_query(101, params, rng=seed + trials)
                      for seed in range(trials)])
        for threshold in (99.0, 100.0, 101.0, 102.0):
            p_a = max(_event_probability(a, lambda s: s >= threshold), 1.0 / trials)
            p_b = max(_event_probability(b, lambda s: s >= threshold), 1.0 / trials)
            ratio = max(p_a / p_b, p_b / p_a)
            # exp(epsilon) = 2.72; allow generous Monte-Carlo slack.
            assert ratio <= np.exp(epsilon) * 1.6

    def test_wrong_calibration_would_fail(self):
        """The same check applied to deliberately under-noised outputs fails,
        demonstrating that the test has teeth."""
        epsilon = 1.0
        trials = 4000
        rng = np.random.default_rng(0)
        # Noise 10x too small relative to the claimed epsilon.
        a = 100 + rng.laplace(0, 0.1 / epsilon, size=trials)
        b = 101 + rng.laplace(0, 0.1 / epsilon, size=trials)
        threshold = 100.5
        p_a = max(_event_probability(a, lambda s: s >= threshold), 1.0 / trials)
        p_b = max(_event_probability(b, lambda s: s >= threshold), 1.0 / trials)
        assert max(p_a / p_b, p_b / p_a) > np.exp(epsilon) * 1.6


class TestExponentialMechanismCalibration:
    def test_selection_probability_ratio(self):
        epsilon = 1.0
        params = PrivacyParams(epsilon)
        trials = 3000
        # Neighbouring quality vectors: each score moves by at most 1.
        scores_a = [5.0, 4.0, 0.0]
        scores_b = [4.0, 5.0, 1.0]
        picks_a = np.array([exponential_mechanism(scores_a, params, rng=seed)
                            for seed in range(trials)])
        picks_b = np.array([exponential_mechanism(scores_b, params, rng=seed + trials)
                            for seed in range(trials)])
        for candidate in range(3):
            p_a = max(float(np.mean(picks_a == candidate)), 1.0 / trials)
            p_b = max(float(np.mean(picks_b == candidate)), 1.0 / trials)
            ratio = max(p_a / p_b, p_b / p_a)
            assert ratio <= np.exp(epsilon) * 1.6


class TestHistogramStability:
    def test_unreleased_cell_stays_unreleased_on_neighbour(self):
        """A cell with a single occupant must (essentially) never be released,
        on either of two neighbouring databases — this is the delta-event the
        stability argument controls."""
        params = PrivacyParams(1.0, 1e-6)
        labels_a = ["big"] * 300 + ["rare"]
        labels_b = ["big"] * 301
        releases = 0
        for seed in range(300):
            choice_a = stable_histogram_choice(labels_a, params, rng=seed)
            choice_b = stable_histogram_choice(labels_b, params, rng=seed)
            releases += int(choice_a.key == "rare") + int(choice_b.key == "rare")
        assert releases == 0


class TestScoreSensitivityUnderSwap:
    @pytest.mark.parametrize("seed", range(5))
    def test_capped_average_score_swap_sensitivity(self, seed):
        """Lemma 4.5 (swap model): replacing one point changes L by <= 2."""
        rng = np.random.default_rng(seed)
        n = 40
        points = rng.uniform(size=(n, 3))
        for _ in range(10):
            neighbour = points.copy()
            neighbour[rng.integers(0, n)] = rng.uniform(size=3)
            target = int(rng.integers(1, n + 1))
            radius = float(rng.uniform(0, 1.0))
            delta = abs(RadiusScore(points, target).evaluate(radius)[0]
                        - RadiusScore(neighbour, target).evaluate(radius)[0])
            assert delta <= 2.0 + 1e-9
