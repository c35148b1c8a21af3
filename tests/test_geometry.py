"""Tests for the geometry substrate: grid, balls, capped score, minimal balls."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.good_radius import RadiusScore
from repro.geometry.balls import Ball, counts_around_points
from repro.geometry.grid import GridDomain
from repro.geometry.minimal_ball import (
    optimal_radius_lower_bound,
    smallest_ball_exact_1d,
    smallest_ball_exhaustive,
    smallest_ball_two_approx,
    smallest_interval_1d,
)
from repro.neighbors import ChunkedBackend


class TestGridDomain:
    def test_unit_cube_properties(self):
        domain = GridDomain.unit_cube(dimension=3, side=101)
        assert domain.step == pytest.approx(0.01)
        assert domain.axis_length == pytest.approx(1.0)
        assert domain.diameter == pytest.approx(np.sqrt(3.0))
        assert domain.num_points == pytest.approx(101 ** 3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            GridDomain(dimension=0, side=10)
        with pytest.raises(ValueError):
            GridDomain(dimension=1, side=1)
        with pytest.raises(ValueError):
            GridDomain(dimension=1, side=10, low=1.0, high=0.0)

    def test_snap_and_contains(self):
        domain = GridDomain.unit_cube(dimension=2, side=11)
        raw = np.array([[0.234, 0.861]])
        snapped = domain.snap(raw)
        assert domain.contains(snapped)
        assert np.allclose(snapped, [[0.2, 0.9]])

    def test_snap_clips_out_of_range(self):
        domain = GridDomain.unit_cube(dimension=1, side=11)
        snapped = domain.snap(np.array([[1.7], [-0.3]]))
        assert snapped.max() <= 1.0
        assert snapped.min() >= 0.0

    def test_candidate_radii_cover_diameter(self):
        domain = GridDomain.unit_cube(dimension=2, side=17)
        radii = domain.candidate_radii()
        assert radii[0] == 0.0
        assert radii[-1] >= domain.diameter - domain.step
        assert np.all(np.diff(radii) > 0)

    def test_sample_uniform_on_grid(self):
        domain = GridDomain.unit_cube(dimension=2, side=5)
        sample = domain.sample_uniform(50, rng=0)
        assert domain.contains(sample)

    def test_log_star_factor(self):
        domain = GridDomain.unit_cube(dimension=4, side=1025)
        assert domain.log_star_factor() >= 9.0


class TestBall:
    def test_contains_and_count(self):
        ball = Ball(center=np.array([0.0, 0.0]), radius=1.0)
        points = np.array([[0.0, 0.5], [2.0, 0.0], [0.0, 1.0]])
        assert ball.contains(points).tolist() == [True, False, True]
        assert ball.count(points) == 2

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Ball(center=np.zeros(2), radius=-0.1)

    def test_scaled(self):
        ball = Ball(center=np.zeros(2), radius=1.0).scaled(3.0)
        assert ball.radius == pytest.approx(3.0)

    def test_slack(self):
        ball = Ball(center=np.zeros(1), radius=1.0)
        points = np.array([[1.05]])
        assert ball.count(points) == 0
        assert ball.count(points, slack=0.1) == 1


class TestCounting:
    def test_count_in_ball(self):
        """``B_r(c, S)`` around one centre: the ball's own count, and the
        backend's query count, which is 0 at a negative radius."""
        points = np.array([[0.0], [0.5], [2.0]])
        assert Ball(center=np.array([0.0]), radius=1.0).count(points) == 2
        backend = ChunkedBackend(points)
        assert backend.query_radius_counts([[0.0]], 1.0).tolist() == [2]
        assert backend.query_radius_counts([[0.0]], -1.0).tolist() == [0]

    def test_counts_around_points(self):
        points = np.array([[0.0], [0.1], [5.0]])
        counts = counts_around_points(points, radius=0.2)
        assert counts.tolist() == [2, 2, 1]


def score_at(points, radius, target):
    """``L(radius, S)`` through the batched score, one radius."""
    return float(RadiusScore(points, target).evaluate(radius)[0])


class TestCappedAverageScore:
    """The sensitivity-2 score ``L(r, S)`` (paper Section 3.1), read through
    :class:`RadiusScore` and the backend's ``capped_average_scores``."""

    def test_equals_t_when_cluster_exists(self):
        points = np.vstack([np.zeros((50, 2)), np.full((10, 2), 5.0)])
        score = score_at(points, radius=0.1, target=40)
        assert score == pytest.approx(40.0)

    def test_zero_for_negative_radius(self):
        points = np.random.default_rng(0).uniform(size=(20, 2))
        assert score_at(points, radius=-1.0, target=5) == 0.0

    def test_monotone_in_radius(self):
        points = np.random.default_rng(0).uniform(size=(60, 2))
        radii = [0.0, 0.1, 0.3, 0.6, 1.5]
        scores = RadiusScore(points, target=20).evaluate(radii)
        assert np.all(np.diff(scores) >= 0)

    def test_invalid_target(self):
        points = np.zeros((5, 1))
        for target in (0, 6):
            with pytest.raises(ValueError, match="target"):
                RadiusScore(points, target=target)
            with pytest.raises(ValueError, match="target"):
                ChunkedBackend(points).capped_average_scores([0.1], target)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10 ** 6))
    def test_sensitivity_at_most_two(self, n, seed):
        """Paper Lemma 4.5: swapping one point changes L(r, S) by at most 2."""
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(n, 2))
        neighbour = points.copy()
        neighbour[rng.integers(0, n)] = rng.uniform(size=2)
        target = int(rng.integers(1, n + 1))
        radius = float(rng.uniform(0, 1.5))
        a = score_at(points, radius, target)
        b = score_at(neighbour, radius, target)
        assert abs(a - b) <= 2.0 + 1e-9


class TestMinimalBall:
    def test_two_approx_captures_target(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(size=(100, 3))
        ball = smallest_ball_two_approx(points, target=30)
        assert ball.count(points, slack=1e-9) >= 30

    def test_two_approx_factor_versus_exact_1d(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(size=200)
        exact = smallest_ball_exact_1d(values, target=60)
        approx = smallest_ball_two_approx(values.reshape(-1, 1), target=60)
        assert exact.radius <= approx.radius + 1e-12
        assert approx.radius <= 2.0 * exact.radius + 1e-9

    def test_smallest_interval_exact(self):
        values = np.array([0.0, 0.1, 0.2, 5.0, 5.05, 5.1, 9.0])
        low, high = smallest_interval_1d(values, target=3)
        assert (low, high) == (5.0, 5.1)

    def test_lower_bound_below_exact(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=150)
        exact = smallest_ball_exact_1d(values, target=50)
        bound = optimal_radius_lower_bound(values.reshape(-1, 1), target=50)
        assert bound <= exact.radius + 1e-9

    def test_exhaustive_beats_or_matches_two_approx(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(size=(40, 2))
        approx = smallest_ball_two_approx(points, target=15)
        exhaustive = smallest_ball_exhaustive(points, target=15,
                                              candidate_centers=points)
        assert exhaustive.radius <= approx.radius + 1e-9

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            smallest_ball_two_approx(np.zeros((5, 2)), target=6)
        with pytest.raises(ValueError):
            smallest_interval_1d(np.zeros(5), target=0)
