"""Tests for Algorithm GoodRadius (Lemma 3.6)."""

import numpy as np
import pytest

from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.core.config import OneClusterConfig
from repro.core.good_radius import RadiusScore, good_radius
from repro.datasets.adversarial import split_cluster_configuration
from repro.datasets.synthetic import identical_points_cluster, planted_cluster
from repro.geometry.balls import capped_average_score, counts_around_points
from repro.geometry.grid import GridDomain
from repro.geometry.minimal_ball import smallest_ball_two_approx


class TestRadiusScore:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(size=(80, 3))
        score = RadiusScore(points, target=25)
        for radius in (0.0, 0.1, 0.4, 1.0):
            direct = capped_average_score(points, radius, target=25)
            assert score.evaluate(radius)[0] == pytest.approx(direct)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(size=(60, 2))
        score = RadiusScore(points, target=20)
        radii = np.linspace(0, 1.5, 37)
        batch = score.evaluate(radii)
        singles = np.array([score.evaluate(r)[0] for r in radii])
        assert np.allclose(batch, singles)

    def test_negative_radius_gives_zero(self):
        points = np.random.default_rng(2).uniform(size=(20, 2))
        score = RadiusScore(points, target=5)
        assert score.evaluate(np.array([-0.5]))[0] == 0.0

    def test_monotone_in_radius(self):
        points = np.random.default_rng(3).uniform(size=(70, 2))
        score = RadiusScore(points, target=30)
        values = score.evaluate(np.linspace(0, 2, 50))
        assert np.all(np.diff(values) >= -1e-9)

    def test_capped_at_target(self):
        points = np.zeros((40, 2))
        score = RadiusScore(points, target=10)
        assert score.evaluate(1.0)[0] == pytest.approx(10.0)

    def test_target_validation(self):
        points = np.zeros((10, 2))
        with pytest.raises(ValueError):
            RadiusScore(points, target=11)
        with pytest.raises(ValueError):
            RadiusScore(points, target=0)

    def test_split_cluster_sensitivity_example(self):
        """Section 3.1: the capped-average score barely moves on the
        adversarial split-cluster instance where the naive max-count score
        would drop by Omega(t)."""
        target = 100
        points = split_cluster_configuration(target)
        neighbour = points.copy()
        # Move the single middle point to join the right blob.
        middle_index = target // 2
        neighbour[middle_index] = 2.0
        before = capped_average_score(points, 1.0, target)
        after = capped_average_score(neighbour, 1.0, target)
        assert abs(before - after) <= 2.0 + 1e-9


class TestGoodRadius:
    def test_radius_close_to_optimal(self, medium_cluster_data, loose_params):
        data = medium_cluster_data
        target = 400
        reference = smallest_ball_two_approx(data.points, target)
        result = good_radius(data.points, target, loose_params, rng=3)
        assert not result.zero_cluster
        # Lemma 3.6: radius <= 4 r_opt <= 4 * (2-approx radius).
        assert result.radius <= 4.0 * reference.radius + 1e-9
        # And some ball of that radius must capture close to the target.
        best = int(np.max(counts_around_points(data.points, result.radius)))
        assert best >= target - 2 * result.gamma

    def test_radius_not_absurdly_small(self, medium_cluster_data, loose_params):
        data = medium_cluster_data
        target = 400
        result = good_radius(data.points, target, loose_params, rng=5)
        best = int(np.max(counts_around_points(data.points, result.radius)))
        assert best >= 100

    def test_zero_radius_cluster_detected(self, loose_params):
        points = identical_points_cluster(n=500, d=2, cluster_size=400, rng=0)
        result = good_radius(points, target=300, params=loose_params, rng=1)
        assert result.zero_cluster
        assert result.radius == 0.0

    def test_binary_search_method(self, medium_cluster_data, loose_params):
        data = medium_cluster_data
        config = OneClusterConfig(radius_method="binary_search")
        result = good_radius(data.points, 400, loose_params, config=config, rng=2)
        assert result.method == "binary_search"
        assert result.radius >= 0.0
        assert np.isfinite(result.radius)

    def test_explicit_domain(self, small_cluster_data, loose_params):
        domain = GridDomain.unit_cube(dimension=2, side=257)
        result = good_radius(small_cluster_data.points, 200, loose_params,
                             domain=domain, rng=4)
        assert result.radius <= domain.diameter

    def test_domain_dimension_mismatch(self, small_cluster_data, loose_params):
        domain = GridDomain.unit_cube(dimension=3, side=17)
        with pytest.raises(ValueError):
            good_radius(small_cluster_data.points, 200, loose_params, domain=domain)

    def test_requires_positive_delta(self, small_cluster_data):
        with pytest.raises(ValueError):
            good_radius(small_cluster_data.points, 200, PrivacyParams(1.0, 0.0))

    def test_target_validation(self, small_cluster_data, loose_params):
        with pytest.raises(ValueError):
            good_radius(small_cluster_data.points, 10 ** 6, loose_params)

    def test_ledger_records_spend(self, small_cluster_data, loose_params):
        ledger = PrivacyLedger()
        good_radius(small_cluster_data.points, 200, loose_params, rng=0,
                    ledger=ledger)
        total = ledger.total_basic()
        assert total is not None
        assert total.epsilon <= loose_params.epsilon + 1e-9

    def test_paper_constants_gamma_larger(self, small_cluster_data):
        params = PrivacyParams(2.0, 1e-6)
        practical = good_radius(small_cluster_data.points, 200, params, rng=0)
        paper = good_radius(small_cluster_data.points, 200, params, rng=0,
                            config=OneClusterConfig.paper())
        assert paper.gamma > practical.gamma

    def test_deterministic_with_seed(self, small_cluster_data, loose_params):
        a = good_radius(small_cluster_data.points, 200, loose_params, rng=42)
        b = good_radius(small_cluster_data.points, 200, loose_params, rng=42)
        assert a.radius == b.radius
