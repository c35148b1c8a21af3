"""Tests for Algorithm GoodCenter (Lemma 3.7)."""

import sys

import numpy as np
import pytest

import repro.neighbors as neighbors_module
from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.core.config import GoodCenterConfig
from repro.core.good_center import good_center
from repro.neighbors import ChunkedBackend
from repro.utils import validation

good_center_module = sys.modules["repro.core.good_center"]


class TestGoodCenterConfig:
    def test_practical_defaults_valid(self):
        config = GoodCenterConfig.practical()
        assert config.box_width_factor is None
        assert sum(config.budget_split) <= 1.0 + 1e-12

    def test_paper_constants(self):
        config = GoodCenterConfig.paper()
        assert config.jl_constant == 46.0
        assert config.box_width_factor == 300.0
        assert config.budget_split == (0.25, 0.25, 0.25, 0.25)

    def test_adaptive_box_width_wider_for_higher_k(self):
        config = GoodCenterConfig.practical()
        assert config.box_width(0.1, k=16, identity_projection=True) > \
            config.box_width(0.1, k=2, identity_projection=True)

    def test_fixed_box_width(self):
        config = GoodCenterConfig(box_width_factor=50.0)
        assert config.box_width(0.1, k=8) == pytest.approx(5.0)

    def test_capture_probability_meets_target(self):
        config = GoodCenterConfig.practical()
        for k in (2, 8, 32):
            probability = config.per_axis_capture_probability(
                0.1, k, identity_projection=True)
            assert probability >= config.capture_probability_target - 1e-9

    def test_invalid_budget_split(self):
        with pytest.raises(ValueError):
            GoodCenterConfig(budget_split=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            GoodCenterConfig(budget_split=(0.5, 0.5, 0.0, -0.1))

    def test_invalid_box_width_factor(self):
        with pytest.raises(ValueError):
            GoodCenterConfig(box_width_factor=1.0)

    def test_projection_dimension_capped(self):
        config = GoodCenterConfig.practical()
        assert config.projection_dimension(10_000, 0.1, ambient_dimension=3) == 3

    def test_selected_set_diameter_scales_with_radius(self):
        config = GoodCenterConfig.practical()
        small = config.selected_set_diameter(0.01, 4, identity_projection=True)
        large = config.selected_set_diameter(0.1, 4, identity_projection=True)
        assert large == pytest.approx(10 * small)


class TestGoodCenter:
    def test_recovers_planted_center(self, medium_cluster_data):
        data = medium_cluster_data
        params = PrivacyParams(8.0, 1e-5)
        result = good_center(data.points, radius=0.05, target=400,
                             params=params, rng=0)
        assert result.found
        error = np.linalg.norm(result.center - data.true_ball.center)
        assert error <= 0.3

    def test_released_ball_captures_points(self, medium_cluster_data):
        data = medium_cluster_data
        params = PrivacyParams(8.0, 1e-5)
        result = good_center(data.points, radius=0.05, target=400,
                             params=params, rng=1)
        assert result.found
        distances = np.linalg.norm(data.points - result.center[None, :], axis=1)
        assert int(np.count_nonzero(distances <= result.radius_bound)) >= 300

    def test_success_rate_across_seeds(self, medium_cluster_data):
        data = medium_cluster_data
        params = PrivacyParams(8.0, 1e-5)
        successes = 0
        for seed in range(8):
            result = good_center(data.points, radius=0.05, target=400,
                                 params=params, rng=seed)
            if result.found:
                error = np.linalg.norm(result.center - data.true_ball.center)
                successes += int(error <= 0.4)
        assert successes >= 6

    def test_jl_path_used_in_high_dimension(self):
        """In high dimension the projection dimension is strictly smaller than
        the ambient one (the JL path); whether the run succeeds depends on the
        budget, which at d=80 would need a far larger cluster (Lemma 3.7), so
        only the structural property is asserted here."""
        rng = np.random.default_rng(0)
        dimension = 80
        center = np.full(dimension, 0.5)
        cluster = center + rng.normal(0, 0.01, size=(900, dimension))
        noise = rng.uniform(0, 1, size=(300, dimension))
        points = np.vstack([cluster, noise])
        params = PrivacyParams(8.0, 1e-5)
        result = good_center(points, radius=0.15, target=700, params=params, rng=1)
        assert result.projected_dimension < dimension

    def test_rotation_path_succeeds_with_forced_projection(self):
        """Force a non-trivial JL projection (k < d) with a modest dimension
        and a generous budget so the rotation / per-axis-interval branch is
        exercised end to end."""
        rng = np.random.default_rng(3)
        dimension = 8
        center = np.full(dimension, 0.5)
        cluster = center + rng.normal(0, 0.015, size=(900, dimension))
        noise = rng.uniform(0, 1, size=(300, dimension))
        points = np.vstack([cluster, noise])
        config = GoodCenterConfig(jl_constant=0.3)
        params = PrivacyParams(16.0, 1e-4)
        successes = 0
        for seed in range(5):
            result = good_center(points, radius=0.1, target=700, params=params,
                                 config=config, rng=seed)
            if result.found:
                assert result.projected_dimension < dimension
                successes += int(np.linalg.norm(result.center - center) <= 1.0)
        assert successes >= 3

    def test_failure_is_graceful_for_tiny_budget(self, small_cluster_data):
        params = PrivacyParams(0.01, 1e-9)
        result = good_center(small_cluster_data.points, radius=0.05, target=200,
                             params=params, rng=0)
        # With a tiny budget the algorithm may abstain, but must not crash and
        # must report not-found coherently.
        if not result.found:
            assert result.center is None
            assert result.radius_bound == float("inf")

    def test_requires_positive_radius(self, small_cluster_data):
        with pytest.raises(ValueError):
            good_center(small_cluster_data.points, radius=0.0, target=100,
                        params=PrivacyParams(1.0, 1e-6))

    def test_nan_radius_rejected_before_any_spend(self, small_cluster_data):
        ledger = PrivacyLedger()
        with pytest.raises(ValueError, match="radius"):
            good_center(small_cluster_data.points, radius=float("nan"),
                        target=100, params=PrivacyParams(1.0, 1e-6), rng=0,
                        ledger=ledger)
        assert ledger.entries == []

    def test_validates_the_points_once_after_the_scalars(
            self, small_cluster_data, monkeypatch):
        """Resolving the backend validates the caller's array, once per
        call.  A bad scalar raises before any backend is built; bad points
        raise the error they always did, before any backend is built or
        the caller's generator is drawn from."""
        checked = []

        def spy(array, *args, **kwargs):
            checked.append(array)
            return validation.check_points(array, *args, **kwargs)

        monkeypatch.setattr(neighbors_module, "check_points", spy)
        monkeypatch.setattr(good_center_module, "check_points", spy,
                            raising=False)
        points = small_cluster_data.points
        params = PrivacyParams(4.0, 1e-6)
        good_center(points, radius=0.05, target=200, params=params, rng=0)
        assert sum(array is points for array in checked) == 1

        built = []

        class Recording(ChunkedBackend):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        with pytest.raises(ValueError, match="radius must be positive"):
            good_center(points, radius=-1.0, target=200, params=params,
                        backend=Recording)
        bad = points.copy()
        bad[3, 0] = np.nan
        generator = np.random.default_rng(5)
        state = generator.bit_generator.state
        with pytest.raises(ValueError,
                           match="points must contain only finite values"):
            good_center(bad, radius=0.05, target=200, params=params,
                        rng=generator, backend=Recording)
        assert built == []
        assert generator.bit_generator.state == state

    def test_requires_positive_delta(self, small_cluster_data):
        with pytest.raises(ValueError):
            good_center(small_cluster_data.points, radius=0.1, target=100,
                        params=PrivacyParams(1.0, 0.0))

    def test_ledger_within_budget(self, medium_cluster_data):
        params = PrivacyParams(8.0, 1e-5)
        ledger = PrivacyLedger()
        good_center(medium_cluster_data.points, radius=0.05, target=400,
                    params=params, rng=2, ledger=ledger)
        total = ledger.total_basic()
        assert total is not None
        assert total.epsilon <= params.epsilon + 1e-9
        assert total.delta <= params.delta + 1e-12

    def test_deterministic_with_seed(self, medium_cluster_data):
        params = PrivacyParams(8.0, 1e-5)
        a = good_center(medium_cluster_data.points, 0.05, 400, params, rng=7)
        b = good_center(medium_cluster_data.points, 0.05, 400, params, rng=7)
        assert a.found == b.found
        if a.found:
            assert np.allclose(a.center, b.center)
