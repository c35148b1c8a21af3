"""Property-based tests of core invariants used by the paper's analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accounting.params import PrivacyParams
from repro.core.config import GoodCenterConfig, OneClusterConfig
from repro.core.good_radius import RadiusScore
from repro.geometry.grid import GridDomain
from repro.quasiconcave.quality import is_quasi_concave


points_strategy = st.integers(min_value=3, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=4),
                        st.integers(min_value=0, max_value=10 ** 6))
)


class TestGoodRadiusQualityInvariants:
    @settings(max_examples=20, deadline=None)
    @given(points_strategy)
    def test_quality_function_is_quasi_concave(self, spec):
        """The GoodRadius quality Q(r) = 0.5*min(t - L(r/2), L(r) - t + 4Γ)
        must be quasi-concave in r (Lemma 4.6's argument) for RecConcave's
        guarantees to apply.  Verified on random instances over the full
        candidate-radius grid."""
        n, d, seed = spec
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(n, d))
        target = int(rng.integers(1, n + 1))
        gamma = float(rng.uniform(0.5, 5.0))
        score = RadiusScore(points, target)
        radii = np.linspace(0, np.sqrt(d), 80)
        l_at_r = score.evaluate(radii)
        l_at_half = score.evaluate(radii / 2.0)
        quality = 0.5 * np.minimum(target - l_at_half,
                                   l_at_r - target + 4.0 * gamma)
        assert is_quasi_concave(quality, tolerance=1e-7)

    @settings(max_examples=20, deadline=None)
    @given(points_strategy)
    def test_score_monotone_and_bounded(self, spec):
        n, d, seed = spec
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(n, d))
        target = int(rng.integers(1, n + 1))
        score = RadiusScore(points, target)
        radii = np.linspace(0, np.sqrt(d) + 0.5, 50)
        values = score.evaluate(radii)
        assert np.all(np.diff(values) >= -1e-9)
        assert np.all(values >= 0.0)
        assert np.all(values <= target + 1e-9)
        # At the domain diameter every point sees every other point.
        assert values[-1] == pytest.approx(target)


class TestGeometryInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=3, max_value=65),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_grid_snap_is_idempotent_and_nearest(self, d, side, seed):
        rng = np.random.default_rng(seed)
        domain = GridDomain(dimension=d, side=side, low=-1.0, high=3.0)
        points = rng.uniform(-1.5, 3.5, size=(10, d))
        snapped = domain.snap(points)
        assert np.allclose(domain.snap(snapped), snapped, atol=1e-9)
        clipped = np.clip(points, domain.low, domain.high)
        assert np.all(np.abs(snapped - clipped) <= domain.step / 2 + 1e-9)


class TestConfigurationInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.001, max_value=0.5),
           st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.001, max_value=1.0))
    def test_adaptive_box_width_always_fits_cluster(self, capture, k, radius):
        """The adaptively sized box is always strictly wider than the
        projected cluster's diameter, so capture is always possible."""
        config = GoodCenterConfig(capture_probability_target=capture)
        width = config.box_width(radius, k, identity_projection=True)
        assert width > 2.0 * radius

    def test_one_cluster_config_with_center_override(self):
        config = OneClusterConfig().with_center(jl_constant=10.0)
        assert config.center.jl_constant == 10.0
        # The original default is untouched (frozen dataclasses).
        assert OneClusterConfig().center.jl_constant != 10.0

    def test_budget_split_epsilons_sum_within_budget(self):
        config = GoodCenterConfig.practical()
        params = PrivacyParams(3.0, 1e-6)
        total = sum(fraction * params.epsilon for fraction in config.budget_split)
        assert total <= params.epsilon + 1e-12
