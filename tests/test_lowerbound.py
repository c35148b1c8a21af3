"""Tests for the interior-point problem and the IntPoint reduction (Section 5)."""

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.lowerbound.int_point import int_point, int_point_sample_size
from repro.lowerbound.interior_point import (
    interior_point_sample_complexity_lower_bound,
    is_interior_point,
    nonprivate_interior_point,
)


class TestInteriorPoint:
    def test_is_interior_point(self):
        database = [1.0, 5.0, 9.0]
        assert is_interior_point(5.0, database)
        assert is_interior_point(1.0, database)
        assert not is_interior_point(0.5, database)
        assert not is_interior_point(9.5, database)

    def test_interior_point_need_not_be_member(self):
        assert is_interior_point(4.0, [1.0, 9.0])

    def test_nonprivate_median_is_interior(self):
        rng = np.random.default_rng(0)
        database = rng.uniform(10, 20, size=101)
        assert is_interior_point(nonprivate_interior_point(database), database)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            is_interior_point(0.0, [])
        with pytest.raises(ValueError):
            nonprivate_interior_point([])

    def test_lower_bound_grows_with_domain(self):
        assert (interior_point_sample_complexity_lower_bound(2 ** 32)
                >= interior_point_sample_complexity_lower_bound(2 ** 4))


class TestIntPointReduction:
    def test_reduction_produces_interior_point(self):
        rng = np.random.default_rng(1)
        values = rng.integers(1000, 2000, size=500).astype(float)
        params = PrivacyParams(8.0, 1e-5)
        successes = 0
        for seed in range(5):
            result = int_point(values, cluster_size=250, params=params, rng=seed)
            successes += int(is_interior_point(result.value, values))
        assert successes >= 4

    def test_identical_values_zero_radius_branch(self):
        values = np.full(300, 42.0)
        params = PrivacyParams(8.0, 1e-5)
        result = int_point(values, cluster_size=150, params=params, rng=0)
        assert result.is_zero_radius
        assert result.value == pytest.approx(42.0, abs=1.0)

    def test_sample_size_formula(self):
        params = PrivacyParams(1.0, 1e-6)
        m = int_point_sample_size(n=100, w=4.0, params=params, beta=0.1)
        assert m > 100

    def test_sample_size_grows_with_w(self):
        params = PrivacyParams(1.0, 1e-6)
        assert (int_point_sample_size(100, w=2 ** 16, params=params, beta=0.1)
                > int_point_sample_size(100, w=4.0, params=params, beta=0.1))

    def test_invalid_cluster_size(self):
        with pytest.raises(ValueError):
            int_point(np.zeros(10), cluster_size=10, params=PrivacyParams(1.0, 1e-6))

    @pytest.mark.parametrize("backend", [None, "tree"])
    def test_rejects_non_finite_database(self, backend):
        values = np.concatenate([np.random.default_rng(7).normal(size=400),
                                 [np.nan, np.inf, np.inf]])
        with pytest.raises(ValueError, match="finite"):
            int_point(values, cluster_size=200,
                      params=PrivacyParams(2.0, 1e-6), backend=backend, rng=7)

    def test_custom_solver_is_used(self):
        calls = []

        def fake_solver(points, target, params, beta=0.1, rng=None, **kwargs):
            calls.append(len(points))
            from repro.baselines.nonprivate import nonprivate_one_cluster
            return nonprivate_one_cluster(points, target)

        values = np.random.default_rng(2).uniform(0, 100, size=200)
        result = int_point(values, cluster_size=100, params=PrivacyParams(4.0, 1e-6),
                           cluster_solver=fake_solver, rng=0)
        assert calls == [100]
        assert is_interior_point(result.value, values)
