"""Tests for repro.utils: iterated logs, RNG plumbing, validation, exact sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.exactsum import (
    SCALE_BITS,
    exact_column_sums,
    fixed_point_column_partials,
    fixed_point_column_sums,
    fixed_point_sum,
    fixed_point_to_float,
    merge_column_partials,
)
from repro.utils.iterated_log import log_star, log_star_factor, tower
from repro.utils.rng import as_generator, permuted, random_unit_vector, spawn_generators
from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_points,
    check_positive,
    check_probability,
)


class TestExactSum:
    """The fixed-point kernel is checked against an independent oracle:
    ``fractions.Fraction`` arithmetic over the exact binary values."""

    def test_matches_fraction_arithmetic(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            values = rng.normal(size=int(rng.integers(0, 200)))
            values *= 10.0 ** rng.integers(-200, 200)
            total = fixed_point_sum(values)
            exact = sum((Fraction(float(v)) for v in values), Fraction(0))
            assert Fraction(total, 1 << SCALE_BITS) == exact
            assert fixed_point_to_float(total) == float(exact)

    def test_partition_independent(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=137) * 1e120
        values[::7] = 5e-324          # subnormals mixed with huge values
        total = fixed_point_sum(values)
        for pieces in (2, 3, 7, 137):
            bounds = np.linspace(0, values.size, pieces + 1).astype(int)
            partials = [fixed_point_sum(values[low:high])
                        for low, high in zip(bounds, bounds[1:])]
            assert sum(partials) == total

    def test_catastrophic_cancellation_is_exact(self):
        # Plain float summation loses the 1.0 entirely; the exact kernel
        # must not.
        values = np.array([1e300, 1.0, -1e300])
        assert fixed_point_to_float(fixed_point_sum(values)) == 1.0

    def test_empty_and_zero(self):
        assert fixed_point_sum(np.empty(0)) == 0
        assert fixed_point_sum(np.zeros(5)) == 0
        assert fixed_point_to_float(0) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_sum(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            fixed_point_sum(np.array([np.nan]))

    def test_column_sums_and_merge(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(60, 3))
        totals = fixed_point_column_sums(matrix)
        parts = [
            fixed_point_column_partials(matrix[:17]),
            fixed_point_column_partials(matrix[17:44]),
            fixed_point_column_partials(matrix[44:]),
        ]
        assert merge_column_partials(3, parts) == totals
        assert merge_column_partials(3, parts[::-1]) == totals
        floats = exact_column_sums(matrix)
        assert np.array_equal(
            floats,
            np.asarray([fixed_point_to_float(t) for t in totals]),
        )
        with pytest.raises(ValueError, match="finite"):
            exact_column_sums(np.array([[1.0], [np.nan]]))
        with pytest.raises(ValueError):
            fixed_point_column_sums(np.zeros(4))
        with pytest.raises(ValueError):
            merge_column_partials(3, [([1, 2], [0, 0], [0])])


class TestLogStar:
    def test_values_at_small_arguments(self):
        assert log_star(0.5) == 0
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4

    def test_huge_argument_is_still_tiny(self):
        assert log_star(2 ** 64) <= 6

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            log_star(10, base=1.0)

    @given(st.floats(min_value=1.0, max_value=1e300))
    def test_monotone_nondecreasing(self, value):
        assert log_star(value) <= log_star(value * 2 + 1)

    def test_factor(self):
        assert log_star_factor(16, base=9.0) == pytest.approx(9.0 ** 3)


class TestTower:
    def test_small_heights(self):
        assert tower(0) == 1
        assert tower(1) == 2
        assert tower(2) == 4
        assert tower(3) == 16
        assert tower(4) == 65536

    def test_overflow_returns_inf(self):
        assert tower(7) == math.inf

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            tower(-1)

    def test_inverse_of_log_star(self):
        for height in range(5):
            assert log_star(tower(height)) == height


class TestRng:
    def test_as_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_as_generator_from_seed_is_deterministic(self):
        a = as_generator(42).integers(0, 1000, size=5)
        b = as_generator(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_spawn_generators_independent(self):
        children = spawn_generators(0, 3)
        assert len(children) == 3
        draws = [child.integers(0, 10 ** 9) for child in children]
        assert len(set(draws)) == 3

    def test_spawn_generators_negative_count(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_random_unit_vector_is_unit(self):
        vector = random_unit_vector(10, rng=0)
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_permuted_preserves_elements(self):
        items = list(range(20))
        shuffled = permuted(items, rng=0)
        assert sorted(shuffled) == items


class TestValidation:
    def test_check_points_reshapes_1d(self):
        points = check_points([1.0, 2.0, 3.0])
        assert points.shape == (3, 1)

    def test_check_points_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_points(np.zeros((5, 3)), dimension=2)

    def test_check_points_rejects_nan(self):
        with pytest.raises(ValueError):
            check_points(np.array([[0.0, np.nan]]))

    def test_check_points_rejects_empty(self):
        with pytest.raises(ValueError):
            check_points(np.zeros((0, 2)))

    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_check_positive_rejects_nan(self):
        for strict in (True, False):
            with pytest.raises(ValueError):
                check_positive(float("nan"), "x", strict=strict)
        with pytest.raises(ValueError):
            check_positive(-0.5, "x", strict=False)

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(0.0, "p")
        assert check_probability(0.0, "p", allow_zero=True) == 0.0
        with pytest.raises(ValueError):
            check_probability(1.0, "p")

    def test_check_in_range(self):
        assert check_in_range(3, "x", 1, 5) == 3
        with pytest.raises(ValueError):
            check_in_range(6, "x", 1, 5)

    def test_check_integer(self):
        assert check_integer(5, "k") == 5
        assert check_integer(5.0, "k") == 5
        with pytest.raises(ValueError):
            check_integer(5.5, "k")
        with pytest.raises(TypeError):
            check_integer(True, "k")
        with pytest.raises(ValueError):
            check_integer(0, "k", minimum=1)
