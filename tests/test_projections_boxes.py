"""Tests for JL projection, random rotations, and box partitions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import repro.geometry.boxes as boxes_module
from repro.geometry.boxes import (
    AxisIntervalPartition,
    Box,
    ShiftedBoxPartition,
    unique_rows,
)
from repro.geometry.jl import (
    JohnsonLindenstrauss,
    jl_distortion_failure_probability,
    jl_target_dimension,
)
from repro.geometry.rotation import (
    project_onto_basis,
    random_orthonormal_basis,
    rotated_projection_spread_bound,
)


class TestJohnsonLindenstrauss:
    def test_target_dimension_grows_with_n(self):
        assert jl_target_dimension(10_000) > jl_target_dimension(100)

    def test_projection_shape(self):
        projection = JohnsonLindenstrauss(input_dimension=50, output_dimension=10, rng=0)
        points = np.random.default_rng(1).normal(size=(20, 50))
        assert projection.project(points).shape == (20, 10)

    def test_distance_preservation_statistically(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(50, 200))
        projection = JohnsonLindenstrauss(input_dimension=200, output_dimension=60, rng=3)
        projected = projection(points)
        original = np.linalg.norm(points[0] - points[1:], axis=1)
        mapped = np.linalg.norm(projected[0] - projected[1:], axis=1)
        ratios = mapped / original
        assert 0.6 < np.median(ratios) < 1.4

    def test_for_points_caps_at_ambient_dimension(self):
        points = np.random.default_rng(0).normal(size=(1000, 5))
        projection = JohnsonLindenstrauss.for_points(points, rng=0)
        assert projection.output_dimension <= 5

    def test_failure_probability_decreases_with_k(self):
        assert (jl_distortion_failure_probability(100, 200)
                < jl_distortion_failure_probability(100, 20))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            JohnsonLindenstrauss(input_dimension=0, output_dimension=5)


class TestRotation:
    def test_basis_is_orthonormal(self):
        basis = random_orthonormal_basis(8, rng=0)
        assert np.allclose(basis @ basis.T, np.eye(8), atol=1e-9)

    def test_projection_preserves_norms(self):
        basis = random_orthonormal_basis(6, rng=1)
        points = np.random.default_rng(2).normal(size=(30, 6))
        rotated = project_onto_basis(points, basis)
        assert np.allclose(np.linalg.norm(points, axis=1),
                           np.linalg.norm(rotated, axis=1), atol=1e-9)

    def test_rotation_roundtrip(self):
        basis = random_orthonormal_basis(4, rng=3)
        points = np.random.default_rng(4).normal(size=(10, 4))
        rotated = project_onto_basis(points, basis)
        restored = rotated @ basis
        assert np.allclose(points, restored, atol=1e-9)

    def test_spread_bound_shrinks_with_dimension(self):
        low_d = rotated_projection_spread_bound(1.0, 4, 100, 0.1)
        high_d = rotated_projection_spread_bound(1.0, 400, 100, 0.1)
        assert high_d < low_d

    def test_lemma_49_empirically(self):
        """Random rotation spreads a fixed pair's difference across axes."""
        dimension = 200
        x = np.zeros(dimension)
        y = np.zeros(dimension)
        y[0] = 1.0  # difference concentrated on one axis
        bound = rotated_projection_spread_bound(1.0, dimension, 2, beta=0.05)
        violations = 0
        for seed in range(20):
            basis = random_orthonormal_basis(dimension, rng=seed)
            projections = np.abs(project_onto_basis((x - y).reshape(1, -1), basis))
            if projections.max() > bound:
                violations += 1
        assert violations <= 2


class TestBox:
    def test_contains_and_diameter(self):
        box = Box(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 2.0]))
        assert box.diameter == pytest.approx(np.sqrt(5.0))
        assert box.contains(np.array([[0.5, 1.0], [1.5, 1.0]])).tolist() == [True, False]
        assert np.allclose(box.center, [0.5, 1.0])

    def test_expanded(self):
        box = Box(lower=np.zeros(2), upper=np.ones(2)).expanded(0.5)
        assert np.allclose(box.lower, [-0.5, -0.5])
        assert np.allclose(box.upper, [1.5, 1.5])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box(lower=np.array([1.0]), upper=np.array([0.0]))


class TestShiftedBoxPartition:
    def test_labels_are_consistent_with_boxes(self):
        partition = ShiftedBoxPartition(dimension=2, width=0.3, rng=0)
        points = np.random.default_rng(1).uniform(size=(50, 2))
        labels = partition.labels(points)
        for point, label in zip(points, labels):
            box = partition.box_for_label(label)
            assert box.contains(point.reshape(1, -1))[0]

    def test_heaviest_cell_counts_cluster(self):
        cluster = np.full((100, 2), 0.5) + np.random.default_rng(0).normal(0, 0.001, (100, 2))
        partition = ShiftedBoxPartition(dimension=2, width=0.5, rng=1)
        assert partition.heaviest_cell_count(cluster) >= 50

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.05, max_value=0.5),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_capture_probability_bound(self, dimension, diameter, seed):
        """A set of the given diameter is captured by one box at least as often
        as the analytical lower bound predicts (statistically)."""
        width = 1.0
        partition_probability = ShiftedBoxPartition(
            dimension=dimension, width=width, rng=0
        ).cluster_capture_probability(diameter)
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 3, size=dimension)
        # Two antipodal points at the stated diameter: the worst case set.
        points = np.vstack([base, base + diameter / np.sqrt(dimension)])
        captures = 0
        trials = 60
        for trial in range(trials):
            partition = ShiftedBoxPartition(dimension=dimension, width=width,
                                            rng=1000 + trial)
            labels = partition.labels(points)
            captures += int(labels[0] == labels[1])
        observed = captures / trials
        assert observed >= partition_probability - 0.25

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            ShiftedBoxPartition(dimension=2, width=0.0)


INT64 = np.iinfo(np.int64)


def assert_unique_rows_matches_numpy(labels):
    """unique_rows returns np.unique(axis=0)'s values, dtypes and shapes
    under every flag combination."""
    for flags in itertools.product([False, True], repeat=3):
        expected = np.unique(labels, axis=0, return_index=flags[0],
                             return_inverse=flags[1], return_counts=flags[2])
        got = unique_rows(labels, *flags)
        if not isinstance(expected, tuple):
            expected, got = (expected,), (got,)
        assert len(got) == len(expected), flags
        for got_part, expected_part in zip(got, expected):
            assert got_part.dtype == expected_part.dtype, flags
            assert got_part.shape == expected_part.shape, flags
            assert np.array_equal(got_part, expected_part), flags


class TestUniqueRows:
    """The packed-key row unique is exactly np.unique(axis=0)."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(1, 6)),
        elements=st.one_of(
            st.integers(-3, 3),
            st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1,
                             INT64.max]),
            st.integers(INT64.min, INT64.max),
        ),
    ))
    def test_matches_numpy_unique(self, labels):
        assert_unique_rows_matches_numpy(labels)

    def test_edge_shapes(self):
        assert_unique_rows_matches_numpy(np.zeros((0, 3), dtype=np.int64))
        assert_unique_rows_matches_numpy(
            np.array([[4], [-2], [4], [0], [-2]], dtype=np.int64)
        )
        duplicates = np.tile(np.array([[1, -1, 7], [0, 0, 0]]), (5, 1))
        assert_unique_rows_matches_numpy(duplicates)

    def test_rerank_branches(self, monkeypatch):
        """Columns too wide for the packed key take both re-rank steps —
        the key so far, then the column itself — and still match."""
        ranked = []
        original = boxes_module._dense_rank

        def spy(values):
            ranked.append(values.shape)
            return original(values)

        monkeypatch.setattr(boxes_module, "_dense_rank", spy)
        rng = np.random.default_rng(5)
        # Two 2**41-wide columns overflow 63 bits: only the key re-ranks.
        wide = rng.integers(-2 ** 40, 2 ** 40, size=(50, 2))
        wide[10:20] = wide[:10]
        assert_unique_rows_matches_numpy(wide)
        assert len(ranked) == 8          # one key re-rank per flag set
        # A column spanning all of int64 cannot fit even after the key
        # re-ranks: the column re-ranks too.
        ranked.clear()
        full = np.array([[INT64.min, 0], [INT64.max, 1], [INT64.min, 1],
                         [INT64.max, 1], [0, INT64.min], [0, INT64.max]],
                        dtype=np.int64)
        assert_unique_rows_matches_numpy(full)
        assert len(ranked) == 8 * 4      # key and column, per column

    @pytest.mark.parametrize("sizes, radix", [
        ((255, 257), True),
        ((256, 256), True),          # the widest span a uint16 holds
        ((65_537,), False),          # a prime: one column
        ((3, 65_537), False),
    ], ids=["span-65535", "span-65536", "span-65537", "span-196611"])
    def test_sort_path_by_packed_span(self, monkeypatch, sizes, radix):
        """Keys spanning at most 2**16 values sort as uint16 by the stable
        (radix) sort, wider ones by the default comparison sort, and both
        match np.unique; the columns hold negative labels and repeats."""
        rng = np.random.default_rng(len(sizes))
        lows = np.asarray([-(size // 2) for size in sizes])
        highs = lows + np.asarray(sizes) - 1
        labels = rng.integers(lows, highs + 1, size=(3_000, len(sizes)))
        labels[0], labels[1] = lows, highs       # the span is exact
        labels[2:1_000] = labels[1_000:1_998]
        sorts = self.spy_sorts(monkeypatch)
        assert_unique_rows_matches_numpy(labels)
        expected = ((np.dtype(np.uint16), "stable") if radix
                    else (np.dtype(np.int64), None))
        assert sorts == [expected] * 8, sizes

    def test_sort_path_of_small_and_reranked_inputs(self, monkeypatch):
        """Zero rows, one row and a matrix whose key and column were
        re-ranked all pack into a narrow span: the radix path."""
        sorts = self.spy_sorts(monkeypatch)
        for labels in (np.zeros((0, 3), dtype=np.int64),
                       np.array([[-7, 0, 12]], dtype=np.int64),
                       np.array([[INT64.min, -1], [INT64.max, 1],
                                 [INT64.min, -1], [0, INT64.max]],
                                dtype=np.int64)):
            sorts.clear()
            assert_unique_rows_matches_numpy(labels)
            assert sorts == [(np.dtype(np.uint16), "stable")] * 8, labels

    @staticmethod
    def spy_sorts(monkeypatch):
        """Record the key dtype and sort kind of every ``np.argsort``."""
        sorts = []
        original = np.argsort

        def spy(keys, *args, **kwargs):
            sorts.append((keys.dtype, kwargs.get("kind")))
            return original(keys, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        return sorts

    def test_rejects_non_integer_rows(self):
        with pytest.raises(ValueError, match="signed-integer"):
            unique_rows(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="2-d"):
            unique_rows(np.zeros(3, dtype=np.int64))


class TestAxisIntervalPartition:
    def test_labels_and_intervals(self):
        partition = AxisIntervalPartition(width=0.5)
        labels = partition.labels(np.array([0.1, 0.6, -0.2]))
        assert labels.tolist() == [0, 1, -1]
        assert partition.interval(1) == (0.5, 1.0)

    def test_extended_interval_covers_neighbours(self):
        partition = AxisIntervalPartition(width=1.0, offset=0.25)
        low, high = partition.extended_interval(0)
        assert low == pytest.approx(-0.75)
        assert high == pytest.approx(2.25)

    def test_figure2_extension_captures_cluster(self):
        """Paper Figure 2: a heavy interval of length r extended by r on each
        side captures the whole diameter-r cluster."""
        rng = np.random.default_rng(0)
        cluster = rng.uniform(0.47, 0.53, size=300)  # diameter <= 0.06
        partition = AxisIntervalPartition(width=0.06)
        labels = partition.labels(cluster)
        values, counts = np.unique(labels, return_counts=True)
        heavy = int(values[np.argmax(counts)])
        low, high = partition.extended_interval(heavy)
        assert np.all((cluster >= low) & (cluster < high))
