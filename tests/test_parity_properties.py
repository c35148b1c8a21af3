"""Property-based cross-backend parity suite.

Randomised-but-seeded generators sweep dataset shapes the hand-picked cases
in ``test_neighbors.py`` / ``test_sharded.py`` cannot enumerate — sizes,
dimensions, duplicate blocks, colinear and fully degenerate point sets,
integer grids with exactly representable boundary distances — and assert the
library-wide contract *bitwise* on every draw: chunked, tree and sharded
(any shard count, serial mode) backends return identical integer
counts, identical truncated statistics and ``L(r, S)`` scores, and identical
projected-view grid hashes.

Hypothesis runs derandomised (the suite is deterministic in CI); the point
generators draw a numpy seed and build arrays outside hypothesis for speed.
The hypothesis sweep classes are marked ``slow`` — they belong in the
dedicated parity/property CI job, and their budget (``max_examples``) can
grow there without dragging the tier-1 loop; the small profile-oracle sweep
and the plain API-validation tests at the bottom stay in tier-1.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.boxes import ShiftedBoxPartition, box_labels, interval_labels
from repro.geometry.jl import project_rows
from repro.neighbors import (
    BACKENDS,
    ChunkedBackend,
    ShardedBackend,
    TreeBackend,
    first_occurrence_cells,
)
from repro.neighbors._distance import squared_distance_block
from repro.utils.exactsum import exact_column_sums

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SCENARIOS = ("uniform", "gaussian", "duplicates", "colinear", "identical",
             "integer")


def build_points(scenario: str, n: int, d: int, seed: int) -> np.ndarray:
    """Deterministically build an ``(n, d)`` dataset for one scenario."""
    rng = np.random.default_rng(seed)
    if scenario == "uniform":
        return rng.uniform(-2.0, 2.0, size=(n, d))
    if scenario == "gaussian":
        return rng.normal(0.0, rng.uniform(0.01, 10.0), size=(n, d))
    if scenario == "duplicates":
        # A handful of distinct rows, each repeated many times in shuffled
        # order — ties and repeated zero distances everywhere.
        distinct = rng.uniform(-1.0, 1.0, size=(max(2, n // 8), d))
        rows = distinct[rng.integers(0, distinct.shape[0], size=n)]
        return rows
    if scenario == "colinear":
        # All points on one line: every pairwise distance is a multiple of
        # the direction norm, exercising heavy boundary collisions.
        direction = rng.normal(size=d)
        offsets = rng.uniform(-3.0, 3.0, size=n)
        return offsets[:, None] * direction[None, :]
    if scenario == "identical":
        return np.tile(rng.uniform(-1.0, 1.0, size=(1, d)), (n, 1))
    if scenario == "integer":
        # Integer coordinates: squared distances are exact integers, so
        # boundary radii (below) hit representable values dead on.
        return rng.integers(-4, 5, size=(n, d)).astype(float)
    raise AssertionError(scenario)


def boundary_radii(points: np.ndarray, seed: int) -> np.ndarray:
    """Probe radii: negatives, zero, *exact* pairwise distances (boundary
    hits), the span, and uniform probes."""
    rng = np.random.default_rng(seed)
    sample = points[rng.integers(0, points.shape[0], size=min(12, points.shape[0]))]
    deltas = sample[:, None, :] - points[None, :, :]
    distances = np.sqrt(np.einsum("qnd,qnd->qn", deltas, deltas)).ravel()
    positive = distances[distances > 0]
    exact = (rng.choice(positive, size=min(6, positive.size), replace=False)
             if positive.size else np.empty(0))
    span = float(distances.max(initial=0.0))
    probes = rng.uniform(0.0, span * 1.1 + 0.1, size=5)
    return np.concatenate([[-1.0, -1e-12, 0.0, span], exact, probes])


def make_backends(points: np.ndarray, num_shards: int) -> dict:
    return {
        "chunked": ChunkedBackend(points),
        "tree": TreeBackend(points),
        f"sharded[{num_shards}]": ShardedBackend(
            points, num_shards=num_shards, num_workers=0
        ),
    }


datasets = st.tuples(
    st.sampled_from(SCENARIOS),
    st.integers(min_value=2, max_value=90),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2 ** 16),
    st.integers(min_value=1, max_value=7),     # shard count
)


@pytest.mark.slow
class TestCountParity:
    @SETTINGS
    @given(case=datasets)
    def test_counts_and_batched_grid_bitwise_equal(self, case):
        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        radii = boundary_radii(points, seed + 1)
        centers = np.vstack([
            points[:: max(1, n // 5)],
            np.random.default_rng(seed + 2).uniform(-3, 3, size=(4, d)),
        ])
        backends = make_backends(points, shards)
        reference_many = backends["chunked"].count_within_many(centers, radii)
        for name, backend in backends.items():
            for radius in radii[:4]:
                counts = backend.query_radius_counts(centers, float(radius))
                assert counts.dtype == np.int64, name
                assert np.array_equal(
                    counts,
                    backends["chunked"].query_radius_counts(centers,
                                                            float(radius)),
                ), (name, scenario, radius)
            batched = backend.count_within_many(centers, radii)
            assert np.array_equal(batched, reference_many), (name, scenario)
            assert np.array_equal(
                backend.radius_counts(float(radii[-1])),
                backends["chunked"].radius_counts(float(radii[-1])),
            ), (name, scenario)


@pytest.mark.slow
class TestStatisticParity:
    @SETTINGS
    @given(case=datasets)
    def test_truncated_statistic_and_scores_bitwise_equal(self, case):
        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        radii = boundary_radii(points, seed + 3)
        backends = make_backends(points, shards)
        targets = sorted({1, max(1, n // 3), max(1, int(0.9 * n)), n})
        for name, backend in backends.items():
            for target in targets:
                assert np.array_equal(
                    backend.capped_average_scores(radii, target),
                    backends["chunked"].capped_average_scores(radii, target),
                ), (name, scenario, target)
            # The streaming walk is an independent evaluation strategy and
            # must agree bit for bit as well.
            target = targets[-2] if len(targets) > 1 else targets[0]
            assert np.array_equal(
                backend._streaming_profile(radii, target),
                backends["chunked"].capped_average_scores(radii, target),
            ), (name, scenario)
            for k in (1, max(1, n // 2), n):
                assert np.array_equal(
                    backend.kth_distances(k),
                    backends["chunked"].kth_distances(k),
                ), (name, scenario, k)


def oracle_scores(points: np.ndarray, radii: np.ndarray,
                  target: int) -> np.ndarray:
    """``L(r, S)`` from first principles: capped counts
    ``min(B_r(x_i), t)`` read off the dense squared-distance matrix, the
    ``t`` largest summed as integers, divided by ``t``."""
    squared = squared_distance_block(points, points)
    scores = []
    for radius in radii:
        counts = (np.count_nonzero(squared <= radius * radius, axis=1)
                  if radius >= 0 else np.zeros(points.shape[0], dtype=int))
        capped = np.minimum(counts, target)
        top = sorted(capped.tolist(), reverse=True)[:target]
        scores.append(sum(top) / target)
    return np.asarray(scores, dtype=float)


class TestProfileOracle:
    """Every backend shares one profile formula, so cross-backend parity
    cannot catch an error in its arithmetic: check it against the oracle.
    Radii hit pairwise distances exactly and one ulp above."""

    @settings(SETTINGS, max_examples=25)
    @given(case=st.tuples(
        st.sampled_from(SCENARIOS),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2 ** 16),
        st.integers(min_value=1, max_value=5),     # shard count
    ))
    def test_scores_bitwise_equal_oracle(self, case):
        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        exact = boundary_radii(points, seed + 7)
        radii = np.concatenate([exact, np.nextafter(exact, np.inf),
                                [-2.0, np.inf]])
        backends = make_backends(points, shards)
        for target in sorted({1, max(1, n // 2), n}):
            expected = oracle_scores(points, radii, target)
            for name, backend in backends.items():
                got = backend.capped_average_scores(radii, target)
                assert got.tobytes() == expected.tobytes(), (name, scenario,
                                                             target)
            streamed = backends["chunked"]._streaming_profile(radii, target)
            assert streamed.tobytes() == expected.tobytes(), (scenario,
                                                              target)


def oracle_top_sums(squared: np.ndarray, keys: np.ndarray,
                    target: int) -> np.ndarray:
    """The integer top-``target`` sum of capped counts at each squared
    key, from the dense squared-distance matrix."""
    sums = []
    for key in keys:
        capped = np.minimum(np.count_nonzero(squared <= key, axis=1), target)
        sums.append(sum(sorted(capped.tolist(), reverse=True)[:target]))
    return np.asarray(sums, dtype=np.int64)


class TestThresholdSelection:
    """The sharded profile's exact two-round selection of the column
    thresholds, against the dense oracle: tie-heavy integer lattices and
    duplicated rows, 1-8 shards (shards with fewer rows than ``t`` and
    single-row shards included), keys on every pairwise squared distance
    and one ulp above it."""

    @settings(SETTINGS, max_examples=30)
    @given(case=st.tuples(
        st.sampled_from(("integer", "duplicates")),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2 ** 16),
        st.integers(min_value=1, max_value=8),     # shard count
    ))
    def test_selection_matches_dense_oracle(self, case):
        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        squared = squared_distance_block(points, points)
        distances = np.unique(squared)
        keys = np.concatenate([[-1.0, 0.0], distances,
                               np.nextafter(distances, np.inf), [np.inf]])
        radii = np.concatenate([[-1.0, 0.0], np.sqrt(distances),
                                np.nextafter(np.sqrt(distances), np.inf),
                                [np.inf]])
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        for target in sorted({1, max(1, n // 2), n}):
            sums = backend._top_sums(keys, target)
            assert sums.tobytes() == oracle_top_sums(squared, keys,
                                                     target).tobytes()
            scores = backend.capped_average_scores(radii, target)
            assert scores.tobytes() == oracle_scores(points, radii,
                                                     target).tobytes()
            thresholds, _ = backend._threshold_profile(target)
            truncated = np.sort(squared, axis=1)[:, :target]
            column = np.partition(truncated, target - 1, axis=0)[target - 1]
            assert thresholds.tobytes() == column.tobytes()


@pytest.mark.slow
class TestViewParity:
    @SETTINGS
    @given(case=datasets, image_dim=st.integers(min_value=1, max_value=4),
           identity=st.booleans())
    def test_view_grid_hashes_bitwise_equal(self, case, image_dim, identity):
        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        rng = np.random.default_rng(seed + 4)
        if identity:
            matrix = None
            image = points
            k = d
        else:
            matrix = rng.normal(size=(image_dim, d))
            image = project_rows(points, matrix)
            k = image_dim
        width = float(rng.uniform(0.05, 2.0))
        shifts = rng.uniform(0.0, width, size=(3, k))

        # In-parent reference: the same single-definition hashes every
        # backend's view uses.
        reference_labels = box_labels(image, shifts[0], width)
        reference_counts = np.array([
            np.unique(box_labels(image, shift, width), axis=0,
                      return_counts=True)[1].max()
            for shift in shifts
        ])
        unique, first, counts = np.unique(reference_labels, axis=0,
                                          return_index=True,
                                          return_counts=True)
        order = np.argsort(first, kind="stable")
        reference_hist = (unique[order], counts[order])
        chosen = reference_hist[0][int(rng.integers(0, unique.shape[0]))]
        reference_mask = np.all(reference_labels == chosen[None, :], axis=1)
        rows = np.flatnonzero(reference_mask)
        reference_axis = interval_labels(image[rows], width)
        reference_axis_hists = [first_occurrence_cells(reference_axis[:, axis])
                                for axis in range(k)]
        reference_sum = exact_column_sums(image[rows])

        for name, backend in make_backends(points, shards).items():
            view = backend.view(matrix)
            assert view.image_dimension == k
            assert np.array_equal(
                view.heaviest_cell_counts(width, shifts), reference_counts
            ), (name, scenario)
            hist_labels, hist_counts = view.cell_histogram(width, shifts[0])
            assert np.array_equal(hist_labels, reference_hist[0]), (name,
                                                                    scenario)
            assert np.array_equal(hist_counts, reference_hist[1]), (name,
                                                                    scenario)
            # The chosen box as a label predicate selects exactly the
            # reference mask's rows.
            selection = view.box_selection(width, shifts[0], chosen)
            assert np.array_equal(view.masked_sum(selection),
                                  reference_sum), (name, scenario)
            for (got_labels, got_counts), (ref_labels, ref_counts) in zip(
                    view.masked_axis_histograms(selection, width),
                    reference_axis_hists):
                assert np.array_equal(got_labels, ref_labels), (name,
                                                                scenario)
                assert np.array_equal(got_counts, ref_counts), (name,
                                                                scenario)

    @SETTINGS
    @given(case=datasets)
    def test_axis_histograms_ignore_caller_row_order(self, case):
        """Row selections are row sets: an unsorted row array histograms
        in ascending dataset-row order on every backend."""
        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        rng = np.random.default_rng(seed + 5)
        basis = rng.normal(size=(d, d))
        rows = rng.permutation(n)[: max(1, n // 2)]   # deliberately unsorted
        labels = interval_labels(project_rows(points[np.sort(rows)], basis),
                                 0.4)
        reference = [first_occurrence_cells(labels[:, axis])
                     for axis in range(d)]
        for name, backend in make_backends(points, shards).items():
            got = backend.view(basis).masked_axis_histograms(rows, 0.4)
            for (got_labels, got_counts), (ref_labels, ref_counts) in zip(
                    got, reference):
                assert np.array_equal(got_labels, ref_labels), (name,
                                                                scenario)
                assert np.array_equal(got_counts, ref_counts), (name,
                                                                scenario)


@pytest.mark.slow
class TestPlanSubmitDeterminism:
    """Async plan submission is bitwise deterministic: any number of
    overlapped ``submit`` calls, resolved in any order, return exactly what
    a synchronous ``execute`` returns — which itself bitwise matches the
    chunked backend's direct evaluation, across scenarios, shard counts and
    selection kinds."""

    @SETTINGS
    @given(case=datasets, image_dim=st.integers(min_value=1, max_value=3))
    def test_overlapped_submissions_bitwise_equal(self, case, image_dim):
        from repro.neighbors import QueryPlan

        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        rng = np.random.default_rng(seed + 6)
        matrix = rng.normal(size=(image_dim, d))
        basis = rng.normal(size=(d, d))
        width = float(rng.uniform(0.1, 1.5))
        shifts = rng.uniform(0.0, width, size=image_dim)
        labels = box_labels(project_rows(points, matrix), shifts, width)
        unique, counts = np.unique(labels, axis=0, return_counts=True)
        chosen = unique[int(np.argmax(counts))]
        centers = points[:: max(1, n // 4)]
        radii = np.asarray([0.0, float(rng.uniform(0.0, 3.0))])

        def build(backend):
            search = backend.view(matrix)
            frame = backend.view(basis)
            selection = search.box_selection(width, shifts, chosen)
            plan = QueryPlan()
            slots = (
                plan.masked_sum(frame, selection),
                plan.masked_axis_histograms(frame, selection, 0.5),
                plan.masked_clipped_sum(frame, selection, np.zeros(d), 1.0),
                plan.cell_histogram(search, width, shifts),
                plan.heaviest_cell_counts(search, width,
                                          shifts[None, :]),
                plan.count_within_many(centers, radii),
            )
            return plan, slots

        chunked = ChunkedBackend(points)
        reference_plan, slots = build(chunked)
        reference = chunked.execute(reference_plan)
        for backend in (TreeBackend(points),
                        ShardedBackend(points, num_shards=shards,
                                       num_workers=0)):
            plan, other_slots = build(backend)
            assert other_slots == slots
            synchronous = backend.execute(plan)
            futures = [backend.submit(plan) for _ in range(2)]
            for future in reversed(futures):
                resolved = future.result()
                for slot in slots:
                    got, sync, expected = (resolved[slot], synchronous[slot],
                                           reference[slot])
                    if slot == slots[1]:          # per-axis histograms
                        for (gl, gc), (el, ec) in zip(got, expected):
                            assert np.array_equal(gl, el)
                            assert np.array_equal(gc, ec)
                    elif slot == slots[2]:        # clipped statistics
                        assert got.count == expected.count
                        assert np.array_equal(got.vector_sum,
                                              expected.vector_sum)
                        assert sync.count == expected.count
                    elif slot == slots[3]:        # cell histogram
                        for g, e in zip(got, expected):
                            assert np.array_equal(g, e)
                    else:
                        assert np.array_equal(got, expected)


class TestViewValidation:
    def test_matrix_shape_rejected(self):
        backend = ChunkedBackend(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            backend.view(np.zeros((2, 5)))

    def test_rows_out_of_range_rejected(self):
        points = np.arange(12.0).reshape(6, 2)
        for backend in (ChunkedBackend(points),
                        ShardedBackend(points, num_shards=2, num_workers=0)):
            view = backend.view(np.eye(2))
            with pytest.raises(ValueError):
                view.masked_axis_histograms([0, 6], 1.0)
            with pytest.raises(ValueError):
                view.masked_axis_histograms([-1], 1.0)

    def test_shift_dimension_rejected(self):
        backend = ChunkedBackend(np.zeros((4, 3)))
        view = backend.view(np.ones((2, 3)))
        with pytest.raises(ValueError):
            view.heaviest_cell_counts(1.0, np.zeros((1, 3)))

    def test_offset_view_matches_translation(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 3))
        offset = np.array([1.5, -0.25, 3.0])
        shifted = points + offset[None, :]
        partition = ShiftedBoxPartition(dimension=3, width=0.9, rng=1)
        reference = box_labels(shifted, partition.shifts, 0.9)
        for backend in (ChunkedBackend(points),
                        ShardedBackend(points, num_shards=3, num_workers=0)):
            view = backend.view(offset=offset)
            cell_labels, cell_counts = view.cell_histogram(0.9,
                                                           partition.shifts)
            expected_labels, expected_counts = first_occurrence_cells(reference)
            assert np.array_equal(cell_labels, expected_labels)
            assert np.array_equal(cell_counts, expected_counts)
