"""Tests for the sharded multi-process backend and the streaming profile.

The contract: :class:`~repro.neighbors.ShardedBackend` is *bitwise*
interchangeable with the single-process backends — identical integer counts,
identical ``L(r, S)`` scores — for every shard count, with and without worker
processes; and the radii-chunked streaming large-target walk matches the
persisted-statistic path exactly while never allocating the ``O(n * t)``
truncated statistic.
"""

import tracemalloc

import numpy as np
import pytest

import repro.neighbors as neighbors
from repro.accounting.params import PrivacyParams
from repro.core.config import OneClusterConfig
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.geometry.boxes import ShiftedBoxPartition
from repro.neighbors import (
    BACKENDS,
    DenseBackend,
    ShardedBackend,
    auto_backend,
    resolve_backend,
)

DATASETS = {
    "random-2d": np.random.default_rng(0).uniform(size=(140, 2)),
    "random-1d": np.random.default_rng(1).normal(size=(110, 1)),
    "random-highd": np.random.default_rng(2).uniform(size=(70, 24)),
    "duplicates": np.vstack([
        np.zeros((9, 3)),
        np.ones((5, 3)),
        np.random.default_rng(3).uniform(size=(40, 3)),
        np.zeros((3, 3)),
    ]),
    "identical": np.full((30, 2), 0.25),
    # Integer coordinates: distances like 5.0 (3-4-5 triangles) are exactly
    # representable, so boundary radii are exercised without float ambiguity.
    "integer-grid": np.array(
        [[x, y] for x in range(-3, 4) for y in range(-3, 4)], dtype=float
    ),
}

SHARD_COUNTS = (1, 2, 7)


def radii_for(points):
    """Probe radii: negatives, zero, boundary hits, spans, random probes."""
    from repro.geometry.balls import pairwise_distances

    distances = pairwise_distances(points)
    span = float(distances.max())
    probe = np.random.default_rng(9).uniform(0.0, span * 1.1, size=10)
    exact = distances[distances > 0]
    hits = [float(np.median(exact))] if exact.size else []
    return np.concatenate([[-1.0, -1e-9, 0.0, span, span + 1.0], probe, hits])


class TestShardedParity:
    """Serial-mode (num_workers=0) parity across shard counts and datasets."""

    @pytest.mark.parametrize("name", sorted(DATASETS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_counts_identical(self, name, shards):
        points = DATASETS[name]
        dense = DenseBackend(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        assert backend.num_shards == min(shards, points.shape[0])
        for radius in radii_for(points):
            counts = backend.radius_counts(float(radius))
            assert counts.dtype == np.int64
            assert np.array_equal(counts, dense.radius_counts(float(radius)))

    @pytest.mark.parametrize("name", ["random-2d", "duplicates", "integer-grid"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_query_counts_arbitrary_centers(self, name, shards):
        points = DATASETS[name]
        dense = DenseBackend(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        centers = np.random.default_rng(7).uniform(
            points.min() - 0.5, points.max() + 0.5, size=(19, points.shape[1])
        )
        for radius in (0.0, 0.3, 2.0, 5.0):
            assert np.array_equal(
                backend.query_radius_counts(centers, radius),
                dense.query_radius_counts(centers, radius),
            )

    @pytest.mark.parametrize("name", sorted(DATASETS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_score_profiles_identical(self, name, shards):
        points = DATASETS[name]
        n = points.shape[0]
        radii = radii_for(points)
        dense = DenseBackend(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        for target in sorted({1, 3, n // 2, int(0.9 * n), n}):
            target = max(1, target)
            assert np.array_equal(
                backend.capped_average_scores(radii, target),
                dense.capped_average_scores(radii, target),
            ), (name, shards, target)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_kth_distances_identical(self, shards):
        points = DATASETS["duplicates"]
        dense = DenseBackend(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        for k in (1, 2, points.shape[0] // 2, points.shape[0]):
            assert np.array_equal(backend.kth_distances(k),
                                  dense.kth_distances(k))

    @pytest.mark.parametrize("inner", ["dense", "chunked", "tree"])
    def test_inner_backend_choice_is_invisible(self, inner):
        points = DATASETS["random-2d"]
        dense = DenseBackend(points)
        backend = ShardedBackend(points, num_shards=3, num_workers=0,
                                 inner_backend=inner)
        for radius in (0.0, 0.4, 1.2):
            assert np.array_equal(backend.radius_counts(radius),
                                  dense.radius_counts(radius))
        assert np.array_equal(backend.capped_average_scores([0.2, 0.7], 30),
                              dense.capped_average_scores([0.2, 0.7], 30))


class TestBatchedCounts:
    """count_within_many == stacked per-radius queries, for every backend."""

    @pytest.mark.parametrize("name", ["random-2d", "duplicates", "integer-grid"])
    def test_matches_per_radius_queries(self, name):
        points = DATASETS[name]
        radii = radii_for(points)
        centers = np.random.default_rng(21).uniform(
            points.min(), points.max(), size=(13, points.shape[1])
        )
        reference = np.stack([
            DenseBackend(points).query_radius_counts(centers, float(r))
            for r in radii
        ])
        for factory_name, factory in BACKENDS.items():
            backend = (factory(points, num_workers=0)
                       if factory_name == "sharded" else factory(points))
            batched = backend.count_within_many(centers, radii)
            assert batched.shape == (radii.shape[0], centers.shape[0])
            assert np.array_equal(batched, reference), factory_name

    def test_dataset_centers_identity(self):
        points = DATASETS["random-2d"]
        backend = ShardedBackend(points, num_shards=2, num_workers=0)
        batched = backend.count_within_many(backend.points, [0.0, 0.3])
        assert np.array_equal(batched[0], backend.radius_counts(0.0))
        assert np.array_equal(batched[1], backend.radius_counts(0.3))


@pytest.mark.slow
class TestProcessPool:
    """The multi-process path must agree with serial — same merge code, plus
    shared-memory transport.  Marked slow (real worker pools): runs in the
    dedicated ``-m slow`` CI job, not the tier-1 loop."""

    def test_pool_parity_and_lifecycle(self):
        points = DATASETS["random-2d"]
        dense = DenseBackend(points)
        radii = radii_for(points)
        with ShardedBackend(points, num_shards=3, num_workers=2) as backend:
            assert np.array_equal(backend.radius_counts(0.3),
                                  dense.radius_counts(0.3))
            assert np.array_equal(
                backend.capped_average_scores(radii, 40),
                dense.capped_average_scores(radii, 40),
            )
            assert np.array_equal(
                backend.capped_average_scores(radii, 120, streaming=True),
                dense.capped_average_scores(radii, 120),
            )
            assert np.array_equal(
                backend.count_within_many(points[:9], radii),
                dense.count_within_many(points[:9], radii),
            )
        # close() is idempotent and the context manager already closed it.
        backend.close()

    def test_heaviest_cells_pool(self):
        points = DATASETS["integer-grid"]
        partitions = [
            ShiftedBoxPartition(dimension=2, width=1.7, rng=i) for i in range(5)
        ]
        shifts = np.stack([p.shifts for p in partitions])
        expected = np.array([p.heaviest_cell_count(points) for p in partitions])
        with ShardedBackend(points, num_shards=4, num_workers=2) as backend:
            assert np.array_equal(
                backend.view().heaviest_cell_counts(1.7, shifts), expected
            )

    def test_projected_view_pool(self):
        """Non-identity views over a real pool: the matrix ships to the
        workers, the projection is applied shard-side, and every grid hash
        and masked aggregate matches the in-parent reference bitwise."""
        from repro.geometry.boxes import box_labels, interval_labels
        from repro.geometry.jl import project_rows
        from repro.neighbors import first_occurrence_cells
        from repro.utils.exactsum import exact_column_sums

        rng = np.random.default_rng(5)
        points = rng.normal(size=(200, 6))
        matrix = rng.normal(size=(3, 6))
        image = project_rows(points, matrix)
        width = 0.8
        shifts = rng.uniform(0.0, width, size=(5, 3))
        reference_labels = box_labels(image, shifts[0], width)
        expected_counts = np.array([
            np.unique(box_labels(image, shift, width), axis=0,
                      return_counts=True)[1].max()
            for shift in shifts
        ])
        unique, first, counts = np.unique(reference_labels, axis=0,
                                          return_index=True,
                                          return_counts=True)
        order = np.argsort(first, kind="stable")
        chosen = unique[order][0]
        expected_mask = np.all(reference_labels == chosen[None, :], axis=1)
        rows = np.flatnonzero(expected_mask)
        basis = rng.normal(size=(6, 6))
        expected_axis = interval_labels(project_rows(points[rows], basis), 0.4)
        with ShardedBackend(points, num_shards=3, num_workers=2) as backend:
            view = backend.view(matrix)
            assert np.array_equal(
                view.heaviest_cell_counts(width, shifts), expected_counts
            )
            hist_labels, hist_counts = view.cell_histogram(width, shifts[0])
            assert np.array_equal(hist_labels, unique[order])
            assert np.array_equal(hist_counts, counts[order])
            selection = view.box_selection(width, shifts[0], chosen)
            assert np.array_equal(view.masked_sum(selection),
                                  exact_column_sums(image[expected_mask]))
            axis_histograms = backend.view(basis).masked_axis_histograms(
                selection, 0.4
            )
            for axis, (labels, axis_counts) in enumerate(axis_histograms):
                expected_labels, expected_counts = first_occurrence_cells(
                    expected_axis[:, axis]
                )
                assert np.array_equal(labels, expected_labels)
                assert np.array_equal(axis_counts, expected_counts)

    def test_query_plan_pool(self):
        """A fused plan over a real pool: the whole bundle is one
        ``execute_plan`` task per shard, overlapped submissions resolve to
        bitwise the in-parent references, and ``pool_stats`` shows each
        shard's lazily built state pinned to exactly one worker (the
        shard→worker routing affinity)."""
        from repro.geometry.boxes import box_labels
        from repro.geometry.jl import project_rows
        from repro.neighbors import QueryPlan

        rng = np.random.default_rng(8)
        points = rng.normal(size=(240, 6))
        matrix = rng.normal(size=(3, 6))
        basis = rng.normal(size=(6, 6))
        width = 0.9
        shifts = rng.uniform(0.0, width, size=3)
        labels = box_labels(project_rows(points, matrix), shifts, width)
        unique, counts = np.unique(labels, axis=0, return_counts=True)
        chosen = unique[int(np.argmax(counts))]
        rows = np.flatnonzero(np.all(labels == chosen[None, :], axis=1))
        dense = DenseBackend(points)
        dense_frame = dense.view(basis)
        expected_sum = dense_frame.masked_sum(rows)
        expected_hists = dense_frame.masked_axis_histograms(rows, 0.4)
        expected_grid = dense.count_within_many(points[:6], [0.3, 1.2])
        with ShardedBackend(points, num_shards=4, num_workers=2) as backend:
            # A stolen task builds its shard's index on the thief too, so
            # the affinity assertions below need stealing off.
            backend.WORK_STEALING = False
            search = backend.view(matrix)
            frame = backend.view(basis)
            selection = search.box_selection(width, shifts, chosen)

            def build():
                plan = QueryPlan()
                slots = (
                    plan.masked_sum(frame, selection),
                    plan.masked_axis_histograms(frame, selection, 0.4),
                    plan.count_within_many(points[:6], [0.3, 1.2]),
                )
                return plan, slots

            plan, slots = build()
            before = backend.pool_stats()
            # Two plans in flight at once, resolved in reverse order.
            first = backend.submit(plan)
            second = backend.submit(plan)
            for future in (second, first):
                results = future.result()
                total, hists, grid = (results[s] for s in slots)
                assert np.array_equal(total, expected_sum)
                assert int(hists[0][1].sum()) == rows.shape[0]
                for (gl, gc), (el, ec) in zip(hists, expected_hists):
                    assert np.array_equal(gl, el)
                    assert np.array_equal(gc, ec)
                assert np.array_equal(grid, expected_grid)
            after = backend.pool_stats()
            assert after["parallel"] is True
            assert after["plans"] - before["plans"] == 2
            assert after["fanouts"] - before["fanouts"] == 2
            assert after["shard_tasks"] - before["shard_tasks"] == 8
            # Affinity: every shard's index/caches live in exactly one
            # worker, and with 2 workers the round-robin split is 0,2 / 1,3.
            built = [worker["built_shards"] for worker in after["workers"]]
            flattened = sorted(shard for shards in built for shard in shards)
            assert flattened == sorted(set(flattened))
            selections = [worker["cached_selections"]
                          for worker in after["workers"]]
            assert sorted(s for group in selections for s in group) == [
                0, 1, 2, 3
            ]

    def test_masked_aggregates_pool(self):
        """Masked aggregate queries over a real pool: the BoxSelection label
        predicate ships to the workers, each shard re-derives its own
        membership and returns exact fixed-point partials, and the merged
        statistics match the in-parent dense reference bitwise."""
        from repro.geometry.balls import ball_membership
        from repro.geometry.boxes import box_labels
        from repro.geometry.jl import project_rows

        rng = np.random.default_rng(6)
        points = rng.normal(size=(200, 6))
        matrix = rng.normal(size=(3, 6))
        basis = rng.normal(size=(6, 6))
        width = 0.9
        shifts = rng.uniform(0.0, width, size=3)
        labels = box_labels(project_rows(points, matrix), shifts, width)
        unique, counts = np.unique(labels, axis=0, return_counts=True)
        chosen = unique[int(np.argmax(counts))]
        rows = np.flatnonzero(np.all(labels == chosen[None, :], axis=1))
        rotated = project_rows(points, basis)
        center = rotated[rows].mean(axis=0)
        radius = 1.5

        dense_view = DenseBackend(points).view(basis)
        reference_sum = dense_view.masked_sum(rows)
        inside = ball_membership(rotated[rows], center, radius)
        with ShardedBackend(points, num_shards=3, num_workers=2) as backend:
            selection = backend.view(matrix).box_selection(width, shifts,
                                                           chosen)
            view = backend.view(basis)
            assert np.array_equal(view.masked_sum(selection), reference_sum)
            clipped = view.masked_clipped_sum(selection, center, radius)
            assert clipped.count == int(np.count_nonzero(inside))
            dense_clipped = dense_view.masked_clipped_sum(rows, center,
                                                          radius)
            assert np.array_equal(clipped.vector_sum,
                                  dense_clipped.vector_sum)
            hists = view.masked_axis_histograms(selection, 0.4)
            dense_hists = dense_view.masked_axis_histograms(rows, 0.4)
            assert int(hists[0][1].sum()) == rows.shape[0]
            for (got_l, got_c), (exp_l, exp_c) in zip(hists, dense_hists):
                assert np.array_equal(got_l, exp_l)
                assert np.array_equal(got_c, exp_c)


class TestHeaviestCells:
    @pytest.mark.parametrize("name", ["random-2d", "duplicates", "identical"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_partition_count(self, name, shards):
        points = DATASETS[name]
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        for seed in range(4):
            partition = ShiftedBoxPartition(
                dimension=points.shape[1], width=0.9, rng=seed
            )
            assert backend.view().heaviest_cell_counts(
                0.9, partition.shifts
            )[0] == partition.heaviest_cell_count(points)

    def test_dimension_mismatch_rejected(self):
        backend = ShardedBackend(DATASETS["random-2d"], num_workers=0)
        with pytest.raises(ValueError):
            backend.view().heaviest_cell_counts(1.0, np.zeros((2, 5)))


class TestStreamingProfile:
    """The radii-chunked large-target walk: exact parity, bounded memory."""

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_large_target_parity(self, backend_name):
        points = DATASETS["random-2d"]
        n = points.shape[0]
        target = int(0.9 * n)
        radii = radii_for(points)
        factory = BACKENDS[backend_name]
        backend = (factory(points, num_shards=3, num_workers=0)
                   if backend_name == "sharded" else factory(points))
        streamed = backend.capped_average_scores(radii, target, streaming=True)
        persisted = backend.capped_average_scores(radii, target,
                                                  streaming=False)
        assert np.array_equal(streamed, persisted)
        assert np.array_equal(
            streamed, DenseBackend(points).capped_average_scores(radii, target)
        )

    def test_streaming_auto_selection(self, monkeypatch):
        import repro.neighbors.base as base

        monkeypatch.setattr(base, "STREAMING_MIN_POINTS", 50)
        points = DATASETS["random-2d"]
        n = points.shape[0]
        chunked = BACKENDS["chunked"](points)
        calls = []
        original = chunked._streaming_profile

        def spy(radii, target):
            calls.append(target)
            return original(radii, target)

        monkeypatch.setattr(chunked, "_streaming_profile", spy)
        chunked.capped_average_scores([0.1, 0.5], int(0.9 * n))
        assert calls, "large target above the thresholds should stream"
        calls.clear()
        chunked.capped_average_scores([0.1, 0.5], max(1, n // 10))
        assert not calls, "small targets should keep the persisted path"
        # Dense opts out of auto-streaming entirely.
        dense = DenseBackend(points)
        assert dense.streaming_auto is False

    @pytest.mark.slow
    def test_streaming_never_persists_the_statistic(self):
        n, target = 20000, 18000
        points = np.random.default_rng(17).uniform(size=(n, 2))
        backend = BACKENDS["chunked"](points)
        tracemalloc.start()
        try:
            scores = backend.capped_average_scores(
                np.array([0.02, 0.1, 0.4]), target, streaming=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.shape == (3,)
        assert np.all(np.diff(scores) >= 0)
        persisted_bytes = n * target * 8          # the O(n*t) statistic
        assert peak < persisted_bytes / 5, (
            f"streaming path peaked at {peak / 1e6:.0f} MB"
        )


class TestSelectionAndConfig:
    def test_auto_backend_sharded_regime(self, monkeypatch):
        assert auto_backend(100, 2) == "dense"
        assert auto_backend(50000, 2) == "tree"
        monkeypatch.setattr(neighbors, "_available_cpus", lambda: 8)
        assert auto_backend(200000, 2) == "sharded"
        assert auto_backend(200000, 100) == "sharded"
        monkeypatch.setattr(neighbors, "_available_cpus", lambda: 1)
        assert auto_backend(200000, 2) == "tree"

    def test_resolve_sharded_with_options(self):
        points = DATASETS["random-2d"]
        backend = resolve_backend(points, "sharded",
                                  options={"num_workers": 0, "num_shards": 2})
        assert isinstance(backend, ShardedBackend)
        assert backend.num_shards == 2
        assert not backend.parallel

    def test_resolve_rejects_options_on_instances(self):
        points = DATASETS["random-2d"]
        instance = ShardedBackend(points, num_workers=0)
        with pytest.raises(ValueError):
            resolve_backend(points, instance, options={"num_workers": 2})

    def test_config_accepts_sharded_and_workers(self):
        config = OneClusterConfig(neighbor_backend="sharded",
                                  neighbor_workers=0)
        assert config.neighbor_backend_options() == {"num_workers": 0}
        assert OneClusterConfig().neighbor_backend_options() == {}
        with pytest.raises(ValueError):
            OneClusterConfig(neighbor_workers=-1)

    def test_shard_bounds_cover_dataset(self):
        points = DATASETS["random-2d"]
        backend = ShardedBackend(points, num_shards=7, num_workers=0)
        bounds = backend.shard_bounds
        assert bounds[0][0] == 0 and bounds[-1][1] == points.shape[0]
        for (_, high), (low, _) in zip(bounds, bounds[1:]):
            assert high == low


class TestPrivatePipelineParity:
    """Backend choice must never change a released value."""

    def test_good_radius_sharded_release(self, small_cluster_data, loose_params):
        points = small_cluster_data.points
        reference = good_radius(points, 200, loose_params, rng=11,
                                backend="dense")
        sharded = good_radius(points, 200, loose_params, rng=11,
                              backend=ShardedBackend(points, num_shards=3,
                                                     num_workers=0))
        assert sharded.radius == reference.radius
        assert sharded.score == reference.score

    def test_good_center_batched_search_release(self, medium_cluster_data):
        points = medium_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        plain = good_center(points, radius=0.05, target=400, params=params,
                            rng=3)
        backend = ShardedBackend(points, num_shards=4, num_workers=0)
        batched = good_center(points, radius=0.05, target=400, params=params,
                              rng=3, backend=backend)
        assert plain.found == batched.found
        assert plain.attempts == batched.attempts
        if plain.found:
            assert np.array_equal(plain.center, batched.center)
            assert plain.radius_bound == batched.radius_bound

    def test_streaming_does_not_change_good_radius(self, small_cluster_data,
                                                   loose_params, monkeypatch):
        import repro.neighbors.base as base

        reference = good_radius(small_cluster_data.points, 380, loose_params,
                                rng=5, backend="chunked")
        # Force every profile evaluation through the streaming walk.
        monkeypatch.setattr(base, "STREAMING_MIN_POINTS", 1)
        monkeypatch.setattr(base, "STREAMING_TARGET_FRACTION", 0.0)
        streamed = good_radius(small_cluster_data.points, 380, loose_params,
                               rng=5, backend="chunked")
        assert streamed.radius == reference.radius
