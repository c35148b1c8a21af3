"""Tests for the sharded multi-process backend and the streaming profile.

The contract: :class:`~repro.neighbors.ShardedBackend` is *bitwise*
interchangeable with the single-process backends — identical integer counts,
identical ``L(r, S)`` scores — for every shard count, with and without worker
processes; and the radii-chunked streaming large-target walk matches the
persisted-statistic path exactly while never allocating the ``O(n * t)``
truncated statistic.
"""

import math
import os
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import repro.neighbors as neighbors
import repro.neighbors.base as base_module
import repro.neighbors.sharded as sharded_module
import repro.neighbors.tree as tree_module
from repro.accounting.params import PrivacyParams
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.geometry.boxes import ShiftedBoxPartition
from repro.neighbors import (
    BACKENDS,
    HAVE_SCIPY_TREE,
    ChunkedBackend,
    ShardedBackend,
    TreeBackend,
    auto_backend,
    resolve_backend,
)
from repro.neighbors.base import ProfileCache

#: The registry's strategy names; the tree's case needs scipy.
BACKEND_NAMES = [pytest.param(name, marks=pytest.mark.needs_scipy)
                 if name == "tree" else name for name in sorted(BACKENDS)]

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
    # Exact distances, by direct differencing.
    distances = np.sqrt(
        ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    )
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
        reference = ChunkedBackend(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        assert backend.num_shards == min(shards, points.shape[0])
        for radius in radii_for(points):
            counts = backend.radius_counts(float(radius))
            assert counts.dtype == np.int64
            assert np.array_equal(counts,
                                  reference.radius_counts(float(radius)))

    @pytest.mark.parametrize("name", ["random-2d", "duplicates", "integer-grid"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_query_counts_arbitrary_centers(self, name, shards):
        points = DATASETS[name]
        reference = ChunkedBackend(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        centers = np.random.default_rng(7).uniform(
            points.min() - 0.5, points.max() + 0.5, size=(19, points.shape[1])
        )
        for radius in (0.0, 0.3, 2.0, 5.0):
            assert np.array_equal(
                backend.query_radius_counts(centers, radius),
                reference.query_radius_counts(centers, radius),
            )

    @pytest.mark.parametrize("name", sorted(DATASETS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_score_profiles_identical(self, name, shards):
        points = DATASETS[name]
        n = points.shape[0]
        radii = radii_for(points)
        reference = ChunkedBackend(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        for target in sorted({1, 3, n // 2, int(0.9 * n), n}):
            target = max(1, target)
            assert np.array_equal(
                backend.capped_average_scores(radii, target),
                reference.capped_average_scores(radii, target),
            ), (name, shards, target)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_kth_distances_identical(self, shards):
        points = DATASETS["duplicates"]
        reference = ChunkedBackend(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        for k in (1, 2, points.shape[0] // 2, points.shape[0]):
            assert np.array_equal(backend.kth_distances(k),
                                  reference.kth_distances(k))

    @pytest.mark.parametrize("inner", [
        "chunked",
        pytest.param("tree", marks=pytest.mark.needs_scipy),
        pytest.param("tree-slab", marks=pytest.mark.needs_scipy),
    ])
    def test_inner_backend_choice_is_invisible(self, inner, monkeypatch):
        """Each shard builds the in-process strategy auto_backend's rule
        picks for its size: chunked at these sizes, and the KD-tree at d=2
        once the chunked threshold is 0.  The truncated statistic then runs
        on a full-dataset tree at every k (``tree``, the k/n crossover
        patched away) or on the blocked slab at every k (``tree-slab``).
        Every answer is bitwise the whole-dataset chunked reference's."""
        points = DATASETS["random-2d"]
        radii = radii_for(points)
        centers = np.random.default_rng(11).uniform(size=(9, 2))

        def answers(backend):
            got = [backend.count_within_many(centers, radii)]
            got += [backend.radius_counts(float(r)) for r in radii]
            got += [backend.capped_average_scores(radii, target)
                    for target in (1, 30, 70, 140)]
            got += [backend.kth_distances(k) for k in (1, 12, 140)]
            return [value.tobytes() for value in got]

        expected = answers(ChunkedBackend(points))
        if inner != "chunked":
            monkeypatch.setattr(neighbors, "CHUNKED_MAX_POINTS", 0)
            monkeypatch.setattr(tree_module, "TREE_SELECT_FRACTION",
                                math.inf if inner == "tree" else 0.0)
        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        assert answers(backend) == expected
        inner_class = ChunkedBackend if inner == "chunked" else TreeBackend
        assert all(isinstance(backend._shards.backend(shard), inner_class)
                   for shard in range(3))
        assert (backend._shards._full_tree is None) == (inner != "tree")


class TestBatchedCounts:
    """count_within_many == stacked per-radius queries, for every backend."""

    @pytest.mark.needs_scipy
    @pytest.mark.parametrize("name", ["random-2d", "duplicates", "integer-grid"])
    def test_matches_per_radius_queries(self, name):
        points = DATASETS[name]
        radii = radii_for(points)
        centers = np.random.default_rng(21).uniform(
            points.min(), points.max(), size=(13, points.shape[1])
        )
        reference = np.stack([
            ChunkedBackend(points).query_radius_counts(centers, float(r))
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


class TestDepthCounts:
    """A direct depth_counts call is a one-query plan, like the same query
    appended to a plan."""

    def test_direct_call_fans_out_once(self):
        points = np.random.default_rng(8).normal(size=(1000, 2))
        thresholds = np.array([-1.0, 0.0, 0.5, points[3, 0]])
        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        before = backend.pool_stats()["fanouts"]
        with pytest.raises(ValueError, match="thresholds"):
            backend.depth_counts([[0.0, 0.5]])
        assert backend.pool_stats()["fanouts"] == before
        counts = backend.depth_counts(thresholds)
        assert backend.pool_stats()["fanouts"] == before + 1
        assert counts.dtype == np.int64
        assert np.array_equal(
            counts, ChunkedBackend(points).depth_counts(thresholds))


@pytest.mark.slow
class TestProcessPool:
    """The multi-process path must agree with serial — same merge code, plus
    shared-memory transport.  Marked slow (real worker pools): runs in the
    dedicated ``-m slow`` CI job, not the tier-1 loop."""

    def test_pool_parity_and_lifecycle(self):
        points = DATASETS["random-2d"]
        reference = ChunkedBackend(points)
        radii = radii_for(points)
        with ShardedBackend(points, num_shards=3, num_workers=2) as backend:
            assert np.array_equal(backend.radius_counts(0.3),
                                  reference.radius_counts(0.3))
            assert np.array_equal(
                backend.capped_average_scores(radii, 40),
                reference.capped_average_scores(radii, 40),
            )
            assert np.array_equal(
                backend._streaming_profile(radii, 120),
                reference.capped_average_scores(radii, 120),
            )
            assert np.array_equal(
                backend.count_within_many(points[:9], radii),
                reference.count_within_many(points[:9], radii),
            )
        # close() is idempotent and the context manager already closed it.
        backend.close()

    @pytest.mark.parametrize("query", ["plan", "truncated", "streaming"])
    def test_dead_worker_falls_back_to_serial(self, query):
        """A worker SIGKILLed after warm-up: the batch under way finishes on
        the serial path, bitwise the chunked answer, with one warning naming
        the dead pool, and the backend stays serial from then on."""
        points = np.random.default_rng(4).uniform(size=(300, 2))
        radii = np.linspace(0.0, 0.6, 9)
        run = {
            "plan": lambda b: b.count_within_many(points[:20], radii),
            "truncated": lambda b: b.capped_average_scores(radii, 60),
            "streaming": lambda b: b._streaming_profile(radii, 60),
        }[query]
        expected = run(neighbors.ChunkedBackend(points))
        with ShardedBackend(points, num_shards=2, num_workers=2) as backend:
            backend.radius_counts(0.2)  # warm-up: starts both workers
            stats = backend.pool_stats()
            assert stats["parallel"], "pool fell back to serial; seam untested"
            # Slot 0: its task is queued first, so the live slot can never
            # steal it and every case really lands a task on the dead worker.
            os.kill(stats["workers"][0]["pid"], signal.SIGKILL)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = run(backend)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            died = [w for w in caught if issubclass(w.category,
                                                    RuntimeWarning)]
            assert len(died) == 1
            assert "worker pool died" in str(died[0].message)
            assert not backend.parallel

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
        reference = ChunkedBackend(points)
        reference_frame = reference.view(basis)
        expected_sum = reference_frame.masked_sum(rows)
        expected_hists = reference_frame.masked_axis_histograms(rows, 0.4)
        expected_grid = reference.count_within_many(points[:6], [0.3, 1.2])
        # One shard per worker slot: no slot ever has a queued task another
        # could steal, so each shard's state stays on its affinity worker.
        with ShardedBackend(points, num_shards=2, num_workers=2) as backend:
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
            assert after["shard_tasks"] - before["shard_tasks"] == 4
            # Affinity: every shard's index/caches live in exactly one
            # worker, shard 0 on slot 0 and shard 1 on slot 1.
            built = [worker["built_shards"] for worker in after["workers"]]
            flattened = sorted(shard for shards in built for shard in shards)
            assert flattened == sorted(set(flattened))
            selections = [worker["cached_selections"]
                          for worker in after["workers"]]
            assert selections == [[0], [1]]

    def test_masked_aggregates_pool(self):
        """Masked aggregate queries over a real pool: the BoxSelection label
        predicate ships to the workers, each shard re-derives its own
        membership and returns exact fixed-point partials, and the merged
        statistics match the in-parent chunked reference bitwise."""
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

        reference_view = ChunkedBackend(points).view(basis)
        reference_sum = reference_view.masked_sum(rows)
        inside = ball_membership(rotated[rows], center, radius)
        with ShardedBackend(points, num_shards=3, num_workers=2) as backend:
            selection = backend.view(matrix).box_selection(width, shifts,
                                                           chosen)
            view = backend.view(basis)
            assert np.array_equal(view.masked_sum(selection), reference_sum)
            clipped = view.masked_clipped_sum(selection, center, radius)
            assert clipped.count == int(np.count_nonzero(inside))
            reference_clipped = reference_view.masked_clipped_sum(
                rows, center, radius
            )
            assert np.array_equal(clipped.vector_sum,
                                  reference_clipped.vector_sum)
            hists = view.masked_axis_histograms(selection, 0.4)
            reference_hists = reference_view.masked_axis_histograms(rows,
                                                                    0.4)
            assert int(hists[0][1].sum()) == rows.shape[0]
            for (got_l, got_c), (exp_l, exp_c) in zip(hists,
                                                      reference_hists):
                assert np.array_equal(got_l, exp_l)
                assert np.array_equal(got_c, exp_c)

    def test_good_center_jl_releases_pool(self):
        """Several JL-path ``good_center`` calls on one pool, speculation
        on: the workers' selection images and cell tables, kept across
        plans and replaced across calls, leave every release bitwise
        chunked's."""
        from repro.core.config import GoodCenterConfig

        rng = np.random.default_rng(3)
        points = np.vstack([
            np.full(8, 0.5) + rng.normal(0, 0.015, size=(900, 8)),
            rng.uniform(0, 1, size=(300, 8)),
        ])
        kwargs = dict(radius=0.1, target=700, params=PrivacyParams(16.0, 1e-4),
                      config=GoodCenterConfig(jl_constant=0.3))
        found = []
        with ShardedBackend(points, num_shards=3, num_workers=2) as backend:
            for seed in (0, 1, 4, 7):
                pooled = good_center(points, rng=seed, backend=backend,
                                     **kwargs)
                serial = good_center(points, rng=seed, backend="chunked",
                                     **kwargs)
                found.append(serial.found)
                assert pooled.projected_dimension < points.shape[1]
                assert pooled.found == serial.found
                assert pooled.attempts == serial.attempts
                if serial.found:
                    assert np.array_equal(pooled.center, serial.center)
                    assert pooled.radius_bound == serial.radius_bound
                    assert pooled.captured_count == serial.captured_count
            stats = backend.pool_stats()
        assert all(found)
        assert stats["parallel"] is True
        workers = stats["workers"]
        assert any(worker["selection_images"] for worker in workers)
        assert any(worker["cell_tables"] for worker in workers)


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

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_large_target_parity(self, backend_name):
        points = DATASETS["random-2d"]
        n = points.shape[0]
        target = int(0.9 * n)
        radii = radii_for(points)
        factory = BACKENDS[backend_name]
        backend = (factory(points, num_shards=3, num_workers=0)
                   if backend_name == "sharded" else factory(points))
        streamed = backend._streaming_profile(radii, target)
        persisted = backend.capped_average_scores(radii, target)
        assert np.array_equal(streamed, persisted)
        assert np.array_equal(
            streamed,
            ChunkedBackend(points).capped_average_scores(radii, target),
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

    @pytest.mark.slow
    def test_streaming_never_persists_the_statistic(self):
        n, target = 20000, 18000
        points = np.random.default_rng(17).uniform(size=(n, 2))
        backend = BACKENDS["chunked"](points)
        tracemalloc.start()
        try:
            scores = backend.capped_average_scores(
                np.array([0.02, 0.1, 0.4]), target
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


def reply_values(reply) -> int:
    """How many array values one shard reply holds."""
    if isinstance(reply, np.ndarray):
        return int(reply.size)
    if isinstance(reply, (list, tuple)):
        return sum(reply_values(item) for item in reply)
    return 0


class TestResidentProfile:
    """The sharded GoodRadius profile keeps the truncated statistic in the
    shards: an empty batch touches nothing, the replies stay
    ``O(t^1.5)``, and shard state is rebuilt from each task, never
    assumed."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @pytest.mark.parametrize("streaming", [None, True])
    def test_empty_batch_builds_nothing(self, name, streaming):
        points = DATASETS["random-2d"]
        backend = (BACKENDS[name](points, num_shards=2, num_workers=0)
                   if name == "sharded" else BACKENDS[name](points))
        fanouts = (backend.pool_stats()["fanouts"] if name == "sharded"
                   else None)
        profile = (backend.capped_average_scores if streaming is None
                   else backend._streaming_profile)
        scores = profile(np.empty(0), 70)
        assert scores.shape == (0,) and scores.dtype == float
        with pytest.raises(ValueError, match="target"):
            backend.capped_average_scores([], 0)
        assert backend._truncated_cache is None
        assert len(backend._profile_cache) == 0
        if name == "sharded":
            stats = backend.pool_stats()
            assert stats["fanouts"] == fanouts
            assert len(backend._threshold_cache) == 0
            assert len(backend._shards._profiles) == 0
            assert stats["workers"][0]["resident_blocks"] == {}

    def test_profile_replies_stay_below_t_to_the_1_5(self, monkeypatch):
        """No profile reply carries the ``(n/W, t)`` row block: at n=3000,
        t=1500 the parent commit's replies held 2.25M values per shard,
        ``38.7 t^1.5``."""
        from repro.datasets.synthetic import planted_cluster

        points = planted_cluster(n=3000, d=16, cluster_size=1800,
                                 cluster_radius=0.05, rng=2).points
        target = 1500
        radii = np.linspace(0.0, 1.0, 64)
        sizes = []
        original = ShardedBackend._dispatch

        def spying(self, tasks):
            handle = original(self, tasks)
            sizes.extend(reply_values(reply) for reply in handle.result())
            return handle

        monkeypatch.setattr(ShardedBackend, "_dispatch", spying)
        backend = ShardedBackend(points, num_shards=2, num_workers=0)
        scores = backend.capped_average_scores(radii, target)
        # Two selection rounds and one count round, one reply per shard.
        assert len(sizes) == 3 * 2
        assert max(sizes) <= 3 * target ** 1.5, sizes
        monkeypatch.undo()
        expected = neighbors.ChunkedBackend(points).capped_average_scores(
            radii, target)
        assert scores.tobytes() == expected.tobytes()

    def test_close_then_profile_rebuilds(self):
        """(a) Profile, close the pool, profile again: the restarted
        workers hold no state, and every task rebuilds what it needs."""
        points = DATASETS["random-2d"]
        radii = radii_for(points)
        chunked = neighbors.ChunkedBackend(points)
        expected = chunked.capped_average_scores(radii, 40)
        with ShardedBackend(points, num_shards=2, num_workers=2) as backend:
            first = backend.capped_average_scores(radii, 40)
            backend.close()
            again = backend.capped_average_scores(radii, 40)
            backend.close()
            kth = backend.kth_distances(40)
        assert first.tobytes() == expected.tobytes()
        assert again.tobytes() == expected.tobytes()
        assert kth.tobytes() == chunked.kth_distances(40).tobytes()

    def test_target_changes_match_fresh_backends(self):
        """(b) Targets A -> B -> A on one backend, with a wider ``kth``
        read between, give bitwise what fresh backends give."""
        points = DATASETS["duplicates"]
        radii = radii_for(points)
        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        for target, k in ((20, 45), (45, 12), (20, 5)):
            got = backend.capped_average_scores(radii, target)
            fresh = ShardedBackend(points, num_shards=3, num_workers=0)
            assert got.tobytes() == fresh.capped_average_scores(
                radii, target).tobytes()
            assert got.tobytes() == ChunkedBackend(
                points).capped_average_scores(radii, target).tobytes()
            assert backend.kth_distances(k).tobytes() == ChunkedBackend(
                points).kth_distances(k).tobytes()

    @pytest.mark.slow
    def test_four_shards_on_two_workers(self):
        """(c) Four shards on two workers: each worker keeps the
        statistics of the two shards routed to it, column-sorted at the
        widest target profiled, and target changes and ``kth`` reads over
        that state are bitwise the serial answers.  A ``kth`` read computes
        its column for the call and keeps nothing, so the widths stay at
        150."""
        points = np.random.default_rng(6).uniform(size=(240, 3))
        radii = radii_for(points)
        serial = ShardedBackend(points, num_shards=4, num_workers=0)
        expected = {target: serial.capped_average_scores(radii, target)
                    for target in (60, 150)}
        with ShardedBackend(points, num_shards=4, num_workers=2) as pool:
            for target in (60, 150, 60):
                got = pool.capped_average_scores(radii, target)
                assert got.tobytes() == expected[target].tobytes(), target
            assert (pool.kth_distances(200).tobytes()
                    == serial.kth_distances(200).tobytes())
            stats = pool.pool_stats()
        assert stats["parallel"], "pool fell back to serial; seam untested"
        assert [sorted(worker["resident_blocks"])
                for worker in stats["workers"]] == [[0, 2], [1, 3]]
        assert {columns for worker in stats["workers"]
                for columns in worker["resident_blocks"].values()} == {150}


def masked_samples(block, target):
    """Selection round 1 by its definition over the whole row block: sort
    every column, keep the sample ranks."""
    ranks = sharded_module._sample_ranks(block.shape[0], target)
    return np.sort(block, axis=0)[ranks - 1]


def masked_bracket(block, lower, upper):
    """Selection round 2 by masks over the whole row block: the count at
    or below ``lower`` and the entries strictly between the bounds,
    grouped by column in row order."""
    inside = (block > lower[None, :]) & (block < upper[None, :])
    return (np.count_nonzero(block <= lower[None, :], axis=0),
            np.count_nonzero(inside, axis=0),
            block.T[inside.T])


def masked_below(block, thresholds):
    """The count round's entries by a mask over the whole row block."""
    return np.sort(block[block < thresholds[None, :]])


def resident_shard_set(blocks):
    """A serial shard set whose shards hold the sorted columns of the
    row-sorted ``blocks`` as their resident statistic (the dataset itself
    is never read)."""
    edges = np.cumsum([0] + [block.shape[0] for block in blocks]).tolist()
    shards = sharded_module._ProfileShardSet(
        np.zeros((edges[-1], 1)), list(zip(edges[:-1], edges[1:])))
    for shard, block in enumerate(blocks):
        shards._blocks[shard] = sharded_module._sorted_columns(block)
    return shards


#: The handful of values the tie-heavy blocks are drawn from.
PALETTE = (0.0, 1.0, 2.0, 5.0)


@st.composite
def tie_heavy_blocks(draw):
    """1-7 shards of row-sorted ``(rows, t)`` blocks, some shards shorter
    than ``t`` and some longer, over one to four values; the leading and
    trailing columns may be forced all-equal (every real block's first
    column is all zeros)."""
    rows = draw(st.lists(st.integers(1, 9), min_size=1, max_size=7))
    target = draw(st.integers(1, min(12, sum(rows))))
    palette = PALETTE[:draw(st.integers(1, len(PALETTE)))]
    leading = draw(st.integers(0, target))
    trailing = draw(st.integers(0, target - leading))
    blocks = []
    for count in rows:
        block = np.sort(draw(arrays(np.float64, (count, target),
                                    elements=st.sampled_from(palette))),
                        axis=1)
        block[:, :leading] = palette[0]
        block[:, target - trailing:] = palette[-1]
        blocks.append(block)
    return blocks, target


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


class TestSortedColumnRounds:
    """The profile rounds over each shard's column-sorted statistic answer
    bitwise what the masks over its row block define, on tie-heavy blocks
    and brackets that sit on column entries."""

    @PROPERTY_SETTINGS
    @given(case=tie_heavy_blocks(), data=st.data())
    def test_rounds_match_masked_formulas(self, case, data):
        blocks, target = case
        shards = resident_shard_set(blocks)
        samples = [shards._partial(shard, "profile_samples", None, None,
                                   (target,))
                   for shard in range(len(blocks))]
        for block, got in zip(blocks, samples):
            expected = masked_samples(block, target)
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

        lower, upper = sharded_module._brackets(
            samples, [block.shape[0] for block in blocks], target)
        values = np.unique(np.concatenate([block.ravel()
                                           for block in blocks]))
        on_entries = st.sampled_from(values.tolist())
        brackets = [
            (lower, upper),
            (np.full(target, -np.inf), upper),
            (data.draw(arrays(np.float64, target,
                              elements=st.sampled_from(
                                  [-np.inf] + values.tolist()))),
             data.draw(arrays(np.float64, target, elements=on_entries))),
        ]
        for low, high in brackets:
            replies, expected_replies = [], []
            for shard, block in enumerate(blocks):
                got = shards._partial(shard, "profile_bracket", None, None,
                                      (target, low, high))
                expected = masked_bracket(block, low, high)
                for mine, theirs in zip(got, expected):
                    assert mine.dtype == theirs.dtype
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])
                split = np.cumsum(expected[1])[:-1]
                for mine, theirs in zip(np.split(got[2], split),
                                        np.split(expected[2], split)):
                    assert mine.tobytes() == np.sort(theirs).tobytes()
                replies.append(got)
                expected_replies.append(expected)
            if low is lower:
                # The merge reads the same thresholds from either order.
                merged = sharded_module._thresholds(replies, target, upper)
                reference = sharded_module._thresholds(expected_replies,
                                                       target, upper)
                for mine, theirs in zip(merged, reference):
                    assert mine.tobytes() == theirs.tobytes()
                thresholds = merged[0]

        drawn = data.draw(arrays(np.float64, target, elements=on_entries))
        for cut in (thresholds, drawn):
            for shard, block in enumerate(blocks):
                got = shards.below_threshold(shard, target, cut)
                assert got.tobytes() == masked_below(block, cut).tobytes()

    @PROPERTY_SETTINGS
    @given(points=st.integers(2, 40).flatmap(
               lambda n: arrays(np.float64, (n, 2),
                                elements=st.sampled_from([0.0, 1.0, 3.0]))),
           shards=st.integers(1, 7), data=st.data())
    def test_scores_match_chunked(self, points, shards, data):
        target = data.draw(st.integers(1, points.shape[0]))
        radii = radii_for(points)
        backend = ShardedBackend(points, num_shards=shards, num_workers=0)
        got = backend.capped_average_scores(radii, target)
        expected = ChunkedBackend(points).capped_average_scores(radii, target)
        assert got.tobytes() == expected.tobytes()


class TestStatisticLayout:
    """A shard keeps one copy of its truncated statistic, column-sorted,
    from its first profile task on; a ``kth`` read computes its column for
    the call and keeps nothing."""

    @staticmethod
    def counted_builds(monkeypatch):
        """Record every ``(shard, k, form)`` a shard set computes."""
        builds = []
        original = sharded_module._ProfileShardSet._build

        def counting(self, shard, k, form):
            builds.append((shard, k, form))
            return original(self, shard, k, form)

        monkeypatch.setattr(sharded_module._ProfileShardSet, "_build",
                            counting)
        return builds

    @staticmethod
    def assert_one_statistic(backend, width, targets):
        """Each shard holds one ``(width, rows)`` array that owns its
        memory (no other array kept alive behind it as its base), plus one
        below-threshold entry per profiled target."""
        shards = backend._shards
        assert sorted(shards._blocks) == list(range(backend.num_shards))
        for shard, (low, high) in enumerate(backend.shard_bounds):
            array = shards._blocks[shard]
            assert array.shape == (width, high - low)
            assert array.base is None
        assert len(shards._profiles) == backend.num_shards * len(targets)
        assert all(shards._profiles.get((shard, target)) is not None
                   for shard in range(backend.num_shards)
                   for target in targets)
        assert shards.cache_stats()["resident_blocks"] == {
            shard: width for shard in range(backend.num_shards)}

    def test_profile_and_kth_sequence(self, monkeypatch):
        """Read ``kth`` on a fresh backend, profile at t, read ``kth``
        below, at and above t, profile a smaller target, then t again:
        every answer is ``chunked``'s, each ``kth`` read computes only its
        column and keeps nothing, and only the first profile builds a
        statistic."""
        points = DATASETS["duplicates"]
        radii = radii_for(points)
        chunked = ChunkedBackend(points)
        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        builds = self.counted_builds(monkeypatch)
        assert (backend.kth_distances(30).tobytes()
                == chunked.kth_distances(30).tobytes())
        assert builds == [(shard, 30, "kth") for shard in range(3)]
        assert backend._shards._blocks == {}
        target, profiled = 20, []
        for op, k in (("profile", target), ("kth", 12), ("kth", target),
                      ("kth", 45), ("profile", 12), ("profile", target)):
            builds.clear()
            computed = [(shard, k, "kth" if op == "kth" else "columns")
                        for shard in range(3)]
            if op == "kth":
                got = backend.kth_distances(k)
                expected = chunked.kth_distances(k)
            else:
                got = backend.capped_average_scores(radii, k)
                expected = chunked.capped_average_scores(radii, k)
                if profiled:
                    computed = []
                if k not in profiled:
                    profiled.append(k)
            assert got.tobytes() == expected.tobytes(), (op, k)
            assert builds == computed, (op, k)
            self.assert_one_statistic(backend, target, profiled)
        backend.close()
        assert backend._shards._blocks == {}
        assert len(backend._shards._profiles) == 0


#: Targets that leave, revisit and widen past cached entries.
PROFILE_TARGETS = (40, 20, 45, 20, 40, 5)


def profile_backend(name, points, workers=0):
    """An in-process backend, or a 3-shard sharded one."""
    if name == "sharded":
        return ShardedBackend(points, num_shards=3, num_workers=workers)
    return BACKENDS[name](points)


def profile_caches(backend):
    """Every per-target profile cache a backend keeps in this process."""
    if isinstance(backend, ShardedBackend):
        return [backend._threshold_cache, backend._shards._profiles]
    return [backend._profile_cache]


class TestProfileCache:
    """Each backend keeps its GoodRadius profile warm per recent target,
    least recently used evicted first while the entries exceed the memory
    budget, the newest always kept — and no target sequence moves a
    score."""

    @pytest.mark.parametrize("name", [
        "chunked", pytest.param("tree", marks=pytest.mark.needs_scipy),
        "sharded"])
    @pytest.mark.parametrize("budget", [None, 1])
    def test_target_sequence_matches_fresh_backends(self, name, budget,
                                                    monkeypatch):
        """With the default budget, or one that lets a single entry stay,
        every target of the sequence is bitwise a fresh backend's answer.
        The default budget keeps every target: the shard set keys its
        entries by (shard, target)."""
        if budget is not None:
            monkeypatch.setattr(base_module, "DEFAULT_MEMORY_BUDGET", budget)
        points = DATASETS["duplicates"]
        radii = radii_for(points)
        backend = profile_backend(name, points)
        for target in PROFILE_TARGETS:
            got = backend.capped_average_scores(radii, target)
            fresh = profile_backend(name, points).capped_average_scores(
                radii, target)
            assert got.tobytes() == fresh.tobytes(), target
            assert got.tobytes() == ChunkedBackend(
                points).capped_average_scores(radii, target).tobytes()
            if budget is not None:
                assert all(len(cache) == 1
                           for cache in profile_caches(backend)), target
        if budget is None:
            distinct = len(set(PROFILE_TARGETS))
            assert [len(cache) for cache in profile_caches(backend)] == (
                [distinct, 3 * distinct] if name == "sharded"
                else [distinct])

    @pytest.mark.slow
    @pytest.mark.parametrize("budget", [None, 1])
    def test_pool_target_sequence_matches_fresh_backends(self, budget,
                                                         monkeypatch):
        """The same sequence on a 2-worker pool (the patched budget reaches
        the workers, which fork after it is set)."""
        if budget is not None:
            monkeypatch.setattr(base_module, "DEFAULT_MEMORY_BUDGET", budget)
        points = DATASETS["duplicates"]
        radii = radii_for(points)
        with profile_backend("sharded", points, workers=2) as pool:
            for target in PROFILE_TARGETS:
                got = pool.capped_average_scores(radii, target)
                fresh = profile_backend("sharded", points)
                assert got.tobytes() == fresh.capped_average_scores(
                    radii, target).tobytes(), target
            assert pool.pool_stats()["parallel"], (
                "pool fell back to serial; seam untested")

    @pytest.mark.parametrize("name", [
        "chunked", pytest.param("tree", marks=pytest.mark.needs_scipy)])
    def test_return_to_cached_target_reuses_array(self, name, monkeypatch):
        """In-process, a return to a cached target hands back the cached
        array without reading the statistic again."""
        backend = BACKENDS[name](DATASETS["random-2d"])
        first = backend._profile_values(40)
        second = backend._profile_values(20)

        def unexpected(k):
            raise AssertionError(f"_truncated_squared({k}) was read again")

        monkeypatch.setattr(backend, "_truncated_squared", unexpected)
        assert backend._profile_values(40) is first
        assert backend._profile_values(20) is second

    def test_caches_stay_within_budget(self, monkeypatch):
        """After more targets than the budget holds, each cache holds at
        most the budget's bytes, or exactly one entry, and has evicted."""
        budget = 20_000
        monkeypatch.setattr(base_module, "DEFAULT_MEMORY_BUDGET", budget)
        points = np.random.default_rng(4).uniform(size=(200, 2))
        radii = np.linspace(0.0, 1.5, 24)
        backends = [ChunkedBackend(points),
                    ShardedBackend(points, num_shards=3, num_workers=0)]
        targets = range(20, 201, 10)
        for target in targets:
            for backend in backends:
                backend.capped_average_scores(radii, target)
                for cache in profile_caches(backend):
                    assert cache.nbytes <= budget or len(cache) == 1, target
        for backend in backends:
            for cache in profile_caches(backend):
                assert 1 <= len(cache) < len(targets)

    def test_least_recently_used_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(base_module, "DEFAULT_MEMORY_BUDGET", 3 * 80)
        cache = ProfileCache()
        for key in "abc":
            cache.put(key, np.zeros(10))          # 80 bytes each
        assert cache.get("a") is not None         # now the most recent
        cache.put("d", np.zeros(10))
        assert cache.get("b") is None
        assert all(cache.get(key) is not None for key in "acd")
        assert cache.nbytes == 3 * 80
        cache.put("a", np.zeros(5))               # replaced, not added
        assert len(cache) == 3 and cache.nbytes == 2 * 80 + 40
        big = (np.zeros(100), np.zeros(1))        # over the budget alone
        cache.put("big", big)
        assert len(cache) == 1 and cache.get("big") is big
        assert cache.nbytes == 808
        cache.put("e", np.zeros(10))
        assert len(cache) == 1 and cache.get("big") is None
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0


class TestSelectionAndConfig:
    def test_auto_backend_sharded_regime(self, monkeypatch):
        # Without scipy the tree is never picked: chunked is the fallback.
        low_dimensional = "tree" if HAVE_SCIPY_TREE else "chunked"
        assert auto_backend(100, 2) == "chunked"
        assert auto_backend(50000, 2) == low_dimensional
        monkeypatch.setattr(neighbors, "_available_cpus", lambda: 8)
        assert auto_backend(200000, 2) == "sharded"
        assert auto_backend(200000, 100) == "sharded"
        monkeypatch.setattr(neighbors, "_available_cpus", lambda: 1)
        assert auto_backend(200000, 2) == low_dimensional

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
                                backend="chunked")
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
