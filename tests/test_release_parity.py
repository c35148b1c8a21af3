"""Seeded release-parity regression tests.

The repo's central invariant: the neighbor-backend choice is *pure
performance* — at a fixed seed, every private release is bit-identical
whether the distance/grid-hash queries run through an in-process backend or
merged across shards.  These tests pin that contract for the end-to-end
algorithms (``good_center`` on both projection paths, ``good_radius``,
``one_cluster``) by comparing each named backend against the ``"chunked"``
reference — the base serial view and plan evaluator — at fixed seeds; the
low-level query parity behind it is covered property-style in
``test_parity_properties.py``, and ``test_release_golden.py`` pins the
reference's own bytes.
"""

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.core.config import GoodCenterConfig
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.core.one_cluster import one_cluster
from repro.neighbors import ShardedBackend


@pytest.fixture(scope="module")
def jl_cluster_points():
    """A d=8 planted cluster used with a small ``jl_constant`` so GoodCenter
    takes the non-identity (JL + rotated-axis) path."""
    rng = np.random.default_rng(3)
    dimension = 8
    center = np.full(dimension, 0.5)
    cluster = center + rng.normal(0, 0.015, size=(900, dimension))
    noise = rng.uniform(0, 1, size=(300, dimension))
    return np.vstack([cluster, noise])


JL_CONFIG = GoodCenterConfig(jl_constant=0.3)
LOOSE = PrivacyParams(8.0, 1e-5)
GENEROUS = PrivacyParams(16.0, 1e-4)


def assert_same_center_release(reference, other):
    """Bitwise equality of two GoodCenterResults."""
    assert other.found == reference.found
    assert other.attempts == reference.attempts
    assert other.projected_dimension == reference.projected_dimension
    if reference.found:
        assert np.array_equal(other.center, reference.center)
        assert other.radius_bound == reference.radius_bound
        assert other.captured_count == reference.captured_count
    else:
        assert other.center is None
        assert other.radius_bound == float("inf")


class TestGoodCenterReleaseParity:
    def test_identity_path(self, medium_cluster_data, neighbor_backend):
        points = medium_cluster_data.points
        for seed in (0, 7):
            reference = good_center(points, radius=0.05, target=400,
                                    params=LOOSE, rng=seed, backend="chunked")
            assert reference.projected_dimension == points.shape[1]
            result = good_center(points, radius=0.05, target=400,
                                 params=LOOSE, rng=seed,
                                 backend=neighbor_backend(points))
            assert_same_center_release(reference, result)

    def test_jl_path(self, jl_cluster_points, neighbor_backend):
        points = jl_cluster_points
        for seed in (1, 4):
            reference = good_center(points, radius=0.1, target=700,
                                    params=GENEROUS, config=JL_CONFIG,
                                    rng=seed, backend="chunked")
            assert reference.projected_dimension < points.shape[1]
            result = good_center(points, radius=0.1, target=700,
                                 params=GENEROUS, config=JL_CONFIG, rng=seed,
                                 backend=neighbor_backend(points))
            assert_same_center_release(reference, result)

    def test_view_batch_size_is_invisible(self, jl_cluster_points):
        """Releases are independent of the view batch size (the shift and
        AboveThreshold-noise streams are split precisely so batched lookahead
        cannot reorder any draw)."""
        points = jl_cluster_points
        reference = good_center(points, radius=0.1, target=700,
                                params=GENEROUS, config=JL_CONFIG, rng=2,
                                backend="chunked")
        for batch in (1, 3, 16):
            backend = ShardedBackend(points, num_shards=3, num_workers=0)
            backend.HEAVIEST_CELL_BATCH = batch
            assert backend.view().batch_size == batch
            result = good_center(points, radius=0.1, target=700,
                                 params=GENEROUS, config=JL_CONFIG, rng=2,
                                 backend=backend)
            assert_same_center_release(reference, result)

    @pytest.mark.slow
    def test_doubling_batch_on_a_worker_pool(self, medium_cluster_data):
        """The search's doubling batches on a real 2-worker pool with
        speculation on.  Each search takes at least 4 attempts, so its 1-,
        2- and 4-partition requests run while a speculative step-7
        histogram may be in flight; the release is still chunked's."""
        points = medium_cluster_data.points
        kwargs = dict(radius=0.05, target=400, params=LOOSE)
        with ShardedBackend(points, num_shards=2, num_workers=2) as backend:
            assert backend.supports_speculation
            for seed in (2, 5):
                reference = good_center(points, rng=seed, backend="chunked",
                                        **kwargs)
                assert reference.attempts >= 4
                result = good_center(points, rng=seed, backend=backend,
                                     **kwargs)
                assert_same_center_release(reference, result)
            stats = backend.pool_stats()
        assert stats["parallel"], "pool fell back to serial; path untested"
        assert "search->box" in stats["speculation"]


class TestRotatedStageMigration:
    """Steps 8-11 run as masked aggregates over a label-predicate selection
    (merged per-axis histograms, NoisyAVG from merged exact-sum
    statistics).  The merged statistics are canonical (exact fixed-point
    sums, first-occurrence histogram order), so every backend releases the
    chunked reference's bytes — including on the NoisyAVG abstain branch."""

    def test_noisy_avg_abstain_branch_parity(self, jl_cluster_points,
                                             neighbor_backend):
        """Starving NoisyAVG's budget slice makes its pessimistic count go
        non-positive, so GoodCenter reaches step 11 and abstains.  The
        abstain decision depends on the merged selected count and the
        Laplace draw — both must match the reference bit for bit."""
        starved = GoodCenterConfig(jl_constant=0.3,
                                   budget_split=(0.4, 0.4, 0.15, 0.001))
        points = jl_cluster_points
        reference = good_center(points, radius=0.1, target=700,
                                params=GENEROUS, config=starved, rng=4,
                                backend="chunked")
        assert not reference.found
        # Sanity: only the starved NoisyAVG slice makes this seed fail.
        control = good_center(points, radius=0.1, target=700, params=GENEROUS,
                              config=JL_CONFIG, rng=4, backend="chunked")
        assert control.found
        result = good_center(points, radius=0.1, target=700,
                             params=GENEROUS, config=starved, rng=4,
                             backend=neighbor_backend(points))
        assert_same_center_release(reference, result)


class TestGoodRadiusReleaseParity:
    def test_release_identical(self, small_cluster_data, loose_params,
                               neighbor_backend):
        points = small_cluster_data.points
        reference = good_radius(points, 200, loose_params, rng=11,
                                backend="chunked")
        result = good_radius(points, 200, loose_params, rng=11,
                             backend=neighbor_backend(points))
        assert result.radius == reference.radius
        assert result.score == reference.score
        assert result.zero_cluster == reference.zero_cluster


class TestOneClusterReleaseParity:
    def test_release_identical(self, small_cluster_data, neighbor_backend):
        points = small_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        reference = one_cluster(points, target=250, params=params, rng=4,
                                backend="chunked")
        result = one_cluster(points, target=250, params=params, rng=4,
                             backend=neighbor_backend(points))
        assert result.found == reference.found
        assert (result.radius_result.radius
                == reference.radius_result.radius)
        assert_same_center_release(reference.center_result,
                                   result.center_result)
        if reference.found:
            assert np.array_equal(result.ball.center, reference.ball.center)
            assert result.ball.radius == reference.ball.radius
