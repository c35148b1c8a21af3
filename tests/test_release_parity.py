"""Seeded release-parity regression tests.

The repo's central invariant: the neighbor-backend choice is *pure
performance* — at a fixed seed, every private release is bit-identical
whether the distance/grid-hash queries run through an in-process backend or
merged across shards.  These tests pin that contract for the end-to-end
algorithms (``good_center`` on both projection paths, ``good_radius``,
``one_cluster``) by comparing each named backend against the ``"dense"``
reference — the base serial view and plan evaluator — at fixed seeds; the
low-level query parity behind it is covered property-style in
``test_parity_properties.py``, and ``test_release_golden.py`` pins the
reference's own bytes.
"""

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.core.config import GoodCenterConfig, OneClusterConfig
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
                                    params=LOOSE, rng=seed, backend="dense")
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
                                    rng=seed, backend="dense")
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
                                backend="dense")
        for batch in (1, 3, 16):
            backend = ShardedBackend(points, num_shards=3, num_workers=0)
            backend.HEAVIEST_CELL_BATCH = batch
            assert backend.view().batch_size == batch
            result = good_center(points, radius=0.1, target=700,
                                 params=GENEROUS, config=JL_CONFIG, rng=2,
                                 backend=backend)
            assert_same_center_release(reference, result)


class TestRotatedStageMigration:
    """Steps 8-11 run as masked aggregates over a label-predicate selection
    (merged per-axis histograms, NoisyAVG from merged exact-sum
    statistics).  The merged statistics are canonical (exact fixed-point
    sums, first-occurrence histogram order), so every backend releases the
    dense reference's bytes — including on the NoisyAVG abstain branch."""

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
                                backend="dense")
        assert not reference.found
        # Sanity: only the starved NoisyAVG slice makes this seed fail.
        control = good_center(points, radius=0.1, target=700, params=GENEROUS,
                              config=JL_CONFIG, rng=4, backend="dense")
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
                                backend="dense")
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
                                backend="dense")
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

    def test_config_backend_selection_identical(self, small_cluster_data):
        """Selecting the backend through OneClusterConfig releases the same
        ball as the explicit backend= argument."""
        points = small_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        reference = one_cluster(points, target=250, params=params, rng=9,
                                backend="chunked")
        config = OneClusterConfig(neighbor_backend="chunked")
        result = one_cluster(points, target=250, params=params, rng=9,
                             config=config)
        assert result.found == reference.found
        if reference.found:
            assert np.array_equal(result.ball.center, reference.ball.center)
            assert result.ball.radius == reference.ball.radius
