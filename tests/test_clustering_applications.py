"""Tests for the downstream applications: k-clustering and outlier screening."""

import numpy as np
import pytest

from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.clustering.k_cluster import k_cluster
from repro.clustering.outliers import outlier_ball
from repro.datasets.synthetic import clustered_with_outliers, gaussian_blobs


class TestKCluster:
    def test_covers_well_separated_blobs(self):
        points, labels, centers = gaussian_blobs(n=1500, d=2, k=3, spread=0.02,
                                                 rng=0)
        params = PrivacyParams(12.0, 1e-5)
        result = k_cluster(points, k=3, params=params, rng=1)
        assert result.num_found >= 2
        assert result.covered_fraction >= 0.5

    def test_single_cluster_degenerates_to_one_cluster(self):
        points, _, centers = gaussian_blobs(n=800, d=2, k=1, spread=0.02, rng=2)
        params = PrivacyParams(8.0, 1e-5)
        result = k_cluster(points, k=1, params=params, rng=3)
        assert result.num_found == 1
        assert np.linalg.norm(result.balls[0].center - centers[0]) <= 0.3

    def test_respects_k_rounds(self):
        points, _, _ = gaussian_blobs(n=900, d=2, k=2, spread=0.02, rng=4)
        params = PrivacyParams(8.0, 1e-5)
        result = k_cluster(points, k=2, params=params, rng=5)
        assert len(result.results) <= 2
        assert result.num_found <= 2

    def test_invalid_k(self):
        points = np.zeros((50, 2))
        with pytest.raises(ValueError):
            k_cluster(points, k=0, params=PrivacyParams(1.0, 1e-6))

    @pytest.mark.parametrize("slack", [-1.0, 0.0, float("nan"),
                                       float("inf")])
    def test_bad_coverage_slack_rejected_before_any_spend(self, slack):
        points, _, _ = gaussian_blobs(n=600, d=2, k=2, spread=0.03, rng=6)
        ledger = PrivacyLedger()
        with pytest.raises(ValueError, match="coverage_slack"):
            k_cluster(points, k=2, params=PrivacyParams(8.0, 1e-5), rng=7,
                      coverage_slack=slack, ledger=ledger)
        assert ledger.entries == []

    def test_results_and_balls_lengths_consistent(self):
        points, _, _ = gaussian_blobs(n=600, d=2, k=2, spread=0.03, rng=6)
        result = k_cluster(points, k=2, params=PrivacyParams(8.0, 1e-5), rng=7)
        assert result.num_found == len(result.balls)
        assert len(result.results) >= result.num_found


class TestKClusterBackends:
    """End-to-end k-clustering across the neighbor backends.

    k_cluster takes every ``backend=`` form (``None``, a name, a class or
    an instance).  It resolves one backend over all the points, runs the
    first iteration on it and each later one on ``backend.subset(rows)``
    over the rows not yet covered, so the ``neighbor_backend`` fixture's
    selection (a serial 3-shard instance for "sharded") is passed straight
    through.
    """

    @staticmethod
    def _run(points, backend, rng=9):
        return k_cluster(points, k=2, params=PrivacyParams(10.0, 1e-5),
                         rng=rng, backend=backend)

    def test_release_identical_across_backends(self, neighbor_backend):
        points, _, _ = gaussian_blobs(n=500, d=2, k=2, spread=0.02, rng=6)
        reference = self._run(points, None)
        result = self._run(points, neighbor_backend(points))
        assert result.num_found == reference.num_found
        assert result.covered_fraction == reference.covered_fraction
        for ball, expected in zip(result.balls, reference.balls):
            assert np.array_equal(ball.center, expected.center)
            assert ball.radius == expected.radius
        assert result.ball_coverages == reference.ball_coverages

    def test_iterations_close_their_backends(self, monkeypatch):
        """The first iteration runs on the caller's instance; each later
        iteration's subset backend is closed before the next iteration
        builds its own, and before k_cluster returns (the sharded pool /
        shared-memory lifecycle gap this test originally exposed: cleanup
        used to ride on GC).  The caller's instance stays open."""
        from repro.neighbors.sharded import ShardedBackend

        built = []
        closed = []
        live_at_build = []
        original_init = ShardedBackend.__init__
        original_close = ShardedBackend.close

        def spy_init(self, *args, **kwargs):
            live_at_build.append(
                [b for b in built[1:] if b not in closed])
            built.append(self)
            return original_init(self, *args, **kwargs)

        def spy_close(self):
            if self not in closed:
                closed.append(self)
            return original_close(self)

        monkeypatch.setattr(ShardedBackend, "__init__", spy_init)
        monkeypatch.setattr(ShardedBackend, "close", spy_close)
        points, _, _ = gaussian_blobs(n=400, d=2, k=2, spread=0.02, rng=8)
        instance = ShardedBackend(points, num_shards=3, num_workers=0)
        result = self._run(points, instance)
        assert len(built) == len(result.results) >= 2
        assert all(live == [] for live in live_at_build)
        assert set(id(b) for b in built[1:]) == set(id(c) for c in closed)
        assert instance not in closed

    @pytest.mark.slow
    def test_two_worker_pool_release_identical(self):
        """A real 2-process pool behind k_cluster: bitwise the serial
        release; each later iteration's subset starts and closes its own
        pool."""
        from repro.neighbors.sharded import ShardedBackend

        points, _, _ = gaussian_blobs(n=500, d=2, k=2, spread=0.02, rng=6)
        with ShardedBackend(points, num_shards=2, num_workers=0) as backend:
            serial = self._run(points, backend)
        with ShardedBackend(points, num_shards=2, num_workers=2) as backend:
            pooled = self._run(points, backend)
        assert pooled.num_found == serial.num_found
        assert pooled.covered_fraction == serial.covered_fraction
        for ball, expected in zip(pooled.balls, serial.balls):
            assert np.array_equal(ball.center, expected.center)
            assert ball.radius == expected.radius
        assert pooled.ball_coverages == serial.ball_coverages


class TestOutlierScreen:
    def test_flags_injected_outliers(self):
        points, is_outlier = clustered_with_outliers(n=1200, d=2,
                                                     outlier_fraction=0.1, rng=0)
        params = PrivacyParams(8.0, 1e-5)
        screen = outlier_ball(points, params, inlier_fraction=0.85, rng=1)
        assert screen.found
        flagged = screen.outlier_mask(points)
        recall = np.count_nonzero(flagged & is_outlier) / np.count_nonzero(is_outlier)
        assert recall >= 0.5

    def test_predicate_is_postprocessing(self):
        points, _ = clustered_with_outliers(n=800, d=2, outlier_fraction=0.1, rng=2)
        params = PrivacyParams(8.0, 1e-5)
        screen = outlier_ball(points, params, inlier_fraction=0.85, rng=3)
        # The predicate can be evaluated on arbitrary new points.
        fresh = np.random.default_rng(4).uniform(size=(100, 2))
        mask = screen.predicate(fresh)
        assert mask.shape == (100,)

    def test_guaranteed_mode_uses_larger_ball(self):
        points, _ = clustered_with_outliers(n=800, d=2, outlier_fraction=0.1, rng=5)
        params = PrivacyParams(8.0, 1e-5)
        effective = outlier_ball(points, params, inlier_fraction=0.85,
                                 radius_mode="effective", rng=6)
        guaranteed = outlier_ball(points, params, inlier_fraction=0.85,
                                  radius_mode="guaranteed", rng=6)
        if effective.found and guaranteed.found:
            assert guaranteed.ball.radius >= effective.ball.radius

    def test_invalid_radius_mode(self):
        points = np.zeros((50, 2))
        with pytest.raises(ValueError):
            outlier_ball(points, PrivacyParams(1.0, 1e-6), radius_mode="bogus")

    def test_unfound_screen_keeps_everything(self):
        points, _ = clustered_with_outliers(n=400, d=2, outlier_fraction=0.1, rng=7)
        screen = outlier_ball(points, PrivacyParams(0.01, 1e-9), rng=8)
        if not screen.found:
            assert np.all(screen.predicate(points))
