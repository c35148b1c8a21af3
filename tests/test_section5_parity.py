"""Bitwise release parity for the Section-5/6 backend threading (PR 10).

Sample-and-aggregate, the quasi-concave depth selection, and the IntPoint
reduction now route their block/score evaluations through the
``NeighborBackend``/``QueryPlan`` stack.  These tests pin the contract that
made the threading admissible: for every backend — parent-side ``None``,
tree, serial-sharded, and (slow tier) a real 2-worker sharded pool — the
*released* values are bitwise identical, and the plan/fan-out accounting
shows the pipelined paths submit exactly the expected plans over one
long-lived backend (no silent per-trial rebuilds).  Mirrors the seeded
comparison pattern of ``tests/test_release_parity.py``.
"""

import math

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.experiments import PipelinedRuns, run_table1
from repro.lowerbound import int_point, interior_depths
from repro.neighbors import HAVE_SCIPY_TREE, QueryPlan, resolve_backend
from repro.neighbors.base import depth_count_pairs
from repro.neighbors.sharded import ShardedBackend
from repro.sample_aggregate import (
    BlockMean,
    component_assignment,
    empirical_stability,
    private_mean_estimator,
)


@pytest.fixture
def gaussian_points():
    rng = np.random.default_rng(0)
    return rng.normal(loc=[0.4, 0.6], scale=0.05, size=(6000, 2))


@pytest.fixture
def line_values():
    rng = np.random.default_rng(1)
    return np.sort(rng.normal(500.0, 40.0, size=400))


PARAMS = PrivacyParams(12.0, 1e-4)
SA_KWARGS = dict(alpha=0.8, subsample_fraction=1.0 / 3.0)


def sa_backends(points):
    """The fast-tier backend sweep: tree (where scipy is installed) and
    serial-sharded instances."""
    backends = [ShardedBackend(points, num_shards=3, num_workers=0)]
    if HAVE_SCIPY_TREE:
        backends.insert(0, resolve_backend(points, "tree"))
    return backends


class TestSampleAggregateParity:
    def test_release_bitwise_across_backends(self, gaussian_points):
        base = private_mean_estimator(gaussian_points, 10, PARAMS, rng=1,
                                      **SA_KWARGS)
        assert base.found
        for backend in sa_backends(gaussian_points):
            result = private_mean_estimator(gaussian_points, 10, PARAMS,
                                            backend=backend, rng=1, **SA_KWARGS)
            assert result.found
            assert np.array_equal(result.point, base.point)
            assert result.target == base.target
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    @pytest.mark.needs_scipy
    def test_backend_name_matches_parent_path(self, gaussian_points):
        base = private_mean_estimator(gaussian_points, 10, PARAMS, rng=1,
                                      **SA_KWARGS)
        named = private_mean_estimator(gaussian_points, 10, PARAMS,
                                       backend="tree", rng=1, **SA_KWARGS)
        assert np.array_equal(named.point, base.point)

    @pytest.mark.slow
    def test_release_bitwise_on_worker_pool(self, gaussian_points):
        base = private_mean_estimator(gaussian_points, 10, PARAMS, rng=1,
                                      **SA_KWARGS)
        backend = ShardedBackend(gaussian_points, num_shards=4, num_workers=2)
        try:
            result = private_mean_estimator(gaussian_points, 10, PARAMS,
                                            backend=backend, rng=1, **SA_KWARGS)
        finally:
            backend.close()
        assert np.array_equal(result.point, base.point)

    def test_stability_distances_bitwise(self, gaussian_points):
        candidate = np.array([0.4, 0.6])
        base = empirical_stability(gaussian_points, BlockMean(), candidate,
                                   10, 0.1, repetitions=15, rng=5)
        for backend in sa_backends(gaussian_points):
            estimate = empirical_stability(gaussian_points, BlockMean(),
                                           candidate, 10, 0.1, repetitions=15,
                                           backend=backend, rng=5)
            assert np.array_equal(estimate.distances, base.distances)
            assert estimate.probability == base.probability
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    def test_block_mean_matches_masked_sum_plan(self, gaussian_points):
        """The two BlockMean paths are the same exact sum, bit for bit."""
        analysis = BlockMean()
        backend = ShardedBackend(gaussian_points, num_shards=3, num_workers=0)
        rows = np.random.default_rng(2).integers(0, gaussian_points.shape[0],
                                                 size=25)
        plan = QueryPlan()
        token = analysis.compile(plan, backend.view(), rows)
        planned = analysis.resolve(backend.execute(plan), token, rows.size)
        assert np.array_equal(planned, analysis(gaussian_points[rows]))

    def test_component_assignment_matches_dense_broadcast(self):
        for trial in range(10):
            rng = np.random.default_rng(trial)
            block = rng.normal(size=(150, 3))
            centers = rng.normal(size=(4, 3))
            dense = np.argmin(
                np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2),
                axis=1,
            )
            assert np.array_equal(component_assignment(block, centers), dense)


class TestSampleAggregateAccounting:
    def test_one_plan_per_block_no_rebuilds(self, gaussian_points):
        """Every subsample block is exactly one plan = one fan-out =
        ``num_shards`` shard tasks on the caller's long-lived backend."""
        backend = ShardedBackend(gaussian_points, num_shards=3, num_workers=0)
        before = backend.pool_stats()
        result = private_mean_estimator(gaussian_points, 10, PARAMS,
                                        backend=backend, rng=1, **SA_KWARGS)
        after = backend.pool_stats()
        num_blocks = result.num_blocks
        assert after["plans"] - before["plans"] == num_blocks
        assert after["fanouts"] - before["fanouts"] == num_blocks
        assert after["shard_tasks"] - before["shard_tasks"] == num_blocks * 3


class TestLowerBoundParity:
    def test_interior_depths_matches_naive_counts(self, line_values):
        thresholds = np.linspace(line_values.min() - 1.0,
                                 line_values.max() + 1.0, 41)
        naive = np.array([
            min(float(np.count_nonzero(line_values <= t)),
                float(np.count_nonzero(line_values >= t)))
            for t in thresholds
        ])
        assert np.array_equal(interior_depths(line_values, thresholds), naive)

    def test_depth_counts_plan_matches_helper(self, line_values):
        column = line_values.reshape(-1, 1)
        thresholds = np.linspace(line_values.min(), line_values.max(), 9)
        expected = depth_count_pairs(line_values, thresholds)
        for backend in sa_backends(column):
            plan = QueryPlan()
            slot = plan.depth_counts(thresholds)
            assert np.array_equal(backend.execute(plan)[slot], expected)
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    def test_int_point_release_bitwise_across_backends(self, line_values):
        params = PrivacyParams(2.0, 1e-6)
        base = int_point(line_values, 200, params, rng=7)
        for backend in sa_backends(line_values.reshape(-1, 1)):
            result = int_point(line_values, 200, params, backend=backend,
                               rng=7)
            assert result.value == base.value
            assert result.candidate_count == base.candidate_count
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    def test_int_point_depth_selection_is_one_plan(self, line_values):
        """Step 4 scores every endpoint with one plan on the caller's
        instance; the cluster solver builds its own backend."""
        backend = ShardedBackend(line_values.reshape(-1, 1), num_shards=3,
                                 num_workers=0)
        before = backend.pool_stats()["plans"]
        result = int_point(line_values, 200, PrivacyParams(2.0, 1e-6),
                           backend=backend, rng=7)
        assert not result.is_zero_radius
        assert backend.pool_stats()["plans"] - before == 1

    @pytest.mark.slow
    def test_int_point_release_bitwise_on_worker_pool(self, line_values):
        params = PrivacyParams(2.0, 1e-6)
        base = int_point(line_values, 200, params, rng=7)
        backend = ShardedBackend(line_values.reshape(-1, 1), num_shards=4,
                                 num_workers=2)
        try:
            result = int_point(line_values, 200, params, backend=backend,
                               rng=7)
        finally:
            backend.close()
        assert result.value == base.value


def _strip_seconds(rows):
    return [{key: value for key, value in row.items()
             if "seconds" not in key} for row in rows]


def _rows_equal(left, right):
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if set(a) != set(b):
            return False
        for key in a:
            va, vb = a[key], b[key]
            if (isinstance(va, float) and isinstance(vb, float)
                    and math.isnan(va) and math.isnan(vb)):
                continue
            if va != vb:
                return False
    return True


class TestPipelinedTable1:
    @pytest.mark.needs_scipy
    def test_rows_byte_identical_across_backends(self):
        base = run_table1(n=400, repetitions=2, rng=3, backend="tree")
        with PipelinedRuns("sharded",
                           options={"num_shards": 3, "num_workers": 0}) as runs:
            sharded = run_table1(n=400, repetitions=2, rng=3, runs=runs)
        assert _rows_equal(_strip_seconds(base), _strip_seconds(sharded))

    @pytest.mark.slow
    @pytest.mark.needs_scipy
    def test_rows_byte_identical_on_worker_pool(self):
        base = run_table1(n=400, repetitions=2, rng=3, backend="tree")
        with PipelinedRuns("sharded",
                           options={"num_shards": 4, "num_workers": 2}) as runs:
            pooled = run_table1(n=400, repetitions=2, rng=3, runs=runs)
        assert _rows_equal(_strip_seconds(base), _strip_seconds(pooled))

    def test_one_backend_per_dataset_and_fanout_accounting(self,
                                                          monkeypatch):
        """The pipelined sweep resolves one backend per dataset (points +
        snapped grid per repetition — no silent per-trial rebuilds) and
        issues at most one fan-out of its own per submitted plan."""
        # The fan-outs a plan's own bundle does not account for: the
        # truncated-statistic / streaming-histogram folds and the bounded
        # heaviest-cell merge's extra rounds.
        internal = []

        def counted(method):
            def wrapper(self, *args, **kwargs):
                internal.append(method.__name__)
                return method(self, *args, **kwargs)
            return wrapper

        for name in ("_shard_waves", "_view_round"):
            monkeypatch.setattr(ShardedBackend, name,
                                counted(getattr(ShardedBackend, name)))
        repetitions = 2
        with PipelinedRuns("sharded",
                           options={"num_shards": 3, "num_workers": 0}) as runs:
            rows = run_table1(n=400, repetitions=repetitions, rng=3, runs=runs)
            stats = runs.stats()
        assert len(rows) == 4 * repetitions
        assert runs.num_backends == 0  # closed helpers forget their engines
        assert stats["backends"] == 2 * repetitions
        # Every count query rides a plan (a direct count query is a
        # one-query plan); each plan costs at most one fan-out of its own
        # (the GoodRadius profile is no plan: its fan-outs are among the
        # internal rounds counted above), and every fan-out hits every
        # shard once.
        assert stats["plans"] >= 4 * repetitions  # >= one coverage plan/row
        plan_fanouts = stats["fanouts"] - len(internal)
        assert 0 < plan_fanouts <= stats["plans"]
        assert stats["shard_tasks"] == stats["fanouts"] * 3
