"""Memory guards for the shard-side rotated stage and the bounded merge.

Two promises from the steps 8-11 migration are checked here with real
numbers rather than code inspection:

* at ``n >= 20k`` the *parent* process never materialises an ``O(n * d)``
  (or ``O(|selected| * d)``) rotated copy while GoodCenter runs steps 8-11
  over a pooled sharded backend — tracemalloc sees only the parent, which is
  exactly the asymmetry the shard-side plans buy;
* the heaviest-cell partition search's parent scratch is bounded by
  ``shards * top_k`` candidate cells per attempt, with the exact-recount
  certification keeping the returned maxima bitwise equal to the full merge
  even when the global argmax is in *no* shard's top-k;
* GoodRadius over a pooled sharded backend never brings the ``(n, t)``
  truncated statistic into the parent: the shards keep it, and the
  parent's profile state is ``O(t)``.

Marked ``slow`` (n = 20k work + a real worker pool): these run in the
dedicated ``-m slow`` CI job, not the tier-1 loop.
"""

import tracemalloc

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.core.config import GoodCenterConfig
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.datasets.synthetic import planted_cluster
from repro.neighbors import ChunkedBackend, ShardedBackend


@pytest.mark.slow
class TestRotatedStageMemoryGuard:
    """Parent peak allocation during a full good_center call, n = 20k."""

    N = 20000
    D = 8
    TARGET = 10000

    @pytest.fixture(scope="class")
    def big_cluster(self):
        return planted_cluster(n=self.N, d=self.D, cluster_size=12000,
                               cluster_radius=0.05, center=[0.5] * self.D,
                               rng=3).points

    def _run(self, points, backend):
        # jl_constant=0.3 forces the JL + rotated-axis path at d=8.
        config = GoodCenterConfig(jl_constant=0.3)
        backend.radius_counts(0.01)      # warm the pool outside the window
        tracemalloc.start()
        try:
            result = good_center(points, radius=0.05, target=self.TARGET,
                                 params=PrivacyParams(8.0, 1e-5),
                                 config=config, rng=5, backend=backend)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_parent_never_holds_rotated_copy(self, big_cluster):
        points = big_cluster
        # Holding the selected set's rotation alone would cost this much;
        # an in-parent stage also holds the label matrix and membership
        # arrays, several such multiples.
        rotated_copy_bytes = self.TARGET * self.D * 8

        with ShardedBackend(points, num_shards=4, num_workers=2) as backend:
            result, parent_peak = self._run(points, backend)
        assert result.found
        assert result.projected_dimension < self.D     # rotated stage ran
        assert result.captured_count >= self.TARGET
        assert parent_peak < rotated_copy_bytes / 2, (
            f"parent peaked at {parent_peak / 1e6:.2f} MB"
        )


@pytest.mark.slow
class TestProfileMemoryGuard:
    """Parent peak allocation during a full good_radius call on a 2-worker
    pool: the parent commit gathered the ``(n, t)`` statistic there."""

    N = 6000
    D = 16

    def test_parent_never_holds_the_statistic(self):
        points = planted_cluster(n=self.N, d=self.D,
                                 cluster_size=int(0.6 * self.N),
                                 cluster_radius=0.05, rng=4).points
        target = self.N // 2
        with ShardedBackend(points, num_shards=2, num_workers=2) as backend:
            backend.radius_counts(0.01)      # warm the pool outside the window
            tracemalloc.start()
            try:
                result = good_radius(points, target, PrivacyParams(1.0, 1e-6),
                                     rng=5, backend=backend)
                _, parent_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            chunked = good_radius(points, target, PrivacyParams(1.0, 1e-6),
                                  rng=5, backend="chunked")
        assert result == chunked
        statistic_bytes = 8 * self.N * target
        assert parent_peak < statistic_bytes / 10, (
            f"parent peaked at {parent_peak / 1e6:.2f} MB"
        )


class TestHeaviestCellMergeGuard:
    """The bounded top-K merge: bounded worker returns, exact maxima.

    Small-n and serial, so it stays in the tier-1 loop (unlike the 20k
    tracemalloc guard above)."""

    @staticmethod
    def adversarial_points():
        """Two shards whose *global* heaviest cell is in neither shard's
        top-2: cell [0, 1) holds 5 points in each shard (10 globally) while
        six per-shard filler cells hold 6 each."""
        shard1 = np.concatenate([
            np.full(5, 0.5),
            np.repeat(np.arange(1, 7) + 0.5, 6),
        ])
        shard2 = np.concatenate([
            np.full(5, 0.5),
            np.repeat(np.arange(11, 17) + 0.5, 6),
        ])
        return np.concatenate([shard1, shard2]).reshape(-1, 1)

    def test_worker_returns_bounded_by_top_k(self):
        points = self.adversarial_points()
        backend = ShardedBackend(points, num_shards=2, num_workers=0)
        shifts = np.zeros((1, 1))
        for top_k in (1, 2, 4):
            for shard in range(2):
                [results] = backend._shards.execute_plan(
                    shard, [(None, None, None)], [],
                    [("heaviest_cell_counts", 0, None, (1.0, shifts, top_k))],
                )
                labels, counts, cap = results[0]
                assert labels.shape[0] <= top_k
                assert counts.shape[0] <= top_k
                # The cap bounds every truncated cell: nothing this shard
                # dropped can exceed its k-th largest kept count.
                assert cap == 0 or cap <= counts.min()

    def test_recount_certifies_global_argmax_outside_every_top_k(self):
        points = self.adversarial_points()
        reference = ChunkedBackend(points).view().heaviest_cell_counts(
            1.0, np.zeros((1, 1))
        )
        assert reference[0] == 10      # the split cell, heaviest only merged
        backend = ShardedBackend(points, num_shards=2, num_workers=0)
        calls = []
        original = backend._dispatch

        def spy(tasks):
            # Every batch — the plan's own, then each later round — is
            # (shard, plan bundle) tasks carrying one query; record which.
            assert all(len(task) == 2 and len(task[1]) == 3
                       for task in tasks)
            calls.append(tasks[0][1][2][0][0])
            return original(tasks)

        backend._dispatch = spy
        backend.HEAVIEST_CELL_TOP_K = 2
        got = backend.view().heaviest_cell_counts(1.0, np.zeros((1, 1)))
        assert np.array_equal(got, reference)
        # Round 1 (top-2 lists, inside the plan's own task, + recount)
        # cannot certify — the filler-cell best (6) is below the cap bound
        # (12) — so the merge must have escalated into at least a second
        # heaviest-cells round.
        assert calls[0] == "heaviest_cell_counts"  # the plan's own task
        rounds = calls[1:]
        assert rounds.count("count_labels") >= 1
        assert rounds.count("heaviest_cell_counts") >= 1

    def test_round_one_certificate_skips_recount(self):
        """A dominant cell every shard lists has an exact round-1 count
        above every other cell's upper bound and above the cap sum, so the
        merge settles without a recount fan-out even though both shards
        truncated."""
        def shard(fillers):
            # 20 points in cell [0, 1), six filler cells of 2 points each.
            return np.concatenate([np.full(20, 0.5),
                                   np.repeat(fillers + 0.5, 2)])

        points = np.concatenate([shard(np.arange(1, 7)),
                                 shard(np.arange(11, 17))]).reshape(-1, 1)
        shifts = np.array([[0.0], [0.1], [0.3]])
        reference = ChunkedBackend(points).view().heaviest_cell_counts(
            1.0, shifts
        )
        assert reference.tolist() == [40, 40, 40]
        backend = ShardedBackend(points, num_shards=2, num_workers=0)
        backend.HEAVIEST_CELL_TOP_K = 2      # both shards truncate (cap 2)
        calls = []
        original = backend._dispatch

        def spy(tasks):
            calls.append(tasks[0][1][2][0][0])
            return original(tasks)

        backend._dispatch = spy
        before = backend.pool_stats()["fanouts"]
        got = backend.view().heaviest_cell_counts(1.0, shifts)
        assert np.array_equal(got, reference)
        # Only the plan's own task: no count_labels (or any later) round.
        assert calls == ["heaviest_cell_counts"]
        assert backend.pool_stats()["fanouts"] - before == 1

    @pytest.mark.parametrize("top_k", [None, 1, 2, 3, 64])
    def test_bounded_merge_bitwise_equal_on_random_data(self, top_k):
        rng = np.random.default_rng(11)
        points = rng.uniform(0, 30, size=(400, 2))
        shifts = rng.uniform(0, 1.0, size=(5, 2))
        reference = ChunkedBackend(points).view().heaviest_cell_counts(
            1.0, shifts
        )
        for shards in (1, 2, 5):
            backend = ShardedBackend(points, num_shards=shards, num_workers=0)
            backend.HEAVIEST_CELL_TOP_K = top_k
            got = backend.view().heaviest_cell_counts(1.0, shifts)
            assert np.array_equal(got, reference), (shards, top_k)
