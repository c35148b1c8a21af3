"""The fused query-plan layer: parity, memoisation, and fan-out accounting.

Three contracts are pinned here:

* **Plan parity.**  ``backend.execute(plan)`` returns, slot for slot,
  exactly what the corresponding direct method calls return — on every
  backend, because the serial evaluator *is* the direct calls and the
  sharded path reuses the per-query shard partials and shard-order merges.
* **One round trip per shard.**  On the sharded backend a whole plan is a
  single ``execute_plan`` task per shard, counted by the ``pool_stats()``
  instrumentation; ``good_center``'s stages (the partition-search batch,
  the step-7 histogram, the step-9 axis histograms, the steps-10-11
  NoisyAVG statistics) each cost exactly one fan-out.
* **Async determinism.**  ``submit`` overlaps plans without moving a bit:
  futures resolve to the same values as synchronous ``execute`` no matter
  how many are in flight or in which order they are resolved, and
  ``good_center``'s speculative plans (hit or miss) leave its releases
  bitwise those of the unspeculated run.
"""

import sys

import numpy as np
import pytest

import repro.neighbors.sharded as sharded_module
from repro.accounting.params import PrivacyParams
from repro.clustering.k_cluster import k_cluster
from repro.core.config import GoodCenterConfig
from repro.core.good_center import good_center
from repro.core.good_radius import RadiusScore
from repro.experiments.harness import (
    coverage_counts_result,
    submit_coverage_counts,
)
from repro.geometry.boxes import box_labels
from repro.geometry.jl import project_rows
from repro.neighbors import (
    BACKENDS,
    DenseBackend,
    PlanFuture,
    QueryPlan,
    ShardedBackend,
)

good_center_module = sys.modules["repro.core.good_center"]


def make_backend(name, points, shards=3):
    if name == "sharded":
        return ShardedBackend(points, num_shards=shards, num_workers=0)
    return BACKENDS[name](points)


@pytest.fixture(scope="module")
def plan_fixture():
    """A dataset with two non-identity views, a heavy box, and a selection."""
    rng = np.random.default_rng(7)
    points = rng.normal(size=(220, 6))
    matrix = rng.normal(size=(3, 6))
    basis = rng.normal(size=(6, 6))
    width = 0.9
    shifts = rng.uniform(0.0, width, size=3)
    labels = box_labels(project_rows(points, matrix), shifts, width)
    unique, counts = np.unique(labels, axis=0, return_counts=True)
    chosen = unique[int(np.argmax(counts))]
    rows = np.flatnonzero(np.all(labels == chosen[None, :], axis=1))
    return {
        "points": points, "matrix": matrix, "basis": basis, "width": width,
        "shifts": shifts, "chosen": chosen, "rows": rows,
        "center": project_rows(points, basis)[rows].mean(axis=0),
    }


def build_plan(backend, fx):
    """One plan exercising every operation; returns (plan, slots, views)."""
    search = backend.view(fx["matrix"])
    frame = backend.view(fx["basis"])
    selection = search.box_selection(fx["width"], fx["shifts"], fx["chosen"])
    batch = np.stack([fx["shifts"], fx["shifts"] + 0.13])
    plan = QueryPlan()
    slots = {
        "sum": plan.masked_sum(frame, selection),
        "clipped": plan.masked_clipped_sum(frame, selection, fx["center"],
                                           1.5),
        "hists": plan.masked_axis_histograms(frame, selection, 0.4),
        "heaviest": plan.heaviest_cell_counts(search, fx["width"], batch),
        "cell": plan.cell_histogram(search, fx["width"], fx["shifts"]),
        "grid": plan.count_within_many(fx["points"][:5], [0.4, 1.1]),
        "scores": plan.capped_average_scores([0.3, 0.8], 40),
    }
    return plan, slots, (search, frame, selection)


def reference_results(fx):
    """The direct-call reference, computed on the dense backend."""
    backend = DenseBackend(fx["points"])
    search = backend.view(fx["matrix"])
    frame = backend.view(fx["basis"])
    rows = fx["rows"]
    batch = np.stack([fx["shifts"], fx["shifts"] + 0.13])
    return {
        "sum": frame.masked_sum(rows),
        "clipped": frame.masked_clipped_sum(rows, fx["center"], 1.5),
        "hists": frame.masked_axis_histograms(rows, 0.4),
        "heaviest": search.heaviest_cell_counts(fx["width"], batch),
        "cell": search.cell_histogram(fx["width"], fx["shifts"]),
        "grid": backend.count_within_many(fx["points"][:5], [0.4, 1.1]),
        "scores": backend.capped_average_scores([0.3, 0.8], 40),
    }


def assert_matches(key, got, expected):
    if key == "clipped":
        assert got.count == expected.count, key
        assert np.array_equal(got.vector_sum, expected.vector_sum), key
    elif key == "hists":
        for (gl, gc), (el, ec) in zip(got, expected):
            assert np.array_equal(gl, el), key
            assert np.array_equal(gc, ec), key
    elif key == "cell":
        for g, e in zip(got, expected):
            assert np.array_equal(g, e), key
    else:
        assert np.array_equal(got, expected), key


class TestPlanParity:
    """execute(plan) == the direct calls, bitwise, on every backend."""

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_all_ops_match_direct_calls(self, plan_fixture, name):
        expected = reference_results(plan_fixture)
        backend = make_backend(name, plan_fixture["points"])
        plan, slots, _ = build_plan(backend, plan_fixture)
        results = backend.execute(plan)
        assert len(results) == len(plan)
        for key, slot in slots.items():
            assert_matches(key, results[slot], expected[key])

    @pytest.mark.parametrize("shards", (1, 2, 7))
    def test_sharded_shard_count_invisible(self, plan_fixture, shards):
        expected = reference_results(plan_fixture)
        backend = make_backend("sharded", plan_fixture["points"],
                               shards=shards)
        plan, slots, _ = build_plan(backend, plan_fixture)
        results = backend.execute(plan)
        for key, slot in slots.items():
            assert_matches(key, results[slot], expected[key])

    def test_mask_and_row_selections(self, plan_fixture):
        """Boolean-mask and row-multiset selections ride plans too."""
        fx = plan_fixture
        rows = fx["rows"]
        mask = np.zeros(fx["points"].shape[0], dtype=bool)
        mask[rows] = True
        expected = DenseBackend(fx["points"]).view(fx["basis"]).masked_sum(
            rows
        )
        for name in ("dense", "sharded"):
            backend = make_backend(name, fx["points"])
            frame = backend.view(fx["basis"])
            plan = QueryPlan()
            by_mask = plan.masked_sum(frame, mask)
            by_rows = plan.masked_sum(frame, rows)
            results = backend.execute(plan)
            assert np.array_equal(results[by_mask], expected), name
            assert np.array_equal(results[by_rows], expected), name


class TestSubmitDeterminism:
    """Overlapped submission cannot move a bit; resolution order is free."""

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_submit_matches_execute(self, plan_fixture, name):
        backend = make_backend(name, plan_fixture["points"])
        plan, slots, _ = build_plan(backend, plan_fixture)
        synchronous = backend.execute(plan)
        futures = [backend.submit(plan) for _ in range(3)]
        assert all(isinstance(future, PlanFuture) for future in futures)
        # Resolve out of submission order: merge order is shard order, not
        # completion or resolution order, so nothing may change.
        for future in reversed(futures):
            results = future.result()
            for key, slot in slots.items():
                assert_matches(key, results[slot], synchronous[slot])
        # A future's result list is memoised.
        assert futures[0].result() is futures[0].result()
        assert futures[0].done()

    def test_radius_score_submit_overlap(self, plan_fixture):
        """RadiusScore.submit overlaps grids and matches evaluate bitwise."""
        points = plan_fixture["points"]
        score = RadiusScore(points, target=60, backend="chunked")
        grids = [np.linspace(0.0, 2.5, 17), np.linspace(0.1, 1.3, 9)]
        futures = [score.submit(grid) for grid in grids]
        for grid, future in zip(grids, futures):
            assert np.array_equal(future.result()[0], score.evaluate(grid))


class TestPlanValidation:
    def test_foreign_view_rejected(self, plan_fixture):
        points = plan_fixture["points"]
        backend = make_backend("dense", points)
        other = make_backend("chunked", points)
        plan = QueryPlan()
        plan.cell_histogram(other.view(plan_fixture["matrix"]),
                            plan_fixture["width"], plan_fixture["shifts"])
        with pytest.raises(ValueError, match="different backend"):
            backend.execute(plan)
        sharded = make_backend("sharded", points)
        with pytest.raises(ValueError, match="different backend"):
            sharded.execute(plan)

    def test_eager_argument_validation(self, plan_fixture):
        backend = make_backend("dense", plan_fixture["points"])
        view = backend.view(plan_fixture["matrix"])
        plan = QueryPlan()
        with pytest.raises(TypeError):
            plan.masked_sum("not-a-view", [0, 1])
        with pytest.raises(ValueError, match="selection"):
            plan.masked_sum(view, None)
        with pytest.raises(ValueError, match="center"):
            plan.masked_clipped_sum(view, [0, 1], np.zeros(7), 1.0)
        with pytest.raises(ValueError, match="shifts"):
            plan.heaviest_cell_counts(view, 1.0, np.zeros((2, 5)))
        assert len(plan) == 0

    def test_selection_slots_deduplicate_by_identity(self, plan_fixture):
        backend = make_backend("dense", plan_fixture["points"])
        view = backend.view(plan_fixture["matrix"])
        selection = view.box_selection(plan_fixture["width"],
                                       plan_fixture["shifts"],
                                       plan_fixture["chosen"])
        plan = QueryPlan()
        plan.masked_axis_histograms(view, selection, 0.4)
        plan.masked_sum(view, selection)
        plan.masked_sum(view, plan_fixture["rows"])
        assert len(plan.selections) == 2
        assert len(plan.views) == 1


class TestFanOutInstrumentation:
    """pool_stats counters: one round trip per shard per plan."""

    def test_plan_is_one_fanout(self, plan_fixture):
        backend = make_backend("sharded", plan_fixture["points"], shards=4)
        backend.HEAVIEST_CELL_TOP_K = None    # no truncation → no recount
        plan, _, _ = build_plan(backend, plan_fixture)
        before = backend.pool_stats()
        backend.execute(plan)
        after = backend.pool_stats()
        # The bundle is one fan-out; the coordinator op in the plan
        # (capped_average_scores) runs its own internal fan-out (the
        # truncated-statistic build), so the delta is exactly two.
        assert after["plans"] - before["plans"] == 1
        assert after["fanouts"] - before["fanouts"] == 2
        assert after["shard_tasks"] - before["shard_tasks"] == 2 * 4

    def test_bundle_only_plan_is_exactly_one_fanout(self, plan_fixture):
        fx = plan_fixture
        backend = make_backend("sharded", fx["points"], shards=4)
        backend.HEAVIEST_CELL_TOP_K = None
        frame = backend.view(fx["basis"])
        search = backend.view(fx["matrix"])
        selection = search.box_selection(fx["width"], fx["shifts"],
                                         fx["chosen"])
        plan = QueryPlan()
        plan.masked_sum(frame, selection)
        plan.masked_axis_histograms(frame, selection, 0.4)
        plan.masked_clipped_sum(frame, selection, fx["center"], 1.5)
        plan.count_within_many(fx["points"][:3], [0.5])
        before = backend.pool_stats()
        backend.execute(plan)
        after = backend.pool_stats()
        assert after["fanouts"] - before["fanouts"] == 1
        assert after["shard_tasks"] - before["shard_tasks"] == 4

    def test_pool_stats_serial_reports_parent_caches(self, plan_fixture):
        backend = make_backend("sharded", plan_fixture["points"], shards=2)
        backend.radius_counts(0.5)
        stats = backend.pool_stats()
        assert stats["parallel"] is False
        assert stats["num_shards"] == 2
        [worker] = stats["workers"]
        assert worker["built_shards"] == [0, 1]


class TestGoodCenterRoundTrips:
    """The acceptance criterion: each GoodCenter stage is one plan, one
    round trip per shard — search batches included — and the selection's
    membership is derived exactly once per shard for all of steps 8-11."""

    JL_CONFIG = GoodCenterConfig(jl_constant=0.3)
    PARAMS = PrivacyParams(16.0, 1e-4)

    @pytest.fixture(scope="class")
    def jl_points(self):
        rng = np.random.default_rng(3)
        dimension = 8
        center = np.full(dimension, 0.5)
        cluster = center + rng.normal(0, 0.015, size=(900, dimension))
        noise = rng.uniform(0, 1, size=(300, dimension))
        return np.vstack([cluster, noise])

    def run_counted(self, points, monkeypatch, **kwargs):
        derivations = []
        original = sharded_module._ShardSet._box_rows

        def spy(self, shard, *args):
            derivations.append(shard)
            return original(self, shard, *args)

        monkeypatch.setattr(sharded_module._ShardSet, "_box_rows", spy)
        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        backend.HEAVIEST_CELL_TOP_K = None
        # Speculation off: these tests pin the *unspeculated* per-stage plan
        # counts (speculation's own accounting — plans = these + misses — is
        # TestSpeculativePlans' job, and a hit/miss depends on noise).
        backend.supports_speculation = False
        result = good_center(points, params=self.PARAMS, backend=backend,
                             **kwargs)
        return result, backend.pool_stats(), derivations

    def test_jl_path_one_round_trip_per_stage(self, jl_points, monkeypatch):
        result, stats, derivations = self.run_counted(
            jl_points, monkeypatch, radius=0.1, target=700,
            config=self.JL_CONFIG, rng=1,
        )
        assert result.found
        assert result.projected_dimension < jl_points.shape[1]
        batch = ShardedBackend.HEAVIEST_CELL_BATCH
        search_plans = -(-result.attempts // batch)     # ceil
        # One plan per search batch + step 7 + steps 8-9 + steps 10-11,
        # each exactly one fan-out (= one round trip per shard).
        assert stats["plans"] == search_plans + 3
        assert stats["fanouts"] == stats["plans"]
        assert stats["shard_tasks"] == stats["fanouts"] * 3
        # The BoxSelection membership is derived exactly once per shard for
        # the whole rotated stage (the steps-10-11 plan hits the token
        # cache), never re-derived per masked query.
        assert sorted(derivations) == [0, 1, 2]

    def test_identity_path_one_round_trip_per_stage(self, medium_cluster_data,
                                                    monkeypatch):
        points = medium_cluster_data.points
        result, stats, derivations = self.run_counted(
            points, monkeypatch, radius=0.05, target=400, rng=0,
        )
        assert result.found
        assert result.projected_dimension == points.shape[1]
        batch = ShardedBackend.HEAVIEST_CELL_BATCH
        search_plans = -(-result.attempts // batch)
        # Identity path skips steps 8-9: search batches + step 7 + the
        # steps-10-11 statistics plan.
        assert stats["plans"] == search_plans + 2
        assert stats["fanouts"] == stats["plans"]
        # Membership: once per shard, for the single masked plan.
        assert sorted(derivations) == [0, 1, 2]

    def test_abstain_branch_same_round_trips(self, jl_points, monkeypatch):
        """The NoisyAVG abstain branch issues the same single statistics
        round trip (the abstain decision happens in the parent)."""
        starved = GoodCenterConfig(jl_constant=0.3,
                                   budget_split=(0.4, 0.4, 0.15, 0.001))
        result, stats, derivations = self.run_counted(
            jl_points, monkeypatch, radius=0.1, target=700, config=starved,
            rng=4,
        )
        assert not result.found
        batch = ShardedBackend.HEAVIEST_CELL_BATCH
        search_plans = -(-result.attempts // batch)
        assert stats["plans"] == search_plans + 3
        assert stats["fanouts"] == stats["plans"]
        assert sorted(derivations) == [0, 1, 2]


class TestSpeculativePlans:
    """Speculation (``supports_speculation`` backends): in-flight predicted
    plans must never move a byte of any release — hit or miss — and the
    accounting must close: the
    speculated run issues exactly the unspeculated run's plans plus one per
    recorded miss (a hit *replaces* the stage's real plan, a discarded miss
    rides alongside it)."""

    JL_CONFIG = GoodCenterConfig(jl_constant=0.3)
    PARAMS = PrivacyParams(16.0, 1e-4)
    STAGES = {"search->box", "box->axes", "box->avg", "axes->avg"}

    @pytest.fixture(scope="class")
    def jl_points(self):
        rng = np.random.default_rng(3)
        dimension = 8
        center = np.full(dimension, 0.5)
        cluster = center + rng.normal(0, 0.015, size=(900, dimension))
        noise = rng.uniform(0, 1, size=(300, dimension))
        return np.vstack([cluster, noise])

    def run(self, points, speculate=True, **kwargs):
        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        backend.HEAVIEST_CELL_TOP_K = None
        backend.supports_speculation = speculate
        result = good_center(points, params=self.PARAMS, backend=backend,
                             **kwargs)
        return result, backend.pool_stats()

    @staticmethod
    def totals(stats):
        spec = stats["speculation"]
        hits = sum(counters["hits"] for counters in spec.values())
        misses = sum(counters["misses"] for counters in spec.values())
        return spec, hits, misses

    @staticmethod
    def assert_same_release(ours, theirs):
        assert ours.found == theirs.found
        assert ours.attempts == theirs.attempts
        if ours.found:
            assert np.array_equal(ours.center, theirs.center)
            assert ours.radius_bound == theirs.radius_bound
            assert ours.captured_count == theirs.captured_count

    def test_jl_speculation_release_neutral_accounting_closes(
            self, jl_points):
        kwargs = dict(radius=0.1, target=700, config=self.JL_CONFIG, rng=1)
        spec_result, spec_stats = self.run(jl_points, **kwargs)
        base_result, base_stats = self.run(jl_points, speculate=False,
                                           **kwargs)
        self.assert_same_release(spec_result, base_result)
        spec, hits, misses = self.totals(spec_stats)
        assert base_stats["speculation"] == {}
        assert set(spec) <= self.STAGES
        # Every noise gate of the JL path was speculated at.
        assert hits + misses >= 3
        assert spec_stats["plans"] == base_stats["plans"] + misses

    def test_identity_speculation_release_neutral(self, medium_cluster_data):
        points = medium_cluster_data.points
        kwargs = dict(radius=0.05, target=400, rng=0)
        spec_result, spec_stats = self.run(points, **kwargs)
        base_result, base_stats = self.run(points, speculate=False, **kwargs)
        self.assert_same_release(spec_result, base_result)
        spec, hits, misses = self.totals(spec_stats)
        assert set(spec) <= {"search->box", "box->avg"}
        assert "box->avg" in spec
        assert spec_stats["plans"] == base_stats["plans"] + misses

    def test_full_mispredict_streak_release_identical(self, jl_points,
                                                      monkeypatch):
        """A pathological predictor (the *lightest* slot) forces a miss at
        every histogram gate; the discarded in-flight plans must leave the
        release bitwise untouched and each miss must cost exactly one extra
        plan."""
        kwargs = dict(radius=0.1, target=700, config=self.JL_CONFIG, rng=1)
        base_result, base_stats = self.run(jl_points, speculate=False,
                                           **kwargs)
        monkeypatch.setattr(
            good_center_module, "_predict_slot",
            lambda counts: int(np.argmin(np.asarray(counts))),
        )
        spec_result, spec_stats = self.run(jl_points, **kwargs)
        self.assert_same_release(spec_result, base_result)
        spec, hits, misses = self.totals(spec_stats)
        assert spec["box->axes"] == {"hits": 0, "misses": 1}
        assert spec["axes->avg"] == {"hits": 0, "misses": 1}
        assert spec_stats["plans"] == base_stats["plans"] + misses

    def test_non_sharded_backends_never_speculate(self, jl_points):
        """supports_speculation gates the whole subsystem: serial backends
        evaluate submit() eagerly, so speculating there is pure waste."""
        backend = BACKENDS["dense"](jl_points)
        result = good_center(jl_points, radius=0.1, target=700,
                             params=self.PARAMS, config=self.JL_CONFIG,
                             rng=1, backend=backend)
        assert result.found
        assert backend.speculation_stats() == {}


class TestKClusterAsyncCoverage:
    """k_cluster's submitted coverage plans: deterministic, release-neutral."""

    def test_ball_coverages_deterministic_and_release_neutral(
            self, small_cluster_data):
        points = small_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        plain = k_cluster(points, k=2, params=params, rng=7)
        assert plain.ball_coverages is None
        with_backend = k_cluster(points, k=2, params=params, rng=7,
                                 backend="chunked")
        other_backend = k_cluster(points, k=2, params=params, rng=7,
                                  backend="dense")
        # The diagnostics are pure post-processing: releases are bitwise
        # unchanged with and without them.
        assert with_backend.num_found == plain.num_found
        for ours, theirs in zip(with_backend.balls, plain.balls):
            assert np.array_equal(ours.center, theirs.center)
            assert ours.radius == theirs.radius
        assert with_backend.covered_fraction == plain.covered_fraction
        # And backend-independent.
        assert with_backend.ball_coverages == other_backend.ball_coverages
        assert len(with_backend.ball_coverages) == with_backend.num_found

    def test_matches_synchronous_harness_counts(self, small_cluster_data):
        points = small_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        result = k_cluster(points, k=2, params=params, rng=7,
                           backend="chunked")
        backend = BACKENDS["chunked"](points)
        future = submit_coverage_counts(backend, result.balls)
        assert coverage_counts_result(future) == result.ball_coverages

