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

import repro.neighbors.base as base_module
import repro.neighbors.sharded as sharded_module
from repro.accounting.params import PrivacyParams
from repro.clustering.k_cluster import k_cluster
from repro.core.config import GoodCenterConfig, OneClusterConfig
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.experiments.harness import (
    coverage_counts_result,
    submit_coverage_counts,
)
from repro.geometry.boxes import box_labels
from repro.geometry.jl import project_rows
from repro.neighbors import (
    BACKENDS,
    ChunkedBackend,
    PlanFuture,
    QueryPlan,
    ShardedBackend,
    resolve_backend,
)

good_center_module = sys.modules["repro.core.good_center"]


#: The registry's strategy names; the tree's case needs scipy.
BACKEND_NAMES = [pytest.param(name, marks=pytest.mark.needs_scipy)
                 if name == "tree" else name for name in sorted(BACKENDS)]


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
    }
    return plan, slots, (search, frame, selection)


def reference_results(fx):
    """The direct-call reference, computed on the chunked backend."""
    backend = ChunkedBackend(fx["points"])
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

    @pytest.mark.parametrize("name", BACKEND_NAMES)
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
        expected = ChunkedBackend(fx["points"]).view(fx["basis"]).masked_sum(
            rows
        )
        for name in ("chunked", "sharded"):
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

    @pytest.mark.parametrize("name", BACKEND_NAMES)
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


class TestPlanValidation:
    @pytest.mark.needs_scipy
    def test_foreign_view_rejected(self, plan_fixture):
        points = plan_fixture["points"]
        backend = make_backend("tree", points)
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
        backend = make_backend("chunked", plan_fixture["points"])
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

    def test_degenerate_grid_rejected(self, neighbor_backend):
        """A zero, negative, NaN or infinite width, or a non-finite shift
        or axis offset, would hash every point to one fake cell; every
        grid-hash query and its plan append raises instead."""
        points = np.random.default_rng(0).uniform(size=(200, 3))
        view = resolve_backend(points, neighbor_backend(points)).view()
        shifts = np.zeros(3)
        label = np.zeros(3, dtype=np.int64)
        rows = np.arange(10)

        def grid_queries(width, shifts):
            return [
                lambda: view.heaviest_cell_counts(width, shifts[None, :]),
                lambda: view.cell_histogram(width, shifts),
                lambda: view.box_selection(width, shifts, label),
                lambda: QueryPlan().heaviest_cell_counts(view, width,
                                                         shifts[None, :]),
                lambda: QueryPlan().cell_histogram(view, width, shifts),
            ]

        def axis_queries(width, offset):
            return [
                lambda: view.masked_axis_histograms(rows, width, offset),
                lambda: QueryPlan().masked_axis_histograms(view, rows, width,
                                                           offset),
            ]

        for width in (0.0, -0.5, np.nan, np.inf):
            for query in grid_queries(width, shifts) + axis_queries(width,
                                                                    0.0):
                with pytest.raises(ValueError, match="width"):
                    query()
        for query in grid_queries(1.0, np.array([0.0, np.nan, 0.0])):
            with pytest.raises(ValueError, match="shifts"):
                query()
        for offset in (np.nan, np.inf):
            for query in axis_queries(1.0, offset):
                with pytest.raises(ValueError, match="offset"):
                    query()
        # The checks reject only degenerate grids.
        assert view.heaviest_cell_counts(0.5, shifts[None, :])[0] >= 1

    def test_selection_slots_deduplicate_by_identity(self, plan_fixture):
        backend = make_backend("chunked", plan_fixture["points"])
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
        assert after["plans"] - before["plans"] == 1
        assert after["fanouts"] - before["fanouts"] == 1
        assert after["shard_tasks"] - before["shard_tasks"] == 4

    def test_profile_fanouts(self, plan_fixture, monkeypatch):
        """The GoodRadius profile is no plan: a cold batch is the two
        selection rounds of the threshold profile plus one count round,
        and a warm batch is the count round alone — also on a return to a
        target the parent still caches (40 -> 60 -> 40).  With the memory
        budget patched so that one entry fits, the return is cold again."""
        reference = ChunkedBackend(plan_fixture["points"])
        expected = {target: reference.capped_average_scores([0.3, 0.8],
                                                             target)
                    for target in (40, 60)}
        for budget, returning in ((None, 1), (1, 3)):
            if budget is not None:
                monkeypatch.setattr(base_module, "DEFAULT_MEMORY_BUDGET",
                                    budget)
            backend = make_backend("sharded", plan_fixture["points"],
                                   shards=4)
            for target, fanouts in ((40, 3), (40, 1), (60, 3),
                                    (40, returning)):
                before = backend.pool_stats()
                scores = backend.capped_average_scores([0.3, 0.8], target)
                after = backend.pool_stats()
                assert np.array_equal(scores, expected[target])
                assert after["plans"] - before["plans"] == 0
                assert after["fanouts"] - before["fanouts"] == fanouts
                assert (after["shard_tasks"] - before["shard_tasks"]
                        == 4 * fanouts)

    @pytest.mark.parametrize("method", ["recconcave", "binary_search"])
    def test_good_radius_reads_profile_in_one_batch(self, plan_fixture,
                                                    method):
        """A cold good_radius evaluates L(0), the grid and the half grid in
        one profile batch: two selection rounds and one count round,
        whichever search reads the scores."""
        points = plan_fixture["points"]
        config = OneClusterConfig(radius_method=method)
        backend = make_backend("sharded", points, shards=4)
        before = backend.pool_stats()
        result = good_radius(points, 60, PrivacyParams(2.0, 1e-6),
                             config=config, rng=5, backend=backend)
        after = backend.pool_stats()
        assert after["fanouts"] - before["fanouts"] == 3
        assert after["plans"] - before["plans"] == 0
        reference = good_radius(points, 60, PrivacyParams(2.0, 1e-6),
                                config=config, rng=5, backend="chunked")
        assert result == reference

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


def search_requests(attempts: int, cap: int) -> int:
    """How many requests the partition search takes to reach ``attempts``:
    its batches double (1, 2, 4, ...) up to ``cap`` partitions."""
    requests, covered, size = 0, 0, 1
    while covered < attempts:
        covered += size
        requests += 1
        size = min(2 * size, cap)
    return requests


class TestGoodCenterRoundTrips:
    """The acceptance criterion: each GoodCenter stage is one plan, one
    round trip per shard — search batches included — the search hashes no
    partition past the doubling batch that holds the accepted attempt, and
    the selection's membership is derived exactly once per shard for all of
    steps 8-11."""

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
        """Run on a serial 3-shard backend; returns the result, the pool
        stats, the shards that derived a box membership, and per shard the
        partition count of each search request."""
        derivations = []
        hashed = {}
        original_rows = sharded_module._ShardSet._box_rows
        original_partial = sharded_module._ShardSet._partial

        def spy_rows(self, shard, *args):
            derivations.append(shard)
            return original_rows(self, shard, *args)

        def spy_partial(self, shard, op, view, rows, args):
            if op == "heaviest_cell_counts":
                hashed.setdefault(shard, []).append(len(args[1]))
            return original_partial(self, shard, op, view, rows, args)

        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        backend.HEAVIEST_CELL_TOP_K = None
        # Speculation off: these tests pin the *unspeculated* per-stage plan
        # counts (speculation's own accounting — plans = these + misses — is
        # TestSpeculativePlans' job, and a hit/miss depends on noise).
        backend.supports_speculation = False
        # The spies come off after each run, so runs never stack them.
        with monkeypatch.context() as patch:
            patch.setattr(sharded_module._ShardSet, "_box_rows", spy_rows)
            patch.setattr(sharded_module._ShardSet, "_partial", spy_partial)
            result = good_center(points, params=self.PARAMS,
                                 backend=backend, **kwargs)
        return result, backend.pool_stats(), derivations, hashed

    def test_jl_path_one_round_trip_per_stage(self, jl_points, monkeypatch):
        result, stats, derivations, _ = self.run_counted(
            jl_points, monkeypatch, radius=0.1, target=700,
            config=self.JL_CONFIG, rng=1,
        )
        assert result.found
        assert result.projected_dimension < jl_points.shape[1]
        search_plans = search_requests(result.attempts,
                                       ShardedBackend.HEAVIEST_CELL_BATCH)
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
        result, stats, derivations, _ = self.run_counted(
            points, monkeypatch, radius=0.05, target=400, rng=0,
        )
        assert result.found
        assert result.projected_dimension == points.shape[1]
        search_plans = search_requests(result.attempts,
                                       ShardedBackend.HEAVIEST_CELL_BATCH)
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
        result, stats, derivations, _ = self.run_counted(
            jl_points, monkeypatch, radius=0.1, target=700, config=starved,
            rng=4,
        )
        assert not result.found
        search_plans = search_requests(result.attempts,
                                       ShardedBackend.HEAVIEST_CELL_BATCH)
        assert stats["plans"] == search_plans + 3
        assert stats["fanouts"] == stats["plans"]
        assert sorted(derivations) == [0, 1, 2]

    def test_search_hashes_only_what_it_may_read(self, jl_points,
                                                 medium_cluster_data,
                                                 monkeypatch):
        """The first request hashes one partition, and a search accepted at
        attempt ``a`` hashes at most ``min(2a - 1, a + cap - 1)`` per shard:
        each batch doubles, so at most the accepted batch's tail is
        wasted."""
        cap = ShardedBackend.HEAVIEST_CELL_BATCH
        identity = dict(radius=0.05, target=400)
        jl = dict(radius=0.1, target=700, config=self.JL_CONFIG)
        cases = ([(medium_cluster_data.points, identity, seed)
                  for seed in (0, 3, 10)]
                 + [(jl_points, jl, seed) for seed in (0, 7)])
        seen = set()
        for points, kwargs, seed in cases:
            result, _, _, hashed = self.run_counted(points, monkeypatch,
                                                    rng=seed, **kwargs)
            attempts = result.attempts
            seen.add(attempts)
            assert sorted(hashed) == [0, 1, 2]
            for sizes in hashed.values():
                assert sizes[0] == 1
                assert len(sizes) == search_requests(attempts, cap)
                assert attempts <= sum(sizes) <= min(2 * attempts - 1,
                                                     attempts + cap - 1)
        # An attempt-1 acceptance and a search that reaches the cap ran.
        assert 1 in seen and max(seen) >= cap


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
        backend = BACKENDS["chunked"](jl_points)
        result = good_center(jl_points, radius=0.1, target=700,
                             params=self.PARAMS, config=self.JL_CONFIG,
                             rng=1, backend=backend)
        assert result.found
        assert backend.speculation_stats() == {}


class TestKClusterAsyncCoverage:
    """k_cluster's submitted coverage plans: deterministic, release-neutral."""

    @pytest.mark.needs_scipy
    def test_ball_coverages_deterministic_and_release_neutral(
            self, small_cluster_data):
        points = small_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        plain = k_cluster(points, k=2, params=params, rng=7)
        with_backend = k_cluster(points, k=2, params=params, rng=7,
                                 backend="chunked")
        other_backend = k_cluster(points, k=2, params=params, rng=7,
                                  backend="tree")
        # The diagnostics are pure post-processing: releases are bitwise
        # the same on every backend.
        assert with_backend.num_found == plain.num_found
        for ours, theirs in zip(with_backend.balls, plain.balls):
            assert np.array_equal(ours.center, theirs.center)
            assert ours.radius == theirs.radius
        assert with_backend.covered_fraction == plain.covered_fraction
        # And backend-independent; a list on every call, one per ball.
        assert with_backend.ball_coverages == other_backend.ball_coverages
        assert plain.ball_coverages == with_backend.ball_coverages
        assert len(with_backend.ball_coverages) == with_backend.num_found

    def test_matches_synchronous_harness_counts(self, small_cluster_data):
        points = small_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        result = k_cluster(points, k=2, params=params, rng=7,
                           backend="chunked")
        backend = BACKENDS["chunked"](points)
        future = submit_coverage_counts(backend, result.balls)
        assert coverage_counts_result(future) == result.ball_coverages

