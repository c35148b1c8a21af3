"""Tests for the pluggable neighbor-backend layer.

The contract under test: the Chunked and Tree backends are
*interchangeable* — identical integer counts and identical ``L(r, S)``
values on random and adversarial datasets, equal to brute-force oracles
computed by direct differencing — and neither strategy materialises an
``(n, n)`` distance matrix.  On every strategy, sharded and distributed
included, ``backend.subset(rows)`` answers bitwise like a backend built
directly over ``points[rows]``.
"""

import math
import tracemalloc

import numpy as np
import pytest

import repro.baselines.exponential_ball as exponential_ball
import repro.neighbors as neighbors_module
import repro.neighbors._distance as _distance
import repro.neighbors.tree as tree_module
from repro.accounting.params import PrivacyParams
from repro.baselines.exponential_ball import exponential_mechanism_cluster
from repro.core.good_radius import RadiusScore, good_radius
from repro.datasets.synthetic import planted_cluster
from repro.geometry.balls import counts_around_points
from repro.geometry.grid import GridDomain
from repro.geometry.minimal_ball import smallest_ball_two_approx
from repro.neighbors import (
    BACKENDS,
    CHUNKED_MAX_POINTS,
    HAVE_SCIPY_TREE,
    ChunkedBackend,
    NeighborBackend,
    QueryPlan,
    ShardedBackend,
    TreeBackend,
    auto_backend,
    resolve_backend,
)
from repro.neighbors._distance import row_block_size


def all_backends(points):
    """One instance of every in-process strategy (the tree only where
    scipy is installed)."""
    backends = [ChunkedBackend(points, block_size=29)]
    if HAVE_SCIPY_TREE:
        backends.append(TreeBackend(points))
    return backends


DATASETS = {
    "random-2d": np.random.default_rng(0).uniform(size=(150, 2)),
    "random-1d": np.random.default_rng(1).normal(size=(120, 1)),
    "random-highd": np.random.default_rng(2).uniform(size=(80, 24)),
    "duplicates": np.vstack([
        np.zeros((7, 3)),
        np.ones((4, 3)),
        np.random.default_rng(3).uniform(size=(30, 3)),
        np.zeros((2, 3)),
    ]),
    "identical": np.full((25, 2), 0.5),
    # Integer coordinates: pairwise distances like 5.0 (3-4-5) are exactly
    # representable, so "radius exactly equal to a distance" is exercised
    # without floating-point ambiguity.
    "integer-grid": np.array(
        [[x, y] for x in range(-3, 4) for y in range(-3, 4)], dtype=float
    ),
}


def exact_distances(points):
    """The ``(n, n)`` Euclidean distance matrix, by direct differencing."""
    differences = points[:, None, :] - points[None, :, :]
    return np.sqrt((differences ** 2).sum(axis=2))


def brute_counts(points, centers, radius):
    """``B_r(c, S)`` per centre by direct differencing: ``d2 <= r*r``, the
    squared-space convention (cKDTree's) every backend follows."""
    if radius < 0:
        return np.zeros(centers.shape[0], dtype=np.int64)
    return np.array([
        np.count_nonzero(((points - c) ** 2).sum(axis=1) <= radius * radius)
        for c in centers
    ])


def brute_score(points, radius, target):
    """``L(r, S)``: the mean of the ``target`` largest capped counts."""
    capped = np.minimum(brute_counts(points, points, radius), target)
    return int(np.sort(capped)[::-1][:target].sum()) / target


def radii_for(points):
    distances = exact_distances(points)
    span = float(distances.max())
    rng = np.random.default_rng(99)
    probe = rng.uniform(0.0, span * 1.1, size=12)
    exact = distances[distances > 0]
    hits = [float(np.median(exact))] if exact.size else []
    return np.concatenate([[-1.0, -1e-9, 0.0, span, span + 1.0], probe, hits])


class TestCountParity:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_radius_counts_identical(self, name):
        points = DATASETS[name]
        reference = None
        for backend in all_backends(points):
            for radius in radii_for(points):
                counts = backend.radius_counts(float(radius))
                assert counts.dtype == np.int64
                brute = brute_counts(points, points, radius)
                assert np.array_equal(counts, brute), (
                    backend.name, radius
                )
            reference = counts if reference is None else reference

    @pytest.mark.parametrize("name", ["random-2d", "duplicates", "integer-grid"])
    def test_query_counts_arbitrary_centers(self, name):
        points = DATASETS[name]
        rng = np.random.default_rng(7)
        centers = rng.uniform(points.min() - 0.5, points.max() + 0.5,
                              size=(23, points.shape[1]))
        for radius in (0.0, 0.3, 2.0, 5.0):
            brute = brute_counts(points, centers, radius)
            for backend in all_backends(points):
                counts = backend.query_radius_counts(centers, radius)
                assert np.array_equal(counts, brute), backend.name


class TestScoreParity:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_score_profiles_identical(self, name):
        points = DATASETS[name]
        n = points.shape[0]
        radii = radii_for(points)
        # Every backend matches the brute-force top-t mean exactly, at
        # every radius, boundaries included.
        for target in {1, 3, n // 2, n}:
            target = max(1, target)
            brute = np.array([brute_score(points, r, target) for r in radii])
            for backend in all_backends(points):
                profile = backend.capped_average_scores(radii, target)
                assert np.array_equal(profile, brute), (
                    backend.name, target
                )

    def test_profile_matches_issue_tolerance(self):
        points = DATASETS["random-2d"]
        radii = np.linspace(0.0, 1.5, 40)
        profiles = {
            b.name: b.capped_average_scores(radii, 40)
            for b in all_backends(points)
        }
        base = profiles.pop("chunked")
        for name, profile in profiles.items():
            assert np.allclose(profile, base, atol=1e-9), name

    def test_unsorted_radii_and_scalars(self):
        points = DATASETS["random-2d"]
        backend = ChunkedBackend(points)
        radii = np.array([0.9, 0.1, -0.5, 0.4, 0.1])
        profile = backend.capped_average_scores(radii, 25)
        singles = [backend.capped_average_scores(float(r), 25)[0]
                   for r in radii]
        assert np.array_equal(profile, np.array(singles))
        assert profile[2] == 0.0

    def test_target_validation(self):
        points = DATASETS["random-2d"]
        backend = ChunkedBackend(points)
        with pytest.raises(ValueError):
            backend.capped_average_scores([0.1], points.shape[0] + 1)
        with pytest.raises(ValueError):
            backend.capped_average_scores([0.1], 0)

    def test_radii_validation(self):
        """Radii that are neither a scalar nor 1-d, and NaN radii, raise
        ValueError at the profile entry point of every backend (before
        either evaluation path is chosen); infinite radii stay legal."""
        points = DATASETS["random-2d"]
        bad = [np.full((1, 2), 0.1), np.array([0.1, np.nan])]
        backends = all_backends(points) + [
            ShardedBackend(points, num_shards=3, num_workers=0)
        ]
        for backend in backends:
            for radii in bad:
                with pytest.raises(ValueError, match="radii"):
                    backend.capped_average_scores(radii, 10)
            scores = backend.capped_average_scores([np.inf, -np.inf], 10)
            assert scores.tolist() == [10.0, 0.0], backend.name


class TestStreamingSlabReuse:
    """Regression guard: the streaming walk sorts each distance slab once.

    The streaming ``L(r, S)`` evaluation processes the radius grid in sweeps
    sized to one memory budget; within a sweep every ``(block, n)`` distance
    slab is computed and sorted exactly once, then binary-searched for every
    radius.  Before the sweep refactor a grid this large (``grid_size``
    radii at ``cap = t``) was split into multiple chunks, each re-running —
    and re-sorting — the full blocked pass.  Counting the distance-block
    calls of one streaming evaluation pins the reuse: exactly one pass over
    the query rows (``ceil(n / block)`` block computations), regardless of
    the grid size.  At this size half the memory budget would fit only
    1552 of the 2048 radii in a sweep, so a shrunken sweep fails here.
    """

    def test_radius_grid_costs_one_blocked_pass(self, monkeypatch):
        n, target, grid_size = 3000, 2700, 2048
        points = planted_cluster(n=n, d=2, cluster_size=target,
                                 cluster_radius=0.3, rng=0).points
        radii = np.linspace(0.0, 1.2, grid_size)
        backend = ChunkedBackend(points)
        calls = []
        original = _distance.squared_distance_block

        def counting(queries, data):
            calls.append(queries.shape[0])
            return original(queries, data)

        with monkeypatch.context() as patched:
            patched.setattr(_distance, "squared_distance_block", counting)
            streamed = backend._streaming_profile(radii, target)
        block = row_block_size(n, points.shape[1])
        expected_passes = -(-n // block)               # ceil: one full pass
        assert len(calls) == expected_passes, (
            f"streaming walk ran {len(calls)} distance-block computations for "
            f"{grid_size} radii, expected one full pass ({expected_passes}); "
            "the sorted-slab reuse regressed"
        )
        # Below STREAMING_MIN_POINTS the entry point takes the persisted path.
        persisted = backend.capped_average_scores(radii, target)
        assert np.array_equal(streamed, persisted), (
            "slab-reuse streaming scores diverged from the persisted statistic"
        )


@pytest.mark.skipif(_distance._cdist is None,
                    reason="without scipy's cdist the slab kernel's scratch "
                           "is the (block, n, d) difference tensor")
class TestTruncatedKernelScratch:
    """The truncated-statistic kernels partition (and sort) each ``(block,
    n)`` slab in place: besides their output they hold one slab at a time,
    where a copying partition held two."""

    @pytest.mark.parametrize("kernel", ["truncated_squared_cross",
                                        "truncated_squared_columns",
                                        "kth_squared_cross"])
    def test_peak_is_output_plus_one_slab(self, kernel):
        q, n, d, k = 1500, 3000, 16, 1500
        rng = np.random.default_rng(8)
        queries = rng.uniform(size=(q, d))
        data = rng.uniform(size=(n, d))
        block = row_block_size(n, d)
        tracemalloc.start()
        try:
            out = getattr(_distance, kernel)(queries, data, k, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab = block * n * 8
        assert out.size == (q if kernel == "kth_squared_cross" else q * k)
        assert peak <= out.nbytes + 1.25 * slab, (
            f"peaked at output + {(peak - out.nbytes) / slab:.2f} slabs")

    @pytest.mark.parametrize("k", [1, 37, 499, 500, 900])
    def test_in_place_rows_match_a_full_sort(self, k):
        """Every ``k``, also ``k >= n``, is bitwise the leading ``k``
        entries of each fully sorted row, across several row blocks; the
        column layout is their transpose with each row sorted, and the
        ``k``-th column alone (``k <= n``) is the last of them."""
        rng = np.random.default_rng(9)
        queries = rng.integers(0, 4, size=(300, 3)).astype(float)
        data = np.vstack([queries, rng.uniform(size=(200, 3))])
        got = _distance.truncated_squared_cross(queries, data, k, 64)
        full = np.sort(_distance.squared_distance_block(queries, data), axis=1)
        assert got.tobytes() == full[:, :k].tobytes()
        columns = _distance.truncated_squared_columns(queries, data, k, 64)
        assert columns.tobytes() == np.sort(full[:, :k].T, axis=1).tobytes()
        if k <= data.shape[0]:
            kth = _distance.kth_squared_cross(queries, data, k, 64)
            assert kth.tobytes() == full[:, k - 1].tobytes()


class TestKthDistances:
    @pytest.mark.parametrize("name", ["random-2d", "duplicates", "random-highd"])
    def test_matches_sorted_matrix(self, name):
        points = DATASETS[name]
        sorted_distances = np.sort(exact_distances(points), axis=1)
        for k in (1, 2, points.shape[0] // 2, points.shape[0]):
            for backend in all_backends(points):
                kth = backend.kth_distances(k)
                assert np.allclose(kth, sorted_distances[:, k - 1],
                                   atol=1e-7), backend.name

    def test_k_validation(self):
        backend = ChunkedBackend(DATASETS["random-2d"])
        with pytest.raises(ValueError):
            backend.kth_distances(0)
        with pytest.raises(ValueError):
            backend.kth_distances(10 ** 6)

    @pytest.mark.needs_scipy
    def test_two_approx_uses_backend(self):
        points = DATASETS["random-2d"]
        # The smallest 50th-nearest distance over all candidate centres.
        reference = np.sort(exact_distances(points), axis=1)[:, 49].min()
        for name in BACKENDS:
            ball = smallest_ball_two_approx(points, 50, backend=name)
            assert ball.radius == pytest.approx(reference, abs=1e-7)


@pytest.mark.needs_scipy
class TestTreeKernelPick:
    """``TreeBackend.truncated_squared_cross`` picks its kernel per call:
    the KD-tree selects the neighbours below ``TREE_SELECT_FRACTION`` of
    ``n``, and the blocked slab builds the statistic at or above it."""

    @pytest.mark.parametrize("side", ["tree", "slab"])
    def test_truncated_cross_validates_arguments(self, side, monkeypatch):
        """Bad arguments raise before a kernel is picked, on either side
        of the crossover."""
        points = DATASETS["random-2d"]
        monkeypatch.setattr(tree_module, "TREE_SELECT_FRACTION",
                            math.inf if side == "tree" else 0.0)
        backend = TreeBackend(points)
        queries = points[:6]
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                backend.truncated_squared_cross(queries, k)
        with pytest.raises(ValueError, match="k must be an integer"):
            backend.truncated_squared_cross(queries, 1.5)
        with pytest.raises(TypeError, match="k must be an integer"):
            backend.truncated_squared_cross(queries, True)
        with_nan = queries.copy()
        with_nan[2, 1] = np.nan
        with pytest.raises(ValueError, match="queries must contain only"):
            backend.truncated_squared_cross(with_nan, 3)
        with pytest.raises(ValueError, match="queries must have dimension"):
            backend.truncated_squared_cross(np.zeros((4, 3)), 3)
        expected = _distance.truncated_squared_cross(queries, points, 3, 16)
        for k in (3, 3.0, np.int64(3)):
            got = backend.truncated_squared_cross(queries, k)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("where", ["in-process", "shard"])
    def test_tree_selects_only_below_the_crossover(self, where, monkeypatch):
        """Just below ``TREE_SELECT_FRACTION * n`` the tree's
        ``cKDTree.query`` selects the neighbours; at it the slab builds the
        statistic, and a serial tree-inner shard builds no full-dataset
        tree.  Both read the chunked reference's bits: a shard's sorted
        columns are its rows of the chunked statistic, column-sorted."""
        queried = []

        class SpyTree(tree_module._CKDTree):
            def query(self, *args, **kwargs):
                queried.append(kwargs["k"])
                return super().query(*args, **kwargs)

        monkeypatch.setattr(tree_module, "_CKDTree", SpyTree)
        # Shards pick the tree strategy at any size.
        monkeypatch.setattr(neighbors_module, "CHUNKED_MAX_POINTS", 0)
        points = np.random.default_rng(3).uniform(size=(1000, 2))
        at = math.ceil(tree_module.TREE_SELECT_FRACTION * points.shape[0])
        for k, selects in ((at - 1, True), (at, False)):
            queried.clear()
            if where == "in-process":
                backend = TreeBackend(points)
            else:
                backend = ShardedBackend(points, num_shards=2, num_workers=0)
            with backend:
                if where == "in-process":
                    got = [backend._truncated_squared(k)]
                    bounds = None
                else:
                    got = [backend._shards.columns(shard, k)
                           for shard in range(2)]
                    bounds = backend.shard_bounds
                    assert all(isinstance(backend._shards.backend(shard),
                                          TreeBackend) for shard in range(2))
                    assert (backend._shards._full_tree is not None) == selects
            calls = 1 if where == "in-process" else 2
            assert queried == ([k] * calls if selects else []), k
            reference = ChunkedBackend(points)._truncated_squared(k)
            expected = ([reference] if bounds is None else
                        [np.sort(reference[low:high].T, axis=1)
                         for low, high in bounds])
            for part, want in zip(got, expected):
                assert part.tobytes() == want.tobytes(), k


class TestSelection:
    def test_auto_backend_regimes(self):
        # Blocked brute force at n <= CHUNKED_MAX_POINTS in every
        # dimension, also where larger n picks the KD-tree.
        assert CHUNKED_MAX_POINTS == 2048
        for n in (1, 100, 2048):
            for d in (2, 50):
                assert auto_backend(n, d) == "chunked", (n, d)
        # Without scipy the tree is never picked: chunked is the fallback.
        assert auto_backend(50000, 2) == ("tree" if HAVE_SCIPY_TREE
                                          else "chunked")
        assert auto_backend(50000, 100) == "chunked"

    @pytest.mark.needs_scipy
    def test_resolve_by_name_class_instance(self):
        points = DATASETS["random-2d"]
        assert resolve_backend(points, "chunked").name == "chunked"
        assert resolve_backend(points, TreeBackend).name == "tree"
        assert isinstance(resolve_backend(points), NeighborBackend)
        instance = ChunkedBackend(points)
        assert resolve_backend(points, instance) is instance

    def test_resolve_rejects_foreign_instance(self):
        instance = ChunkedBackend(DATASETS["random-2d"])
        with pytest.raises(ValueError):
            resolve_backend(DATASETS["random-1d"], instance)

    def test_resolve_rejects_unknown(self):
        points = DATASETS["random-2d"]
        assert sorted(BACKENDS) == ["chunked", "sharded", "tree"]
        for name in ("octree", "dense"):
            with pytest.raises(ValueError,
                               match=r"\['chunked', 'sharded', 'tree'\]"):
                resolve_backend(points, name)
        with pytest.raises(TypeError):
            resolve_backend(points, 42)

    @pytest.mark.parametrize("options", [{"block_size": 64},
                                         {"num_workers": 2},
                                         {"num_shards": 2}])
    @pytest.mark.parametrize("selection", [None, "auto"])
    def test_auto_rejects_options(self, monkeypatch, options, selection):
        """Options fit one strategy and auto picks the strategy by size, so
        auto with options is rejected at every size, before any backend
        (or worker pool) is built."""
        def build(self, points, **kwargs):
            raise AssertionError("a backend was built")

        monkeypatch.setattr(NeighborBackend, "__init__", build)
        rng = np.random.default_rng(9)
        for n, d in ((1000, 2), (5000, 2), (5000, 16), (100_000, 2)):
            points = rng.uniform(size=(n, d))
            with pytest.raises(ValueError, match="name the strategy"):
                resolve_backend(points, selection, options)


class TestTreeNeedsScipy:
    """Without scipy's cKDTree the tree strategy refuses to build, and
    nothing that picks a strategy by itself asks for it."""

    @pytest.fixture
    def without_scipy(self, monkeypatch):
        monkeypatch.setattr(tree_module, "_CKDTree", None)
        for module in (tree_module, neighbors_module, exponential_ball):
            monkeypatch.setattr(module, "HAVE_SCIPY_TREE", False)

    def test_tree_raises_before_building(self, without_scipy, monkeypatch):
        def build(self, points, **kwargs):
            raise AssertionError("a backend was built")

        monkeypatch.setattr(NeighborBackend, "__init__", build)
        points = DATASETS["random-2d"]
        with pytest.raises(ImportError, match="scipy"):
            TreeBackend(points)
        with pytest.raises(ImportError, match="scipy"):
            resolve_backend(points, "tree")

    def test_auto_and_the_exponential_baseline_pick_chunked(self,
                                                            without_scipy):
        assert auto_backend(50000, 2) == "chunked"
        points = planted_cluster(n=300, d=2, cluster_size=120,
                                 cluster_radius=0.05, rng=3).points
        domain = GridDomain.unit_cube(dimension=2, side=17)
        params = PrivacyParams(8.0, 1e-5)
        result = exponential_mechanism_cluster(points, 100, params, domain,
                                               rng=4)
        chunked = exponential_mechanism_cluster(points, 100, params, domain,
                                                rng=4, backend="chunked")
        assert np.array_equal(result.ball.center, chunked.ball.center)
        assert result.ball.radius == chunked.ball.radius


def build_named(name, points):
    """A backend by registry name (sharded: 3 serial shards)."""
    if name == "sharded":
        return ShardedBackend(points, num_shards=3, num_workers=0)
    return BACKENDS[name](points)


@pytest.mark.parametrize("name", [
    "chunked", pytest.param("tree", marks=pytest.mark.needs_scipy), "sharded"])
class TestQueryArgumentShapes:
    """``count_within_many``'s radii and ``depth_counts``' thresholds are a
    scalar or a 1-d array on every backend; any other shape raises the same
    ``ValueError``, naming the argument, everywhere."""

    POINTS = DATASETS["random-2d"]

    def test_count_within_many_radii(self, name):
        backend = build_named(name, self.POINTS)
        centers = self.POINTS[:4]
        with pytest.raises(ValueError, match="radii"):
            backend.count_within_many(centers, [[0.1, 0.2]])
        assert backend.count_within_many(centers, 0.3).shape == (1, 4)
        # NaN radii count nothing, on every backend.
        assert not backend.count_within_many(centers, [np.nan]).any()

    def test_depth_counts_thresholds(self, name):
        backend = build_named(name, self.POINTS)
        with pytest.raises(ValueError, match="thresholds"):
            backend.depth_counts([[0.2, 0.5]])
        assert backend.depth_counts(0.3).shape == (1, 2)
        assert backend.depth_counts([0.2, 0.5]).shape == (2, 2)


def test_plan_rejects_bad_radii_and_thresholds_when_appended():
    """A plan rejects the shapes the direct calls reject, at append."""
    plan = QueryPlan()
    with pytest.raises(ValueError, match="radii"):
        plan.count_within_many(DATASETS["random-2d"][:4], [[0.1, 0.2]])
    with pytest.raises(ValueError, match="thresholds"):
        plan.depth_counts([[0.2, 0.5]])
    assert len(plan) == 0


@pytest.fixture(params=["chunked",
                        pytest.param("tree", marks=pytest.mark.needs_scipy),
                        "sharded", "distributed"])
def build_backend(request):
    """A factory for one strategy with non-default constructor arguments
    (two loopback node servers for "distributed"); closes every backend it
    built, then stops the servers."""
    name = request.param
    built, servers = [], []
    if name == "distributed":
        from repro.neighbors.distributed import DistributedBackend
        from repro.neighbors.serve import NodeServer

        servers = [NodeServer().start() for _ in range(2)]
        nodes = [server.address for server in servers]

        def make(points):
            return DistributedBackend(points, nodes, num_shards=3, retries=1)
    else:
        make = {
            "chunked": lambda points: ChunkedBackend(points, block_size=29),
            "tree": TreeBackend,
            "sharded": lambda points: ShardedBackend(points, num_shards=3,
                                                     num_workers=0),
        }[name]

    def factory(points):
        backend = make(points)
        built.append(backend)
        return backend

    yield factory
    for backend in built:
        backend.close()
    for server in servers:
        server.stop()


class TestSubset:
    """``backend.subset(rows)``: the same strategy, rebuilt with the same
    constructor arguments over ``points[rows]`` (a strategy picked by size
    is picked again)."""

    POINTS = np.random.default_rng(4).uniform(size=(150, 2))
    ROWS = np.flatnonzero(np.random.default_rng(5).uniform(size=150) < 0.6)

    @staticmethod
    def answers(backend):
        """Every query family a solver sends: the GoodRadius profile,
        ball counts around arbitrary centres, k-th distances and a
        masked-sum plan."""
        points = backend.points
        radii = radii_for(points)
        centers = np.random.default_rng(6).uniform(size=(5, 2))
        plan = QueryPlan()
        plan.masked_sum(backend.view(), np.arange(points.shape[0]) % 3 == 0)
        return [
            backend.capped_average_scores(radii, 12),
            backend.count_within_many(centers, radii),
            backend.kth_distances(4),
            backend.execute(plan)[0],
        ]

    def test_subset_answers_like_a_direct_build(self, build_backend):
        backend = build_backend(self.POINTS)
        direct = build_backend(self.POINTS[self.ROWS])
        with backend.subset(self.ROWS) as subset:
            assert type(subset) is type(backend)
            assert subset._options == backend._options
            assert np.array_equal(subset.points, self.POINTS[self.ROWS])
            for ours, theirs in zip(self.answers(subset),
                                    self.answers(direct)):
                assert ours.dtype == theirs.dtype
                assert ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()

    def test_subset_keeps_constructor_arguments(self):
        points = self.POINTS
        chunked = ChunkedBackend(points, block_size=29).subset(self.ROWS)
        assert chunked.block_size == 29
        with ShardedBackend(points, num_shards=5,
                            num_workers=0).subset(self.ROWS) as sharded:
            assert sharded.num_shards == 5
            assert not sharded.parallel

    @pytest.mark.parametrize("rows", [[-1, 0], [0, 150], [[0, 1]],
                                      [0.0, 1.0]])
    def test_subset_rejects_bad_rows(self, build_backend, rows):
        backend = build_backend(self.POINTS)
        with pytest.raises(ValueError, match="rows"):
            backend.subset(rows)

    def test_auto_selected_subset_selects_again(self):
        """A backend resolve_backend picked by size picks again for each
        subset's size; a named strategy is kept.  (Auto with options is
        rejected: see ``TestSelection.test_auto_rejects_options``.)"""
        points = np.random.default_rng(7).uniform(
            size=(CHUNKED_MAX_POINTS + 50, 2))
        few, most = np.arange(100), np.arange(CHUNKED_MAX_POINTS + 10)
        picked = auto_backend(*points.shape)
        # Without scipy the tree is never picked: chunked is the fallback.
        assert (picked != "chunked") == HAVE_SCIPY_TREE
        assert auto_backend(100, 2) == "chunked"
        for selection in (None, "auto"):
            backend = resolve_backend(points, selection)
            assert backend.name == picked
            for rows in (few, np.arange(CHUNKED_MAX_POINTS)):
                with backend.subset(rows) as subset:
                    assert type(subset) is ChunkedBackend
            with backend.subset(most) as subset:
                assert subset.name == picked
                with subset.subset(few) as smaller:
                    assert type(smaller) is ChunkedBackend
        named = resolve_backend(points, picked)
        assert type(named.subset(few)) is type(named)


@pytest.mark.needs_scipy
class TestIntegration:
    def test_radius_score_backend_equivalence(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(size=(90, 3))
        radii = np.linspace(0.0, 1.8, 33)
        base = RadiusScore(points, 30, backend="chunked").evaluate(radii)
        assert np.array_equal(
            RadiusScore(points, 30, backend="tree").evaluate(radii), base
        )

    def test_good_radius_backend_independent(self, small_cluster_data, loose_params):
        results = {
            name: good_radius(small_cluster_data.points, 200, loose_params,
                              rng=11, backend=name)
            for name in BACKENDS
        }
        radii = {result.radius for result in results.values()}
        # Identical scores + identical rng stream => identical release.
        assert len(radii) == 1

    def test_counts_around_points_backend_param(self):
        points = DATASETS["duplicates"]
        default = counts_around_points(points, 0.0)
        for name in BACKENDS:
            assert np.array_equal(
                counts_around_points(points, 0.0, backend=name), default
            )


@pytest.mark.slow
class TestMemoryGuard:
    """Chunked/Tree at n = 20k must never allocate an (n, n) array.

    Marked slow (n = 20k work): runs in the dedicated ``-m slow`` CI job, not
    the tier-1 loop."""

    N = 20000
    TARGET = 200

    @pytest.fixture(scope="class")
    def big_points(self):
        return np.random.default_rng(17).uniform(size=(self.N, 2))

    @pytest.mark.parametrize("name", [
        "chunked", pytest.param("tree", marks=pytest.mark.needs_scipy)])
    def test_no_quadratic_allocation(self, big_points, name):
        backend = BACKENDS[name](big_points)
        matrix_bytes = self.N * self.N * 8
        tracemalloc.start()
        try:
            backend.radius_counts(0.02)
            scores = backend.capped_average_scores(
                np.linspace(0.0, 0.3, 48), self.TARGET
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.shape == (48,)
        assert np.all(np.diff(scores) >= 0)
        # Well under the 3.2 GB a full (n, n) float64 matrix would cost.
        assert peak < matrix_bytes / 8, f"{name} peaked at {peak / 1e6:.0f} MB"
