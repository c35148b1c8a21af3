"""Backend ownership: a call closes the backend it builds, never the caller's.

The solvers (``good_center``, ``good_radius``, ``one_cluster``), the
sample-and-aggregate block evaluations, and the geometry and baseline
helpers that query a backend all accept ``backend=``
as ``None``, a registry name, a class, or an instance.  A backend built
inside the call (from ``None``, a name or a class) is the call's to close —
on success *and* when the call raises, since a live exception's traceback
would otherwise keep a sharded backend's worker pool and shared-memory
segment reachable.  An instance belongs to the caller and stays open either
way.  ``k_cluster`` builds more than one backend (the resolved one, and a
subset for each iteration after a released ball covers points), so it has
its own tests below the generic table.
"""

import pytest

from repro.accounting.params import PrivacyParams
from repro.baselines.exponential_ball import exponential_mechanism_cluster
from repro.clustering.k_cluster import k_cluster
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.core.one_cluster import one_cluster
from repro.datasets.synthetic import planted_cluster
from repro.geometry.balls import (
    capped_average_score,
    capped_average_score_profile,
    counts_around_points,
)
from repro.geometry.grid import GridDomain
from repro.geometry.minimal_ball import (
    optimal_radius_lower_bound,
    smallest_ball_two_approx,
)
from repro.neighbors import ChunkedBackend
from repro.sample_aggregate import (
    BlockMean,
    empirical_stability,
    noisy_average_aggregator,
    private_mean_estimator,
)

PARAMS = PrivacyParams(8.0, 1e-5)
DOMAIN = GridDomain.unit_cube(dimension=2, side=17)

CALLS = {
    "good_center": lambda points, backend: good_center(
        points, radius=0.05, target=250, params=PARAMS, rng=0,
        backend=backend),
    "good_radius": lambda points, backend: good_radius(
        points, 250, PARAMS, rng=0, backend=backend),
    "one_cluster": lambda points, backend: one_cluster(
        points, target=250, params=PARAMS, rng=0, backend=backend),
    "counts_around_points": lambda points, backend: counts_around_points(
        points, 0.05, backend=backend),
    "capped_average_score": lambda points, backend: capped_average_score(
        points, 0.05, 250, backend=backend),
    "capped_average_score_profile":
        lambda points, backend: capped_average_score_profile(
            points, [0.02, 0.05], 250, backend=backend),
    "smallest_ball_two_approx":
        lambda points, backend: smallest_ball_two_approx(
            points, 250, backend=backend),
    "optimal_radius_lower_bound":
        lambda points, backend: optimal_radius_lower_bound(
            points, 250, backend=backend),
    "exponential_mechanism_cluster":
        lambda points, backend: exponential_mechanism_cluster(
            points, 250, PARAMS, DOMAIN, rng=0, backend=backend),
    # The noisy-average aggregator builds no backend of its own, so the
    # block evaluation's backend is the only one the call may build.
    "private_mean_estimator":
        lambda points, backend: private_mean_estimator(
            points, 20, PARAMS, rng=0, backend=backend,
            aggregator=noisy_average_aggregator(1.0, center=[0.5, 0.5])),
    "empirical_stability":
        lambda points, backend: empirical_stability(
            points, BlockMean(), [0.5, 0.5], block_size=20, radius=0.1,
            repetitions=5, rng=0, backend=backend),
}


@pytest.fixture(scope="module")
def points():
    return planted_cluster(n=600, d=2, cluster_size=250, cluster_radius=0.05,
                           center=[0.5, 0.5], rng=7).points


def recording_classes():
    """A ChunkedBackend subclass that logs ``close()`` calls, and a
    subclass of it whose every query raises: plans, and each direct query
    one of the helpers issues."""
    closed = []

    class Recording(ChunkedBackend):
        def close(self):
            closed.append(self)

    class Failing(Recording):
        def _fail(self, *args, **kwargs):
            raise RuntimeError("injected query failure")

        execute = query_radius_counts = count_within_many = _fail
        capped_average_scores = _compute_truncated_squared = _fail

    return Recording, Failing, closed


@pytest.mark.parametrize("call", sorted(CALLS))
def test_built_backend_closed_on_success_and_error(points, call):
    run = CALLS[call]
    Recording, Failing, closed = recording_classes()
    run(points, Recording)
    assert len(closed) == 1
    with pytest.raises(RuntimeError, match="injected"):
        run(points, Failing)
    assert len(closed) == 2
    assert isinstance(closed[1], Failing)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_caller_instance_stays_open(points, call):
    run = CALLS[call]
    Recording, Failing, closed = recording_classes()
    run(points, Recording(points))
    with pytest.raises(RuntimeError, match="injected"):
        run(points, Failing(points))
    assert closed == []


def test_k_cluster_closes_resolved_and_subset_backends(points):
    """The resolved backend (which runs the first iteration) and every
    later iteration's subset are closed, on success and when the resolved
    backend or a subset raises."""
    Recording, Failing, closed = recording_classes()
    result = k_cluster(points, k=2, params=PARAMS, rng=0, backend=Recording)
    assert len(result.results) == 2 and result.num_found >= 1
    # Iteration 2's subset closes first; the resolved backend spans every
    # point and closes last.
    assert len({id(backend) for backend in closed}) == len(closed) == 2
    assert closed[0].num_points < points.shape[0] == closed[1].num_points
    del closed[:]
    with pytest.raises(RuntimeError, match="injected"):
        k_cluster(points, k=2, params=PARAMS, rng=0, backend=Failing)
    assert len(closed) == 1 and isinstance(closed[0], Failing)
    del closed[:]

    class FailingSubsets(Recording):
        def subset(self, rows):
            return Failing(self.points[rows])

    with pytest.raises(RuntimeError, match="injected"):
        k_cluster(points, k=2, params=PARAMS, rng=0, backend=FailingSubsets)
    assert [type(backend) for backend in closed] == [Failing, FailingSubsets]


def test_k_cluster_leaves_caller_instance_open(points):
    """A caller's instance runs the first iteration and stays open; the
    subsets k_cluster built from it are closed, on success and when one
    raises."""
    Recording, Failing, closed = recording_classes()
    instance = Recording(points)
    result = k_cluster(points, k=2, params=PARAMS, rng=0, backend=instance)
    assert len(result.results) == 2 and result.num_found >= 1
    assert len(closed) == 1 and closed[0].num_points < points.shape[0]

    class FailingSubsets(Recording):
        def subset(self, rows):
            return Failing(self.points[rows])

    failing = FailingSubsets(points)
    with pytest.raises(RuntimeError, match="injected"):
        k_cluster(points, k=2, params=PARAMS, rng=0, backend=failing)
    assert len(closed) == 2 and isinstance(closed[1], Failing)
    with pytest.raises(RuntimeError, match="injected"):
        k_cluster(points, k=2, params=PARAMS, rng=0,
                  backend=Failing(points))
    assert len(closed) == 2
    assert instance not in closed and failing not in closed
