"""Backend ownership: a solver closes the backend it builds, never the caller's.

``good_center``, ``good_radius`` and ``one_cluster`` all accept ``backend=``
as ``None``, a registry name, a class, or an instance.  A backend built
inside the call (from ``None``, a name or a class) is the call's to close —
on success *and* when the release raises, since a live exception's
traceback would otherwise keep a sharded backend's worker pool and
shared-memory segment reachable.  An instance belongs to the caller and
stays open either way.
"""

import pytest

from repro.accounting.params import PrivacyParams
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.core.one_cluster import one_cluster
from repro.datasets.synthetic import planted_cluster
from repro.neighbors import ChunkedBackend

PARAMS = PrivacyParams(8.0, 1e-5)

SOLVERS = {
    "good_center": lambda points, backend: good_center(
        points, radius=0.05, target=250, params=PARAMS, rng=0,
        backend=backend),
    "good_radius": lambda points, backend: good_radius(
        points, 250, PARAMS, rng=0, backend=backend),
    "one_cluster": lambda points, backend: one_cluster(
        points, target=250, params=PARAMS, rng=0, backend=backend),
}


@pytest.fixture(scope="module")
def points():
    return planted_cluster(n=600, d=2, cluster_size=250, cluster_radius=0.05,
                           center=[0.5, 0.5], rng=7).points


def recording_classes():
    """A ChunkedBackend subclass that logs ``close()`` calls, and a
    subclass of it whose every query raises."""
    closed = []

    class Recording(ChunkedBackend):
        def close(self):
            closed.append(self)

    class Failing(Recording):
        def execute(self, plan):
            raise RuntimeError("injected query failure")

    return Recording, Failing, closed


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_built_backend_closed_on_success_and_error(points, solver):
    run = SOLVERS[solver]
    Recording, Failing, closed = recording_classes()
    run(points, Recording)
    assert len(closed) == 1
    with pytest.raises(RuntimeError, match="injected"):
        run(points, Failing)
    assert len(closed) == 2
    assert isinstance(closed[1], Failing)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_caller_instance_stays_open(points, solver):
    run = SOLVERS[solver]
    Recording, Failing, closed = recording_classes()
    run(points, Recording(points))
    with pytest.raises(RuntimeError, match="injected"):
        run(points, Failing(points))
    assert closed == []
