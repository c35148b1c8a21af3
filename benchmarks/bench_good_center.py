"""Benchmark E10 — GoodCenter in isolation (Lemma 3.7).

``--backend`` forwards a neighbor-backend name into the experiment
(release-neutral: it only moves where the grid hashes and masked sums
run).  The 2-worker smoke below runs ``good_center`` at several seeds on
``chunked`` and on one sharded pool per dataset, an identity-path one and
a JL-path one, whose partition searches send doubling attempt batches,
and asserts the releases are bitwise identical.
"""

import numpy as np

from repro.experiments.good_center import run_good_center


def test_good_center_error_decay(benchmark, report, backend_choice):
    name, _ = backend_choice
    kwargs = dict(cluster_sizes=(400, 800, 1600), dimension=4, epsilon=1.0,
                  rng=0)
    if name is not None:
        kwargs["backend"] = name
    rows = report(benchmark, "GoodCenter centre recovery", run_good_center,
                  **kwargs)
    assert len(rows) == 3
    assert any(row["found"] for row in rows)


def test_sharded_search_release_parity(backend_choice):
    """2-worker smoke: the sharded partition search moves time, never the
    release.  Two datasets, each on one pool: d=4 at the default
    ``jl_constant`` takes the identity path; d=8 at ``jl_constant=0.3``
    takes the JL path, whose rotated stage reads the selected rows' images
    the workers memoise per selection, and whose step-7 histogram reads
    the cell tables their search batches kept."""
    from repro.accounting.params import PrivacyParams
    from repro.core.config import GoodCenterConfig
    from repro.datasets.synthetic import planted_cluster

    _, workers = backend_choice
    identity = planted_cluster(n=3000, d=4, cluster_size=1000,
                               cluster_radius=0.05, rng=3)
    # Searches of 2 to 9 attempts: the batches grow to the cap.
    assert_pool_matches_chunked(
        identity.points, workers, (0, 1, 3, 7),
        dict(radius=0.05, target=800, params=PrivacyParams(1.0, 1e-6)),
        jl_path=False,
    )
    jl = planted_cluster(n=3000, d=8, cluster_size=1500, cluster_radius=0.05,
                         rng=3)
    # Searches of 1 to 3 attempts.
    assert_pool_matches_chunked(
        jl.points, workers, (0, 1, 3, 6),
        dict(radius=0.05, target=1200, params=PrivacyParams(8.0, 1e-6),
             config=GoodCenterConfig(jl_constant=0.3)),
        jl_path=True,
    )


def assert_pool_matches_chunked(points, workers, seeds, kwargs, jl_path):
    """``good_center`` at every seed on one 4-shard sharded backend (a
    2-worker pool unless ``--workers`` says otherwise) releases bitwise
    what it releases on ``chunked``."""
    from repro.core.good_center import good_center
    from repro.neighbors import BACKENDS

    backend = BACKENDS["sharded"](
        points, num_workers=2 if workers is None else workers,
        num_shards=4)
    try:
        results = [(good_center(points, rng=seed, backend="chunked",
                                **kwargs),
                    good_center(points, rng=seed, backend=backend,
                                **kwargs))
                   for seed in seeds]
    finally:
        backend.close()

    assert any(serial.found for serial, _ in results)
    for serial, sharded in results:
        assert (sharded.projected_dimension < points.shape[1]) == jl_path
        assert serial.attempts == sharded.attempts
        assert serial.found == sharded.found
        if serial.found:
            assert np.array_equal(serial.center, sharded.center)
            assert serial.radius_bound == sharded.radius_bound
            assert serial.captured_count == sharded.captured_count
