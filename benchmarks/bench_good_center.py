"""Benchmark E10 — GoodCenter in isolation (Lemma 3.7).

``--backend`` forwards a neighbor-backend name into the experiment
(release-neutral: it only moves where the grid hashes and masked sums
run).  The 2-worker smoke below runs ``good_center`` once on ``chunked``
and once on a sharded pool, whose partition search sends doubling attempt
batches, and asserts the two releases are bitwise identical.
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
    release."""
    from repro.accounting.params import PrivacyParams
    from repro.core.good_center import good_center
    from repro.datasets.synthetic import planted_cluster
    from repro.neighbors import BACKENDS

    _, workers = backend_choice
    data = planted_cluster(n=3000, d=4, cluster_size=1000,
                           cluster_radius=0.05, rng=3)
    kwargs = dict(radius=0.05, target=800, params=PrivacyParams(1.0, 1e-6))

    backend = BACKENDS["sharded"](
        data.points, num_workers=2 if workers is None else workers,
        num_shards=4)
    try:
        # Searches of 2 to 9 attempts: the batches grow to the cap.
        results = [(good_center(data.points, rng=seed, backend="chunked",
                                **kwargs),
                    good_center(data.points, rng=seed, backend=backend,
                                **kwargs))
                   for seed in (0, 1, 3, 7)]
    finally:
        backend.close()

    assert any(serial.found for serial, _ in results)
    for serial, sharded in results:
        assert serial.attempts == sharded.attempts
        assert serial.found == sharded.found
        if serial.found:
            assert np.array_equal(serial.center, sharded.center)
            assert serial.radius_bound == sharded.radius_bound
            assert serial.captured_count == sharded.captured_count
