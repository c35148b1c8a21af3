"""Benchmark E9 — GoodRadius in isolation (Lemma 3.6).

``--backend`` forwards a neighbor-backend name into the experiment, which
threads it through the solver's profile and the non-private reference
(``smallest_ball_two_approx`` reads ``kth_distances``); it is
release-neutral.  The 2-worker smoke below runs ``good_radius`` once on
``chunked`` and once on a sharded pool, whose shards keep their truncated
statistic column-sorted, and asserts the two releases are bitwise
identical — on shards holding fewer rows than the target and on shards
holding more.
"""

import pytest

from repro.experiments.good_radius import run_good_radius


def test_good_radius_guarantees(benchmark, report, backend_choice):
    name, _ = backend_choice
    kwargs = dict(cluster_radii=(0.02, 0.05, 0.1), n=2000, dimension=4,
                  epsilon=1.0, rng=0)
    if name is not None:
        kwargs["backend"] = name
    rows = report(benchmark, "GoodRadius guarantees", run_good_radius,
                  **kwargs)
    assert len(rows) == 3
    # Lemma 3.6: released radius <= 4 r_opt; the lower-bound column certifies
    # r_opt >= 2approx/2, so the ratio against that bound must be <= 8.
    assert all(row["ratio_vs_lower_bound"] <= 8.0 + 1e-9 for row in rows)


@pytest.mark.parametrize("n, target", [(400, 200), (1200, 150)],
                         ids=["shard-rows-below-target",
                              "shard-rows-above-target"])
def test_sharded_profile_release_parity(backend_choice, n, target):
    """2-worker smoke: the column-sorted shard statistic moves time, never
    the release."""
    from repro.accounting.params import PrivacyParams
    from repro.core.good_radius import good_radius
    from repro.datasets.synthetic import planted_cluster
    from repro.neighbors import BACKENDS

    _, workers = backend_choice
    data = planted_cluster(n=n, d=4, cluster_size=int(0.4 * n),
                           cluster_radius=0.05, rng=4)
    params = PrivacyParams(1.0, 1e-6)
    backend = BACKENDS["sharded"](
        data.points, num_workers=2 if workers is None else workers,
        num_shards=4)
    try:
        # Rows per shard against the target: n / 4 is 100 < 200, or 300 > 150.
        assert all((high - low < target) == (n == 400)
                   for low, high in backend.shard_bounds)
        results = [(good_radius(data.points, target, params, rng=seed,
                                backend="chunked"),
                    good_radius(data.points, target, params, rng=seed,
                                backend=backend))
                   for seed in (0, 5)]
    finally:
        backend.close()

    for serial, sharded in results:
        assert serial.radius == sharded.radius
        assert serial.zero_cluster == sharded.zero_cluster
        assert serial.score == sharded.score
