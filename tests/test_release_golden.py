"""Golden release pins: digests of the exact bytes of fixed-seed releases.

The parity suites compare backends against each other (and against the
base serial plan evaluator), so a change that moved *every* backend's
release bytes at once would still pass them.  These tests pin the bytes
themselves: each case's release is reduced to a bitwise fingerprint —
dtype, shape and raw bytes of every array, ``float.hex`` of every float —
and the SHA-256 digest of that fingerprint must equal the stored one, on
every backend.

Covered, each on ``backend=None``, ``"tree"`` and a serial 3-shard
``ShardedBackend``: ``good_center`` on the identity projection path (one
found release and one NoisyAVG abstain), ``one_cluster``, ``good_radius``
under both radius searches (RecConcave and noisy binary search),
``int_point`` (whose instance backend answers the step-4 depth plan, while
a name goes to its cluster solver), ``k_cluster`` (two rounds, the second
on the subset of points the first ball left) and the exponential-mechanism
baseline.  The private-aggregation baseline takes no backend and is pinned
once.  The JL path is pinned by cross-backend parity only: its rotation
basis comes from LAPACK QR and is mapped back with a BLAS matmul, so its
last bits may differ between numpy builds.

A digest mismatch means some release changed.  If the change is
intentional (a new mechanism, a new noise stream), recapture the digests
with ``python tests/test_release_golden.py`` and say why in the commit.
"""

import dataclasses
import hashlib
import sys

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.baselines.exponential_ball import exponential_mechanism_cluster
from repro.baselines.private_aggregation import private_aggregation_cluster
from repro.clustering.k_cluster import k_cluster
from repro.core.config import GoodCenterConfig, OneClusterConfig
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.core.one_cluster import one_cluster
from repro.datasets.synthetic import gaussian_blobs, planted_cluster
from repro.geometry.grid import GridDomain
from repro.lowerbound import int_point
from repro.neighbors import ShardedBackend

#: SHA-256 of each case's release fingerprint (backend-independent).
GOLDEN = {
    "good_center_abstain":
        "806b0156e75d6509d1ebeb26d1fada6dbd5dc7646cb72a0b1b821c4d014ac327",
    "good_center_found":
        "7e3a8e4485a66de8cb0ca4658f9b7c4283a9ad7545069c2ba2cf1f633168d0fb",
    "one_cluster":
        "c9b25ff39bf6516fa224d1be1124822878e351b7ca7eb41d57a46969700a8634",
    "good_radius_recconcave":
        "cce901627ade7fd14ea3a94b9eb9dc4e2f5f217a6bef5f05388f866afc45c50e",
    "good_radius_binary_search":
        "37e6dc9b411e83ec32e78dadcfb821fdb220d555cee8300d89aa8b605978896a",
    "int_point":
        "27d147fd044941fe5707303dbf46d3b8f935cb7d7c066be96cd0307b3cf0c3ca",
    "exponential_mechanism_cluster":
        "12166e528791a8ba5d23be6cf0e5c2715bc13f57837bc944602333137a2ebe15",
    "private_aggregation_cluster":
        "0ab589150d7249bb4c4160821fa6b8898be7f200e536b7315cb1e015724da010",
    "k_cluster":
        "6463810f5af8baa5023104453fb6b96cb75a215b801110e0a09686151d8b99c0",
}

#: A NoisyAVG slice this small makes the pessimistic count non-positive,
#: so the release abstains at step 11 after every earlier stage succeeded.
STARVED = GoodCenterConfig(budget_split=(0.4, 0.4, 0.15, 0.001))


def _fingerprint_parts(value, out: list) -> None:
    if value is None or isinstance(value, (bool, str)):
        out.append(repr(value).encode())
    elif isinstance(value, (int, np.integer)):
        out.append(b"int:" + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        out.append(b"float:" + float(value).hex().encode())
    elif isinstance(value, (list, tuple)):
        out.append(f"{type(value).__name__}:{len(value)}".encode())
        for item in value:
            _fingerprint_parts(item, out)
    elif isinstance(value, np.ndarray):
        out.append(f"array:{value.dtype.str}:{value.shape}:".encode())
        out.append(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        out.append(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            out.append(field.name.encode())
            _fingerprint_parts(getattr(value, field.name), out)
    else:
        raise TypeError(f"cannot fingerprint {type(value).__name__}")


def release_digest(result) -> str:
    """SHA-256 of a release's bitwise fingerprint."""
    parts: list = []
    _fingerprint_parts(result, parts)
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _medium_points():
    return planted_cluster(n=1200, d=4, cluster_size=500, cluster_radius=0.05,
                           center=[0.5] * 4, rng=11).points


def _small_points():
    return planted_cluster(n=600, d=2, cluster_size=250, cluster_radius=0.05,
                           center=[0.5, 0.5], rng=7).points


def _good_center_found(backend):
    points = _medium_points()
    return good_center(points, radius=0.05, target=400,
                       params=PrivacyParams(8.0, 1e-5), rng=0,
                       backend=backend(points))


def _good_center_abstain(backend):
    points = _medium_points()
    return good_center(points, radius=0.05, target=400,
                       params=PrivacyParams(8.0, 1e-5), config=STARVED,
                       rng=3, backend=backend(points))


def _one_cluster(backend):
    points = _small_points()
    return one_cluster(points, target=250, params=PrivacyParams(8.0, 1e-5),
                       rng=4, backend=backend(points))


def _good_radius(radius_method):
    def run(backend):
        points = _small_points()
        return good_radius(points, target=250, params=PrivacyParams(4.0, 1e-5),
                           config=OneClusterConfig(radius_method=radius_method),
                           rng=5, backend=backend(points))
    return run


def _line_values():
    return np.random.default_rng(1).normal(500.0, 40.0, size=400)


def _int_point(backend):
    values = _line_values()
    return int_point(values, 200, PrivacyParams(2.0, 1e-6), rng=7,
                     backend=backend(values.reshape(-1, 1)))


def _exponential_mechanism(backend):
    domain = GridDomain.unit_cube(dimension=2, side=17)
    points = domain.snap(np.clip(_small_points(), 0.0, 1.0))
    return exponential_mechanism_cluster(points, target=200,
                                         params=PrivacyParams(4.0, 1e-6),
                                         domain=domain, rng=1,
                                         backend=backend(points))


def _k_cluster(backend):
    points, _, _ = gaussian_blobs(n=500, d=2, k=2, spread=0.02, rng=6)
    result = k_cluster(points, k=2, params=PrivacyParams(10.0, 1e-5), rng=9,
                       backend=backend(points))
    # ball_coverages is a non-private diagnostic, not part of the release.
    return result.balls, result.results, result.covered_fraction


def _private_aggregation():
    points = planted_cluster(n=800, d=2, cluster_size=700,
                             cluster_radius=0.05, center=[0.5, 0.5],
                             rng=2).points
    return private_aggregation_cluster(points, target=500,
                                       params=PrivacyParams(4.0, 1e-6), rng=3)


CASES = {
    "good_center_found": _good_center_found,
    "good_center_abstain": _good_center_abstain,
    "one_cluster": _one_cluster,
    "good_radius_recconcave": _good_radius("recconcave"),
    "good_radius_binary_search": _good_radius("binary_search"),
    "int_point": _int_point,
    "exponential_mechanism_cluster": _exponential_mechanism,
    "k_cluster": _k_cluster,
}

#: Cases whose solver takes no ``backend=`` argument.
BACKEND_FREE_CASES = {
    "private_aggregation_cluster": _private_aggregation,
}

BACKENDS = {
    "none": lambda points: None,
    "tree": lambda points: "tree",
    "sharded": lambda points: ShardedBackend(points, num_shards=3,
                                             num_workers=0),
}


@pytest.mark.parametrize("backend_name", [
    "none", "sharded", pytest.param("tree", marks=pytest.mark.needs_scipy)])
@pytest.mark.parametrize("case", sorted(CASES))
def test_release_bytes_are_pinned(case, backend_name):
    result = CASES[case](BACKENDS[backend_name])
    assert release_digest(result) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(BACKEND_FREE_CASES))
def test_backend_free_release_bytes_are_pinned(case):
    assert release_digest(BACKEND_FREE_CASES[case]()) == GOLDEN[case]


def test_cases_cover_found_and_abstain():
    """The pins are only meaningful if the cases take the branches they
    are named for."""
    assert _good_center_found(BACKENDS["none"]).found
    abstain = _good_center_abstain(BACKENDS["none"])
    assert not abstain.found
    assert abstain.projected_dimension == 4
    assert _one_cluster(BACKENDS["none"]).found
    # The radius searches and IntPoint's depth selection run only past
    # their zero-radius exits.
    for method in ("recconcave", "binary_search"):
        assert not _good_radius(method)(BACKENDS["none"]).zero_cluster
    assert not _int_point(BACKENDS["none"]).is_zero_radius
    # Both rounds release a ball, and the second runs on a strict subset.
    balls, _, covered_fraction = _k_cluster(BACKENDS["none"])
    assert len(balls) == 2
    assert 0.0 < covered_fraction < 1.0


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}:\n"
              f"        {release_digest(CASES[name](BACKENDS['tree']))!r},")
    for name in sorted(BACKEND_FREE_CASES):
        print(f"    {name!r}:\n"
              f"        {release_digest(BACKEND_FREE_CASES[name]())!r},")
    sys.exit(0)
