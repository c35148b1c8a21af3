"""Golden release pins: digests of the exact bytes of fixed-seed releases.

The parity suites compare backends against each other (and against the
base serial plan evaluator), so a change that moved *every* backend's
release bytes at once would still pass them.  These tests pin the bytes
themselves: each case's release is reduced to a bitwise fingerprint —
dtype, shape and raw bytes of every array, ``float.hex`` of every float —
and the SHA-256 digest of that fingerprint must equal the stored one, on
every backend.

Covered: ``good_center`` on the identity projection path (one found release
and one NoisyAVG abstain) and ``one_cluster``, each on ``backend=None``,
``"dense"`` and a serial 3-shard ``ShardedBackend``.  The JL path is pinned
by cross-backend parity only: its rotation basis comes from LAPACK QR and
is mapped back with a BLAS matmul, so its last bits may differ between
numpy builds.

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
from repro.core.config import GoodCenterConfig
from repro.core.good_center import good_center
from repro.core.one_cluster import one_cluster
from repro.datasets.synthetic import planted_cluster
from repro.neighbors import ShardedBackend

#: SHA-256 of each case's release fingerprint (backend-independent).
GOLDEN = {
    "good_center_abstain":
        "806b0156e75d6509d1ebeb26d1fada6dbd5dc7646cb72a0b1b821c4d014ac327",
    "good_center_found":
        "7e3a8e4485a66de8cb0ca4658f9b7c4283a9ad7545069c2ba2cf1f633168d0fb",
    "one_cluster":
        "c9b25ff39bf6516fa224d1be1124822878e351b7ca7eb41d57a46969700a8634",
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


CASES = {
    "good_center_found": _good_center_found,
    "good_center_abstain": _good_center_abstain,
    "one_cluster": _one_cluster,
}

BACKENDS = {
    "none": lambda points: None,
    "dense": lambda points: "dense",
    "sharded": lambda points: ShardedBackend(points, num_shards=3,
                                             num_workers=0),
}


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_release_bytes_are_pinned(case, backend_name):
    result = CASES[case](BACKENDS[backend_name])
    assert release_digest(result) == GOLDEN[case]


def test_cases_cover_found_and_abstain():
    """The pins are only meaningful if the cases take the branches they
    are named for."""
    assert _good_center_found(BACKENDS["none"]).found
    abstain = _good_center_abstain(BACKENDS["none"])
    assert not abstain.found
    assert abstain.projected_dimension == 4
    assert _one_cluster(BACKENDS["none"]).found


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}:\n"
              f"        {release_digest(CASES[name](BACKENDS['dense']))!r},")
    sys.exit(0)
