"""Shared fixtures for the test suite.

Tests of the private algorithms use generous privacy budgets and fixed seeds
so that the (randomised) utility assertions hold deterministically; the
privacy-accounting tests exercise the budget arithmetic separately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.datasets.synthetic import planted_cluster

#: The ``backend=`` selections the ``neighbor_backend`` fixture cycles
#: through.  "reference" is the in-parent path (``backend=None``); "sharded"
#: builds a 3-shard serial instance so the fan-out/merge code runs without a
#: worker pool (pool transport itself is covered by the slow suite).
BACKEND_CHOICES = ("reference", "chunked", "tree", "sharded")


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        default=None,
        choices=BACKEND_CHOICES,
        help="restrict tests using the neighbor_backend fixture to one "
             "backend (default: run them across all of them)",
    )


def pytest_generate_tests(metafunc):
    if "neighbor_backend" in metafunc.fixturenames:
        option = metafunc.config.getoption("--backend")
        names = [option] if option else list(BACKEND_CHOICES)
        metafunc.parametrize("neighbor_backend", names, indirect=True)


@pytest.fixture
def neighbor_backend(request):
    """A per-backend factory: ``neighbor_backend(points)`` returns the value
    to pass as ``backend=`` for the parametrized backend name.

    End-to-end tests take this fixture to run once per backend without
    duplicating their bodies; ``pytest --backend tree`` (etc.) restricts the
    sweep to a single strategy.  The selected name is exposed as
    ``neighbor_backend.backend_name``.
    """
    name = request.param

    def factory(points):
        if name == "reference":
            return None
        if name == "sharded":
            from repro.neighbors import ShardedBackend

            return ShardedBackend(points, num_shards=3, num_workers=0)
        return name

    factory.backend_name = name
    return factory


@pytest.fixture
def rng():
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def loose_params():
    """A generous privacy budget used for utility assertions."""
    return PrivacyParams(epsilon=8.0, delta=1e-5)


@pytest.fixture
def standard_params():
    """A typical budget used for accounting / plumbing tests."""
    return PrivacyParams(epsilon=1.0, delta=1e-6)


@pytest.fixture
def small_cluster_data():
    """A small planted-cluster dataset (n=600, d=2) shared across tests."""
    return planted_cluster(n=600, d=2, cluster_size=250, cluster_radius=0.05,
                           center=[0.5, 0.5], rng=7)


@pytest.fixture
def medium_cluster_data():
    """A medium planted-cluster dataset (n=1200, d=4)."""
    return planted_cluster(n=1200, d=4, cluster_size=500, cluster_radius=0.05,
                           center=[0.5, 0.5, 0.5, 0.5], rng=11)
