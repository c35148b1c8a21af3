"""repro — a reproduction of "Locating a Small Cluster Privately".

Nissim, Stemmer, and Vadhan (PODS 2016) give an efficient
``(epsilon, delta)``-differentially-private algorithm for the *1-cluster
problem*: locating a ball of approximately minimal radius that contains at
least ``t`` of the ``n`` input points.  This package implements that algorithm
(GoodRadius + GoodCenter), every substrate it relies on (DP primitive
mechanisms, quasi-concave promise-problem solvers, geometric tools), the
baselines it is compared against, the sample-and-aggregate framework built on
top of it, and the lower-bound machinery of the paper's Section 5.

Quickstart
----------
>>> import numpy as np
>>> from repro import one_cluster, PrivacyParams
>>> from repro.datasets import planted_cluster
>>> data = planted_cluster(n=2000, d=4, cluster_size=600, cluster_radius=0.05,
...                        rng=0)
>>> result = one_cluster(data.points, target=500,
...                      params=PrivacyParams(epsilon=1.0, delta=1e-6), rng=0)
>>> result.found
True
"""

from repro.accounting import PrivacyParams, PrivacyLedger
from repro.core import (
    one_cluster,
    good_radius,
    good_center,
    OneClusterResult,
    GoodRadiusResult,
    GoodCenterResult,
    OneClusterConfig,
    GoodCenterConfig,
)
from repro.geometry import Ball, GridDomain
from repro.clustering import k_cluster, outlier_ball, OutlierScreen
from repro.neighbors import (
    NeighborBackend,
    ChunkedBackend,
    TreeBackend,
    ShardedBackend,
    auto_backend,
    resolve_backend,
)
from repro.sample_aggregate import sample_and_aggregate, StablePointResult

__version__ = "1.0.0"

__all__ = [
    "PrivacyParams",
    "PrivacyLedger",
    "one_cluster",
    "good_radius",
    "good_center",
    "OneClusterResult",
    "GoodRadiusResult",
    "GoodCenterResult",
    "OneClusterConfig",
    "GoodCenterConfig",
    "Ball",
    "GridDomain",
    "NeighborBackend",
    "ChunkedBackend",
    "TreeBackend",
    "ShardedBackend",
    "auto_backend",
    "resolve_backend",
    "k_cluster",
    "outlier_ball",
    "OutlierScreen",
    "sample_and_aggregate",
    "StablePointResult",
    "__version__",
]
