"""The private-aggregation baseline (Table 1, row "Private aggregation [16]").

Nissim–Raskhodnikova–Smith (2007) aggregate by privately averaging: when a
*majority* (``t >= 0.51 n``) of the points lie in a ball of radius ``r_opt``,
a noisy center can be computed whose error is ``O(sqrt(d) r_opt / epsilon)``
per the Table-1 row.  The weaknesses the paper highlights — majority-only,
``sqrt(d)`` radius blow-up, large ``n`` requirement — are exactly what the
experiments measure against the 1-cluster algorithm.

We implement the baseline in the same spirit with modern primitives: a
coordinate-wise private trimmed mean.  Each coordinate's trimmed mean (middle
51% of the points) has bounded sensitivity ``axis_length / (0.51 n)``; adding
Gaussian noise scaled to that sensitivity releases a centre, and the radius is
then estimated privately as the distance capturing ``t`` points via a noisy
binary search.  When the cluster is not a majority the trimmed mean lands far
from it, reproducing the "uninformative centre" failure mode described in the
paper.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.accounting.params import PrivacyParams
from repro.core.types import GoodCenterResult, GoodRadiusResult, OneClusterResult
from repro.geometry.balls import Ball
from repro.geometry.grid import GridDomain
from repro.mechanisms.gaussian import gaussian_mechanism
from repro.quasiconcave.binary_search import noisy_binary_search
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_points


def _trimmed_mean(values: np.ndarray, keep_fraction: float) -> float:
    """Mean of the central ``keep_fraction`` of a 1-d value array."""
    ordered = np.sort(values)
    n = ordered.size
    keep = max(1, int(round(keep_fraction * n)))
    start = (n - keep) // 2
    return float(ordered[start:start + keep].mean())


def private_aggregation_cluster(points, target: int, params: PrivacyParams,
                                domain: Optional[GridDomain] = None,
                                beta: float = 0.1, keep_fraction: float = 0.51,
                                rng: RngLike = None) -> OneClusterResult:
    """NRS07-style baseline: private trimmed-mean centre + private radius.

    Parameters
    ----------
    points:
        ``(n, d)`` input points.
    target:
        Desired cluster size ``t`` (the baseline implicitly assumes
        ``t >= keep_fraction * n``; it still runs otherwise, demonstrating its
        failure mode).
    params:
        Privacy budget, split evenly between the centre and the radius.
    domain:
        Optional grid domain (used for the coordinate sensitivity bound and
        the candidate radii); inferred from the data's bounding box otherwise.
    beta:
        Failure probability (reporting only).
    keep_fraction:
        The trimming level (0.51 in [16]).
    rng:
        Seed or generator.
    """
    points = check_points(points)
    target = check_integer(target, "target", minimum=1)
    n, d = points.shape
    if domain is None:
        low = float(np.floor(points.min()))
        high = float(np.ceil(points.max()))
        domain = GridDomain(dimension=d, side=1025, low=low, high=max(high, low + 1.0))
    center_rng, radius_rng = spawn_generators(rng, 2)
    half = params.part(0.5)

    # Centre: coordinate-wise trimmed mean.  Changing one database row moves
    # each coordinate's trimmed mean by at most axis_length / (keep * n), so
    # the L2-sensitivity of the centre vector is sqrt(d) times that.
    keep = max(1, int(round(keep_fraction * n)))
    exact_center = np.array([_trimmed_mean(points[:, axis], keep_fraction)
                             for axis in range(d)])
    sensitivity = math.sqrt(d) * domain.axis_length / keep
    center = np.asarray(
        gaussian_mechanism(exact_center, sensitivity, half, rng=center_rng),
        dtype=float,
    )

    # Radius: noisy binary search over candidate radii for the smallest radius
    # capturing `target` points around the released centre.  The count around
    # a *fixed, already-released* centre has sensitivity 1.
    candidate_radii = domain.candidate_radii()
    distances = np.linalg.norm(points - center[None, :], axis=1)

    def count_within(index: int) -> float:
        return float(np.count_nonzero(distances <= candidate_radii[index]))

    search = noisy_binary_search(count_within, candidate_radii.shape[0],
                                 threshold=float(target), params=half,
                                 sensitivity=1.0, rng=radius_rng)
    radius = float(candidate_radii[search.index])

    radius_result = GoodRadiusResult(radius=radius, gamma=0.0,
                                     score=float(np.count_nonzero(distances <= radius)),
                                     zero_cluster=False, method="private_aggregation")
    center_result = GoodCenterResult(center=center, radius_bound=radius, attempts=1,
                                     projected_dimension=d,
                                     captured_count=int(np.count_nonzero(distances <= radius)))
    return OneClusterResult(ball=Ball(center=center, radius=radius),
                            radius_result=radius_result,
                            center_result=center_result, target=target)


__all__ = ["private_aggregation_cluster"]
