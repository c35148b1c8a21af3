"""The exponential-mechanism baseline (Table 1, row "Exponential mechanism").

Section 1.2: given a radius ``r`` such that some ball of radius ``r`` in
``X^d`` contains ``t`` points, the exponential mechanism over all ``|X|^d``
candidate centres identifies a ball of radius ``r`` containing
``t - O(log(|X|^d)/epsilon)`` points.  The radius itself is found with a
private binary search over candidate radii, multiplying the loss by another
``O(log(sqrt(d) |X|))`` factor.  The resulting approximation factor is
``w = 1`` (it searches over *exact* grid radii), but the running time is
``poly(n, |X|^d)`` — exponential in the dimension — which is why the paper
only treats it as a comparison point.

This implementation enumerates the full grid of candidate centres, so it is
only usable for small ``|X|`` and ``d <= 2``-ish; the Table-1 experiment runs
it exactly in that regime.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from repro.accounting.params import PrivacyParams
from repro.core.types import GoodCenterResult, GoodRadiusResult, OneClusterResult
from repro.geometry.balls import Ball
from repro.geometry.grid import GridDomain
from repro.mechanisms.exponential import report_noisy_max
from repro.neighbors import HAVE_SCIPY_TREE, BackendLike, backend_scope
from repro.quasiconcave.binary_search import noisy_binary_search
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_points

_MAX_CANDIDATE_CENTERS = 2_000_000


def _grid_centers(domain: GridDomain) -> np.ndarray:
    """Enumerate all grid points of the domain (guarded against explosion)."""
    if domain.num_points > _MAX_CANDIDATE_CENTERS:
        raise ValueError(
            f"the exponential-mechanism baseline enumerates |X|^d = "
            f"{domain.num_points:.3g} candidate centres, which exceeds the "
            f"guard of {_MAX_CANDIDATE_CENTERS}; use a smaller domain or "
            "lower dimension"
        )
    axis = domain.axis_values()
    grids = list(itertools.product(axis, repeat=domain.dimension))
    return np.asarray(grids, dtype=float)


def exponential_mechanism_cluster(points, target: int, params: PrivacyParams,
                                  domain: GridDomain, beta: float = 0.1,
                                  rng: RngLike = None,
                                  backend: BackendLike = None) -> OneClusterResult:
    """Solve the 1-cluster problem with the exponential mechanism.

    The budget is split evenly between the radius binary search and the
    centre selection.

    Parameters
    ----------
    points:
        ``(n, d)`` input points (should lie in ``domain``).
    target:
        Desired cluster size ``t``.
    params:
        Privacy budget.
    domain:
        The finite grid domain whose grid points are the candidate centres.
    beta:
        Failure probability (only used for reporting bounds).
    rng:
        Seed or generator.
    backend:
        Neighbor-backend selection for the per-centre capture counts (the
        former implementation materialised the full ``(|X|^d, n)`` distance
        matrix; backends answer the same counts without it).
    """
    points = check_points(points, dimension=domain.dimension)
    target = check_integer(target, "target", minimum=1)
    if target > points.shape[0]:
        raise ValueError("target cannot exceed the number of points")
    radius_rng, center_rng = spawn_generators(rng, 2)
    half = params.part(0.5)

    centers = _grid_centers(domain)
    candidate_radii = domain.candidate_radii()
    if backend is None:
        # This baseline's load is the |X|^d candidate centres, not the n data
        # points auto_backend keys on, so default to the tree: each probed
        # radius is one batched query over all centres.
        backend = "tree" if HAVE_SCIPY_TREE else "chunked"
    with backend_scope(points, backend) as neighbor_backend:
        # Binary search for the smallest radius capturing ~t points at some
        # centre.  The max-count score has sensitivity 1 in the database;
        # each probed radius is one batched query over all centres.
        def max_count(index: int) -> float:
            radius = float(candidate_radii[index])
            return float(neighbor_backend.query_radius_counts(centers,
                                                              radius).max())

        search = noisy_binary_search(max_count, candidate_radii.shape[0],
                                     threshold=float(target), params=half,
                                     sensitivity=1.0, rng=radius_rng)
        radius = float(candidate_radii[search.index])

        # Exponential mechanism over candidate centres at that radius.
        counts = neighbor_backend.query_radius_counts(centers,
                                                      radius).astype(float)
    chosen = report_noisy_max(counts, half, sensitivity=1.0, rng=center_rng)
    center = centers[chosen]

    radius_result = GoodRadiusResult(radius=radius, gamma=0.0,
                                     score=float(counts[chosen]),
                                     zero_cluster=False,
                                     method="exponential_mechanism")
    center_result = GoodCenterResult(center=center, radius_bound=radius,
                                     attempts=1, projected_dimension=domain.dimension,
                                     captured_count=int(counts[chosen]))
    return OneClusterResult(ball=Ball(center=center, radius=radius),
                            radius_result=radius_result,
                            center_result=center_result, target=target)


def exponential_baseline_loss_bound(domain: GridDomain, params: PrivacyParams,
                                    beta: float = 0.1) -> float:
    """The Table-1 loss of this baseline:
    ``Delta = O~(d) * log^2(|X|) / epsilon`` (centre selection over ``|X|^d``
    candidates plus a binary search over ``O(log(sqrt(d)|X|))`` radii)."""
    d, side = domain.dimension, domain.side
    center_loss = (2.0 / params.epsilon) * math.log(domain.num_points / beta)
    radius_levels = max(1, int(math.ceil(math.log2(domain.rec_concave_solution_count()))))
    radius_loss = (radius_levels / params.epsilon) * math.log(radius_levels / beta)
    return center_loss + radius_loss


__all__ = ["exponential_mechanism_cluster", "exponential_baseline_loss_bound"]
