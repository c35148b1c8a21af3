"""Non-private reference solvers for the minimal ball enclosing ``t`` points.

The paper recalls three facts about the (non-private) problem (Section 3):

1. It is NP-hard to solve exactly in general dimension (Shenmaier 2013).
2. A PTAS exists (Agarwal et al.).
3. There is a trivial factor-2 approximation: consider only balls centred at
   input points and return the smallest one containing ``t`` points.

These reference solvers provide the ``r_opt`` values experiments compare the
private algorithms against:

* :func:`smallest_ball_two_approx` — the factor-2 approximation (any d).
* :func:`smallest_interval_1d` / :func:`smallest_ball_exact_1d` — exact in
  one dimension via a sliding window over the sorted points.
* :func:`optimal_radius_lower_bound` — ``r_2approx / 2``, a certified lower
  bound on ``r_opt`` used when reporting approximation factors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.geometry.balls import Ball
from repro.utils.validation import check_points

if TYPE_CHECKING:
    from repro.neighbors import BackendLike


def smallest_ball_two_approx(points: np.ndarray, target: int,
                             backend: BackendLike = None) -> Ball:
    """Factor-2 approximation of the smallest ball containing ``target`` points.

    Returns the smallest ball *centred at an input point* that contains at
    least ``target`` input points.  Its radius is at most ``2 * r_opt``
    (paper Section 3, fact 3).

    Parameters
    ----------
    points:
        ``(n, d)`` input points.
    target:
        The number of points the ball must contain (``1 <= target <= n``).
    backend:
        Neighbor-backend selection; the backend's ``k``-th-nearest-distance
        query is exactly the per-centre radius this approximation minimises.
    """
    # Imported here: the plan engine (repro.neighbors) imports this package.
    from repro.neighbors import backend_scope

    points = check_points(points)
    n = points.shape[0]
    if not (1 <= target <= n):
        raise ValueError(f"target must lie in [1, n={n}], got {target}")
    # For each candidate centre, the radius needed to capture `target` points
    # is the target-th smallest distance from that centre.
    with backend_scope(points, backend) as resolved:
        radii_needed = resolved.kth_distances(target)
    best_index = int(np.argmin(radii_needed))
    return Ball(center=points[best_index].copy(), radius=float(radii_needed[best_index]))


def optimal_radius_lower_bound(points: np.ndarray, target: int,
                               backend: BackendLike = None) -> float:
    """A certified lower bound on ``r_opt``: half the 2-approximation radius."""
    return smallest_ball_two_approx(points, target,
                                    backend=backend).radius / 2.0


def smallest_interval_1d(values: np.ndarray, target: int) -> Tuple[float, float]:
    """The smallest interval ``[low, high]`` containing ``target`` of the values.

    Exact, ``O(n log n)``: sort and slide a window of ``target`` consecutive
    points.  Returns the interval endpoints.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    n = values.size
    if not (1 <= target <= n):
        raise ValueError(f"target must lie in [1, n={n}], got {target}")
    ordered = np.sort(values)
    widths = ordered[target - 1:] - ordered[: n - target + 1]
    best = int(np.argmin(widths))
    return float(ordered[best]), float(ordered[best + target - 1])


def smallest_ball_exact_1d(values: np.ndarray, target: int) -> Ball:
    """The exact smallest 1-d ball (interval) containing ``target`` points."""
    low, high = smallest_interval_1d(values, target)
    center = np.array([(low + high) / 2.0])
    return Ball(center=center, radius=(high - low) / 2.0)


def smallest_ball_exhaustive(points: np.ndarray, target: int,
                             candidate_centers: np.ndarray) -> Ball:
    """Smallest ball containing ``target`` points among explicit candidate centres.

    Used by the exponential-mechanism baseline, which searches over grid
    centres; also handy in tests for tiny exact instances.
    """
    points = check_points(points)
    candidate_centers = check_points(candidate_centers, dimension=points.shape[1])
    n = points.shape[0]
    if not (1 <= target <= n):
        raise ValueError(f"target must lie in [1, n={n}], got {target}")
    best_ball = None
    for center in candidate_centers:
        distances = np.linalg.norm(points - center[None, :], axis=1)
        radius = float(np.partition(distances, target - 1)[target - 1])
        if best_ball is None or radius < best_ball.radius:
            best_ball = Ball(center=center.copy(), radius=radius)
    return best_ball


__all__ = [
    "smallest_ball_two_approx",
    "optimal_radius_lower_bound",
    "smallest_interval_1d",
    "smallest_ball_exact_1d",
    "smallest_ball_exhaustive",
]
