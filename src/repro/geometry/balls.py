"""Ball counting and the capped-average score ``L(r, S)``.

The heart of GoodRadius (paper Section 3.1) is the function

``L(r, S) = (1/t) * max over distinct i_1..i_t of sum_j Bbar_r(x_{i_j}, S)``

where ``Bbar_r(x, S) = min(B_r(x, S), t)`` counts (capped at ``t``) the input
points within distance ``r`` of ``x``.  Averaging the ``t`` largest capped
counts reduces the sensitivity of the naive max-count score from ``Omega(t)``
to 2 (paper Lemma 4.5), which is what makes a private binary search /
RecConcave invocation possible.

This module provides vectorised implementations of those quantities plus a
:class:`Ball` value type used across the public API.  All counting routes
through the pluggable :mod:`repro.neighbors` backend layer (blocked brute
force, KD-tree, or sharded — pass ``backend=`` to choose; the default
``"auto"`` picks by workload size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.neighbors import BackendLike, backend_scope
from repro.utils.validation import check_points, check_positive


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball: a centre and a radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float).reshape(-1)
        object.__setattr__(self, "center", center)
        if self.radius < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    @property
    def dimension(self) -> int:
        """The ambient dimension of the ball's centre."""
        return int(self.center.shape[0])

    def contains(self, points, *, slack: float = 0.0) -> np.ndarray:
        """Boolean mask of the points within ``radius + slack`` of the centre."""
        points = check_points(points, dimension=self.dimension)
        distances = np.linalg.norm(points - self.center[None, :], axis=1)
        return distances <= self.radius + slack

    def count(self, points, *, slack: float = 0.0) -> int:
        """The number of points inside the (slack-enlarged) ball."""
        return int(np.count_nonzero(self.contains(points, slack=slack)))

    def scaled(self, factor: float) -> "Ball":
        """A ball with the same centre and ``factor`` times the radius."""
        check_positive(factor, "factor")
        return Ball(center=self.center.copy(), radius=self.radius * factor)


def ball_membership(points: np.ndarray, center: np.ndarray,
                    radius: float) -> np.ndarray:
    """Boolean mask of the points within ``radius`` of ``center``.

    The *single definition* of sphere membership shared by GoodCenter's
    step 10 (the captured count), NoisyAVG's selection predicate, and the
    neighbor-backend masked clipped-sum query
    (:meth:`repro.neighbors.base.ProjectedView.masked_clipped_sum`).  Each
    row's norm is computed independently of which other rows are present, so
    the mask is row-decomposable — a shard evaluating it over its own slice
    reproduces the parent's mask bitwise, which is what lets the clipped sum
    merge across shards without moving a byte of any release.
    """
    points = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float).reshape(-1)
    return np.linalg.norm(points - center[None, :], axis=1) <= radius


def count_in_ball(points: np.ndarray, center: np.ndarray, radius: float) -> int:
    """``B_r(center, S)``: the number of points within ``radius`` of ``center``."""
    points = check_points(points)
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape[0] != points.shape[1]:
        raise ValueError(
            f"center has dimension {center.shape[0]} but points have "
            f"dimension {points.shape[1]}"
        )
    if radius < 0:
        return 0
    distances = np.linalg.norm(points - center[None, :], axis=1)
    return int(np.count_nonzero(distances <= radius))


def counts_around_points(points: np.ndarray, radius: float,
                         backend: BackendLike = None) -> np.ndarray:
    """``B_r(x_i, S)`` for every input point ``x_i`` simultaneously.

    Parameters
    ----------
    points:
        ``(n, d)`` input points.
    radius:
        The ball radius; negative radii give all-zero counts (matching the
        paper's convention ``B_r = 0`` for ``r < 0``).
    backend:
        Neighbor-backend selection (name, class, instance, or ``None`` for
        automatic); see :func:`repro.neighbors.resolve_backend`.
    """
    points = check_points(points)
    if radius < 0:
        return np.zeros(points.shape[0], dtype=np.int64)
    with backend_scope(points, backend) as resolved:
        return resolved.radius_counts(radius)


def capped_counts_around_points(points: np.ndarray, radius: float, cap: int,
                                backend: BackendLike = None) -> np.ndarray:
    """``Bbar_r(x_i, S) = min(B_r(x_i, S), cap)`` for every input point."""
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    counts = counts_around_points(points, radius, backend=backend)
    return np.minimum(counts, cap)


def capped_average_score(points: np.ndarray, radius: float, target: int,
                         backend: BackendLike = None) -> float:
    """The sensitivity-2 score ``L(r, S)`` of GoodRadius (Algorithm 1, step 1).

    The average of the ``target`` largest capped counts
    ``Bbar_r(x_i, S) = min(B_r(x_i, S), target)``.

    Parameters
    ----------
    points:
        ``(n, d)`` input points.
    radius:
        The ball radius ``r``; negative values give 0.
    target:
        The target cluster size ``t`` (also the cap); must satisfy
        ``1 <= target <= n``.
    backend:
        Neighbor-backend selection; see :func:`repro.neighbors.resolve_backend`.
    """
    points = check_points(points)
    n = points.shape[0]
    if not (1 <= target <= n):
        raise ValueError(f"target must lie in [1, n={n}], got {target}")
    if radius < 0:
        return 0.0
    with backend_scope(points, backend) as resolved:
        return resolved.capped_average_score(radius, target)


def capped_average_score_profile(points: np.ndarray, radii: np.ndarray,
                                 target: int,
                                 backend: BackendLike = None) -> np.ndarray:
    """Evaluate ``L(r, S)`` on a whole grid of radii in one batched backend
    call (no per-radius Python loop, no distance matrix)."""
    points = check_points(points)
    radii = np.asarray(radii, dtype=float)
    with backend_scope(points, backend) as resolved:
        return resolved.capped_average_scores(radii, target)


__all__ = [
    "Ball",
    "ball_membership",
    "count_in_ball",
    "counts_around_points",
    "capped_counts_around_points",
    "capped_average_score",
    "capped_average_score_profile",
]
