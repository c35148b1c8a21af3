"""Balls and ball counting.

A :class:`Ball` value type used across the public API, the shared sphere
membership predicate, and ``B_r(x_i, S)`` — the number of input points
within distance ``r`` of each input point, the count GoodRadius caps at
``t`` and averages into its sensitivity-2 score ``L(r, S)`` (paper
Section 3.1, Lemma 4.5; see
:meth:`repro.neighbors.base.NeighborBackend.capped_average_scores`).  All
counting routes through the pluggable :mod:`repro.neighbors` backend layer
(blocked brute force, KD-tree, or sharded — pass ``backend=`` to choose;
the default ``"auto"`` picks by workload size).
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


__all__ = [
    "Ball",
    "ball_membership",
    "counts_around_points",
]
