"""Result types for the 1-cluster algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.geometry.balls import Ball


@dataclass(frozen=True)
class GoodRadiusResult:
    """Outcome of Algorithm GoodRadius.

    Attributes
    ----------
    radius:
        The released radius ``z``.  With high probability some ball of this
        radius contains at least ``t - O(Gamma)`` input points and
        ``radius <= 4 * r_opt`` (paper Lemma 4.6).
    gamma:
        The promise value Γ used (paper-faithful or practical).
    score:
        The exact capped-average score ``L(radius, S)`` at the released
        radius, computed from the data without noise.  It is not private
        and must never be released.
    zero_cluster:
        Whether the algorithm took the early exit for a radius-0 cluster
        (Algorithm 1, step 2).
    method:
        Which search strategy produced the radius (``"recconcave"`` or
        ``"binary_search"``).
    """

    radius: float
    gamma: float
    score: float = float("nan")
    zero_cluster: bool = False
    method: str = "recconcave"


@dataclass(frozen=True)
class GoodCenterResult:
    """Outcome of Algorithm GoodCenter.

    Attributes
    ----------
    center:
        The released centre ``y_hat`` (``None`` when the algorithm failed to
        locate a heavy box or abstained in NoisyAVG).
    radius_bound:
        The guaranteed radius: a ball of this radius around ``center``
        contains the located sub-cluster (``O(r sqrt(log n))``).
    attempts:
        How many randomly-shifted partitions were tried before AboveThreshold
        fired.
    projected_dimension:
        The JL target dimension ``k`` actually used.
    captured_count:
        Non-private diagnostic: how many of the points selected into the set
        ``D`` (mapped into the chosen box) survived to the final average.
        ``-1`` when nothing was released.
    """

    center: Optional[np.ndarray]
    radius_bound: float
    attempts: int
    projected_dimension: int
    captured_count: int = -1

    @property
    def found(self) -> bool:
        """Whether a centre was actually released."""
        return self.center is not None


@dataclass(frozen=True)
class OneClusterResult:
    """Outcome of the combined 1-cluster solver (Theorem 3.2).

    Attributes
    ----------
    ball:
        The released ball: the GoodCenter centre with the guaranteed radius
        bound.  ``None`` if GoodCenter failed.
    radius_result:
        The GoodRadius sub-result.
    center_result:
        The GoodCenter sub-result.
    target:
        The requested cluster size ``t``.
    """

    ball: Optional[Ball]
    radius_result: GoodRadiusResult
    center_result: GoodCenterResult
    target: int

    @property
    def found(self) -> bool:
        """Whether a ball was released."""
        return self.ball is not None

    def coverage(self, points: np.ndarray, *, slack: float = 0.0) -> int:
        """Non-private evaluation helper: how many of ``points`` the released
        ball contains.  Benchmarks use this to measure the empirical additive
        loss Δ; it must never be fed back into a private pipeline."""
        if self.ball is None:
            return 0
        return self.ball.count(points, slack=slack)

    def effective_radius(self, points: np.ndarray, target: int = None) -> float:
        """Non-private evaluation helper: the smallest radius around the
        released centre that captures ``target`` (default: ``self.target``)
        of ``points``.  This is the quantity the radius-approximation
        experiments report, since the guaranteed bound is intentionally
        conservative."""
        if self.ball is None:
            return float("inf")
        if target is None:
            target = self.target
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        distances = np.linalg.norm(points - self.ball.center[None, :], axis=1)
        distances = np.sort(distances)
        target = min(target, distances.size)
        return float(distances[target - 1])


__all__ = ["GoodRadiusResult", "GoodCenterResult", "OneClusterResult"]
