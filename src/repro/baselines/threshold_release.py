"""Query release for threshold functions, d = 1 (Table 1, row "Query release").

Section 1.2: in one dimension the 1-cluster problem reduces to privately
releasing approximate counts for every interval (equivalently every threshold
function) and then scanning for the smallest interval whose released count
reaches ``t``.  The released interval has radius exactly ``r_opt`` (``w = 1``)
and contains at least ``t - O(Delta)`` points, where ``Delta`` is the query
release error.

Documented substitution (see "Departures from the paper" in
ARCHITECTURE.md): the state-of-the-art release of Bun–Nissim–Stemmer–Vadhan
achieves ``Delta ~ 2^{O(log* |X|)} / epsilon``; we implement the standard
*hierarchical (dyadic-tree) mechanism*, whose error is
``Delta ~ O(log^{1.5} |X| / epsilon)`` — the same pipeline (noisy interval
counts, then smallest-interval search) with a polylog rather than log* error,
which preserves the qualitative comparison in Table 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.accounting.params import PrivacyParams
from repro.core.types import GoodCenterResult, GoodRadiusResult, OneClusterResult
from repro.geometry.balls import Ball
from repro.geometry.grid import GridDomain
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_integer, check_points


class HierarchicalThresholdRelease:
    """Dyadic-tree release of interval counts over a finite 1-d grid.

    Builds a complete binary tree over the ``|X|`` grid cells, adds Laplace
    noise ``Lap(depth/epsilon)`` to every node count, and answers any interval
    query as a sum of ``O(log |X|)`` node values.  Releasing the whole tree is
    a single ``(epsilon, 0)``-DP computation because each data point
    contributes to exactly ``depth`` node counts (L1-sensitivity ``depth``).
    """

    def __init__(self, domain: GridDomain, params: PrivacyParams,
                 rng: RngLike = None) -> None:
        if domain.dimension != 1:
            raise ValueError("HierarchicalThresholdRelease is 1-d only")
        self.domain = domain
        self.params = params
        self._rng = as_generator(rng)
        self._levels = max(1, int(math.ceil(math.log2(domain.side))))
        self._size = 2 ** self._levels
        self._noisy_tree: Optional[list] = None

    @property
    def depth(self) -> int:
        """The number of levels in the dyadic tree."""
        return self._levels + 1

    def fit(self, values: np.ndarray) -> "HierarchicalThresholdRelease":
        """Ingest the data and release the noisy tree."""
        values = np.asarray(values, dtype=float).reshape(-1)
        cells = np.clip(
            np.rint((values - self.domain.low) / self.domain.step).astype(np.int64),
            0, self._size - 1,
        )
        base = np.bincount(cells, minlength=self._size).astype(float)
        levels = [base]
        current = base
        while current.size > 1:
            current = current.reshape(-1, 2).sum(axis=1)
            levels.append(current)
        scale = self.depth / self.params.epsilon
        self._noisy_tree = [
            level + self._rng.laplace(0.0, scale, size=level.size) for level in levels
        ]
        return self

    def interval_count(self, low_cell: int, high_cell: int) -> float:
        """Released count of grid cells in ``[low_cell, high_cell]`` (inclusive)."""
        if self._noisy_tree is None:
            raise RuntimeError("call fit() before querying")
        if high_cell < low_cell:
            return 0.0
        low_cell = max(0, int(low_cell))
        high_cell = min(self._size - 1, int(high_cell))
        total = 0.0
        level = 0
        lo, hi = low_cell, high_cell
        while lo <= hi:
            if lo % 2 == 1:
                total += self._noisy_tree[level][lo]
                lo += 1
            if hi % 2 == 0:
                total += self._noisy_tree[level][hi]
                hi -= 1
            lo //= 2
            hi //= 2
            level += 1
            if level >= len(self._noisy_tree):
                break
        return float(total)

    def prefix_counts(self) -> np.ndarray:
        """Released counts of the prefixes ``[0, j]`` for every cell ``j``."""
        return np.array([self.interval_count(0, j) for j in range(self._size)])

    def error_bound(self, beta: float = 0.1) -> float:
        """High-probability error of any single interval query:
        ``O(depth^{1.5} / epsilon * log(1/beta))``."""
        return (self.depth ** 1.5 / self.params.epsilon) * math.log(2.0 * self._size / beta)


def threshold_release_cluster_1d(points, target: int, params: PrivacyParams,
                                 domain: Optional[GridDomain] = None,
                                 beta: float = 0.1,
                                 rng: RngLike = None) -> OneClusterResult:
    """Solve the 1-d 1-cluster problem via threshold query release.

    Releases the dyadic tree once, then (as pure post-processing) scans all
    ``O(|X|^2)`` grid intervals — implemented as a two-pointer sweep over the
    released prefix counts — for the shortest interval whose released count
    reaches ``target``.
    """
    points = check_points(points, dimension=1)
    target = check_integer(target, "target", minimum=1)
    if domain is None:
        low = float(np.floor(points.min()))
        high = float(np.ceil(points.max()))
        domain = GridDomain(dimension=1, side=1025, low=low, high=max(high, low + 1.0))
    release = HierarchicalThresholdRelease(domain, params, rng=rng).fit(points[:, 0])
    prefix = release.prefix_counts()

    # Two-pointer sweep: for each left cell, the smallest right cell whose
    # released interval count reaches the target.
    size = prefix.shape[0]
    best_width = None
    best_interval = (0, size - 1)
    right = 0
    for left in range(size):
        if right < left:
            right = left
        left_prefix = prefix[left - 1] if left > 0 else 0.0
        while right < size and prefix[right] - left_prefix < target:
            right += 1
        if right >= size:
            break
        width = right - left
        if best_width is None or width < best_width:
            best_width = width
            best_interval = (left, right)
    low_cell, high_cell = best_interval
    low_value = domain.low + low_cell * domain.step
    high_value = domain.low + high_cell * domain.step
    center = np.array([(low_value + high_value) / 2.0])
    radius = (high_value - low_value) / 2.0

    captured = int(np.count_nonzero(
        np.abs(points[:, 0] - center[0]) <= radius + 1e-12
    ))
    radius_result = GoodRadiusResult(radius=radius, gamma=release.error_bound(beta),
                                     score=float(captured), zero_cluster=radius == 0.0,
                                     method="threshold_release")
    center_result = GoodCenterResult(center=center, radius_bound=radius, attempts=1,
                                     projected_dimension=1, captured_count=captured)
    return OneClusterResult(ball=Ball(center=center, radius=radius),
                            radius_result=radius_result,
                            center_result=center_result, target=target)


__all__ = ["HierarchicalThresholdRelease", "threshold_release_cluster_1d"]
