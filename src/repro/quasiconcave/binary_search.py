"""Private binary search over a monotone score.

The paper observes (Section 3.1) that once the radius score ``L(r, S)`` has
sensitivity ``O(1)``, a radius with ``L(r) >~ t`` and ``L(r/2) < t`` "can
easily be done privately using binary search with noisy estimates of L for the
comparisons", at the cost of a ``log(sqrt(d) |X|)`` factor in the additive
loss (one noisy comparison per level).  This module implements that
alternative; GoodRadius exposes it via ``method="binary_search"`` so the
E9/E3 experiments can compare the two search strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.accounting.params import PrivacyParams
from repro.utils.rng import RngLike, as_generator


@dataclass(frozen=True)
class BinarySearchResult:
    """Outcome of a private binary search."""

    index: int
    noisy_value: float
    comparisons: int


def noisy_binary_search(score: Callable[[int], float], size: int,
                        threshold: float, params: PrivacyParams,
                        sensitivity: float = 1.0,
                        rng: RngLike = None) -> BinarySearchResult:
    """Find (privately) the smallest index whose score reaches ``threshold``.

    Assumes ``score`` is non-decreasing in the index (as ``L(r, S)`` is in the
    radius).  Performs a classical binary search, replacing each comparison
    ``score(mid) >= threshold`` with a Laplace-noised comparison; the privacy
    budget is split evenly over the ``ceil(log2 |F|)`` levels under basic
    composition, so the whole search is ``(epsilon, 0)``-DP.

    If no index reaches the threshold the search converges to the last index;
    callers that care should validate the returned index's (noisy) score.

    Parameters
    ----------
    score:
        Monotone non-decreasing sensitivity-``sensitivity`` score, called
        with one candidate index at a time (each probed index is read once,
        so only ``O(log |F|)`` scores are ever computed).
    size:
        The number of candidates ``|F|``; indices run over ``0 .. size-1``.
    threshold:
        The target level.
    params:
        Privacy budget for the whole search.
    sensitivity:
        Sensitivity of the score (2 for GoodRadius's ``L``).
    rng:
        Seed or generator.
    """
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    generator = as_generator(rng)
    if size == 1:
        return BinarySearchResult(index=0, noisy_value=float(score(0)),
                                  comparisons=0)

    levels = max(1, int(math.ceil(math.log2(size))))
    per_level_epsilon = params.epsilon / levels
    scale = sensitivity / per_level_epsilon

    low, high = 0, size - 1
    comparisons = 0
    last_noisy = float("nan")
    while low < high:
        mid = (low + high) // 2
        noisy = float(score(mid)) + generator.laplace(0.0, scale)
        last_noisy = noisy
        comparisons += 1
        if noisy >= threshold:
            high = mid
        else:
            low = mid + 1
        if comparisons > levels + 2:  # pragma: no cover - defensive
            break
    return BinarySearchResult(index=int(low), noisy_value=float(last_noisy),
                              comparisons=comparisons)


def binary_search_loss(solution_count: int, params: PrivacyParams,
                       sensitivity: float, beta: float) -> float:
    """High-probability bound on the threshold slack of the noisy search.

    Each of the ``ceil(log2 |F|)`` comparisons errs by more than
    ``(sensitivity * levels / epsilon) * ln(levels / beta)`` with probability
    at most ``beta / levels``; a union bound gives the overall guarantee.
    This is the ``log(sqrt(d) |X|)``-type loss the paper contrasts with
    RecConcave's ``2^{O(log*)}``.
    """
    if solution_count < 2:
        raise ValueError("solution_count must be at least 2")
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    levels = max(1, int(math.ceil(math.log2(solution_count))))
    return (sensitivity * levels / params.epsilon) * math.log(levels / beta)


__all__ = ["BinarySearchResult", "noisy_binary_search", "binary_search_loss"]
