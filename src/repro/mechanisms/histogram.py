"""Stability-based histogram and the "choosing mechanism" (paper Theorem 2.5).

Given a database and a partition of the data universe into (possibly
infinitely many) cells, the task is to privately identify a cell containing
approximately the maximum number of database elements.  The standard
stability-based construction adds Laplace noise only to *occupied* cells and
suppresses any cell whose noisy count falls below a threshold of order
``(1/epsilon) * log(1/delta)``; because unoccupied cells are never released,
the mechanism works even when the number of cells is unbounded, at the cost of
a ``delta`` failure probability.

GoodCenter uses this mechanism twice: once to pick the "heavy" box of the
randomly-shifted partition of the JL-projected space (Algorithm 2, step 7) and
once per rotated axis to pick a heavy interval (step 9c).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.accounting.params import PrivacyParams
from repro.utils.rng import RngLike, as_generator


@dataclass(frozen=True)
class HistogramChoice:
    """Result of a stability-based histogram selection."""

    key: Optional[Hashable]
    noisy_count: float
    true_count: int

    @property
    def found(self) -> bool:
        """Whether a cell was released at all."""
        return self.key is not None


def _count_cells(labels: Iterable[Hashable]) -> Counter:
    counter: Counter = Counter()
    for label in labels:
        counter[label] += 1
    return counter


def release_threshold(params: PrivacyParams) -> float:
    """The suppression threshold guaranteeing ``(epsilon, delta)``-DP.

    The classical analysis requires suppressing cells whose noisy count is
    below ``1 + (2/epsilon) * log(2/delta)``; the paper's Theorem 2.5 states
    the resulting utility as: if the max cell has ``T >= (2/epsilon) *
    log(4 n / (beta delta))`` elements then with probability ``1 - beta`` a
    cell with at least ``T - (4/epsilon) log(2 n / beta)`` elements is
    returned.
    """
    if params.delta <= 0:
        raise ValueError("stability-based histogram requires delta > 0")
    return 1.0 + (2.0 / params.epsilon) * math.log(2.0 / params.delta)


def _released_cells(cells: Iterable, params: PrivacyParams,
                    rng: RngLike) -> List[Tuple[Hashable, int, float]]:
    """``(key, count, noisy count)`` of every cell that clears the release
    threshold, in cell order.  All ``m`` variates come from one
    ``laplace(size=m)`` call: the same draws, in the same order, as one
    scalar call per cell, and the generator ends in the same state."""
    generator = as_generator(rng)
    threshold = release_threshold(params)
    cells = list(cells)
    counts = np.fromiter((count for _, count in cells), dtype=float,
                         count=len(cells))
    noisy = counts + generator.laplace(0.0, 2.0 / params.epsilon,
                                       size=len(cells))
    return [(key, count, value)
            for (key, count), value in zip(cells, noisy.tolist())
            if value >= threshold]


def noisy_histogram_from_counts(cells: Sequence, params: PrivacyParams,
                                rng: RngLike = None) -> Dict[Hashable, float]:
    """Stability-based noisy histogram from precomputed ``(key, count)`` cells.

    The counts-level entry point behind :func:`noisy_histogram`, for callers
    that already hold the occupied-cell histogram (e.g. a neighbor-backend
    :class:`~repro.neighbors.base.ProjectedView` whose shards counted the
    cells).  One ``Lap(2/epsilon)`` variate is drawn per cell **in the order
    the cells are given**; passing the cells in first-occurrence order of the
    underlying label sequence therefore reproduces the label-level path's
    noise draws bit for bit (a ``Counter`` iterates in exactly that order).

    Parameters
    ----------
    cells:
        Iterable of ``(key, count)`` pairs, one per occupied cell, keys
        unique.
    params:
        Privacy budget; requires ``delta > 0``.
    rng:
        Seed or generator.
    """
    released = _released_cells(cells, params, rng)
    return {key: noisy for key, _, noisy in released}


def noisy_histogram(labels: Sequence[Hashable], params: PrivacyParams,
                    rng: RngLike = None) -> Dict[Hashable, float]:
    """Release a stability-based noisy histogram over the occupied cells.

    Every occupied cell receives ``Lap(2/epsilon)`` noise; cells whose noisy
    count falls below :func:`release_threshold` are suppressed (not present in
    the returned dict).  The result is ``(epsilon, delta)``-differentially
    private for any partition, including partitions with infinitely many
    cells.
    """
    counts = _count_cells(labels)
    return noisy_histogram_from_counts(counts.items(), params, rng=rng)


def stable_histogram_choice_from_counts(cells: Sequence,
                                        params: PrivacyParams,
                                        rng: RngLike = None) -> HistogramChoice:
    """The choosing mechanism over precomputed ``(key, count)`` cells.

    Identical to :func:`stable_histogram_choice` given the cells in
    first-occurrence order of the label sequence — same noise draws, same
    released key, bit for bit (see :func:`noisy_histogram_from_counts`).
    This is how GoodCenter's backend-batched box and axis-interval choices
    stay on the exact release distribution of the serial path.

    Parameters
    ----------
    cells:
        Iterable of ``(key, count)`` pairs, one per occupied cell, keys
        unique; the noise-draw order.
    params:
        Privacy budget; requires ``delta > 0``.
    rng:
        Seed or generator.
    """
    released = _released_cells(cells, params, rng)
    if not released:
        return HistogramChoice(key=None, noisy_count=0.0, true_count=0)
    # max keeps the first of equal noisy counts, i.e. the earliest cell.
    key, count, noisy = max(released, key=lambda cell: cell[2])
    return HistogramChoice(key=key, noisy_count=noisy, true_count=int(count))


def stable_histogram_choice(labels: Sequence[Hashable], params: PrivacyParams,
                            rng: RngLike = None) -> HistogramChoice:
    """Privately choose (approximately) the most populated cell.

    This is the "choosing mechanism" of paper Theorem 2.5.  Returns a
    :class:`HistogramChoice` whose ``key`` is ``None`` when every noisy count
    fell below the release threshold (which, per the theorem, only happens
    with probability ``beta`` when the max cell holds at least
    ``(2/epsilon) log(4 n / (beta delta))`` elements).

    Parameters
    ----------
    labels:
        The cell label of each database element.  Elements mapping to the
        same label are in the same cell.
    params:
        Privacy budget; requires ``delta > 0``.
    rng:
        Seed or generator.
    """
    counts = _count_cells(labels)
    return stable_histogram_choice_from_counts(counts.items(), params,
                                               rng=rng)


def choosing_mechanism_requirement(params: PrivacyParams, beta: float,
                                   num_elements: int) -> float:
    """The minimum max-cell count required by Theorem 2.5.

    ``T >= (2/epsilon) * log(4 n / (beta delta))`` guarantees that with
    probability at least ``1 - beta`` the mechanism returns a cell containing
    at least ``T - (4/epsilon) * log(2 n / beta)`` elements.
    """
    if params.delta <= 0:
        raise ValueError("choosing mechanism requires delta > 0")
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return (2.0 / params.epsilon) * math.log(4.0 * num_elements / (beta * params.delta))


def choosing_mechanism_loss(params: PrivacyParams, beta: float,
                            num_elements: int) -> float:
    """The additive loss guaranteed by Theorem 2.5 (see above)."""
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return (4.0 / params.epsilon) * math.log(2.0 * num_elements / beta)


def bucketize(values: np.ndarray, width: float, offset: float = 0.0) -> np.ndarray:
    """Map scalar values to integer bucket indices of a shifted uniform grid.

    ``bucket(v) = floor((v - offset) / width)``.  Used for building the
    partition labels fed to :func:`stable_histogram_choice`.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    values = np.asarray(values, dtype=float)
    return np.floor((values - offset) / width).astype(np.int64)


__all__ = [
    "HistogramChoice",
    "noisy_histogram",
    "noisy_histogram_from_counts",
    "stable_histogram_choice",
    "stable_histogram_choice_from_counts",
    "release_threshold",
    "choosing_mechanism_requirement",
    "choosing_mechanism_loss",
    "bucketize",
]
