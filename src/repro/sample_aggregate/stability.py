"""Stable-point definitions and empirical stability estimation.

Paper Definition 6.1: a point ``c`` is an ``(m, r, alpha)``-stable point of
``f`` on ``S`` if evaluating ``f`` on a fresh size-``m`` i.i.d. sub-sample of
``S`` lands within distance ``r`` of ``c`` with probability at least
``alpha``.  Experiments need to *measure* how stable a returned point actually
is; :func:`empirical_stability` does that by Monte-Carlo evaluation of ``f``
on fresh sub-samples (a purely diagnostic, non-private computation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.neighbors import BackendLike
from repro.sample_aggregate.framework import evaluate_blocks
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_integer, check_probability


@dataclass(frozen=True)
class StabilityEstimate:
    """Monte-Carlo estimate of the stability of a candidate point.

    Attributes
    ----------
    probability:
        The estimated probability that ``f`` on a fresh sub-sample lands
        within ``radius`` of the candidate point.
    radius:
        The radius used.
    distances:
        The raw distances observed (one per Monte-Carlo repetition).
    """

    probability: float
    radius: float
    distances: np.ndarray

    def radius_for_probability(self, alpha: float) -> float:
        """The smallest radius for which the candidate would be
        ``(m, r, alpha)``-stable according to the observed sample."""
        check_probability(alpha, "alpha")
        quantile = float(np.quantile(self.distances, alpha))
        return quantile


def empirical_stability(database, analysis: Callable[[np.ndarray], np.ndarray],
                        candidate, block_size: int, radius: float,
                        repetitions: int = 100, backend: BackendLike = None,
                        rng: RngLike = None) -> StabilityEstimate:
    """Estimate ``Pr[||f(S') - candidate|| <= radius]`` by Monte-Carlo.

    Parameters
    ----------
    database:
        The full database ``S``.
    analysis:
        The non-private function ``f``.
    candidate:
        The point whose stability is being assessed.
    block_size:
        The sub-sample size ``m``.
    radius:
        The stability radius ``r``.
    repetitions:
        Number of Monte-Carlo sub-samples.
    backend:
        As in :func:`~repro.sample_aggregate.framework.sample_and_aggregate`
        (see :func:`~repro.sample_aggregate.framework.evaluate_blocks`):
        with a plan-capable analysis every repetition's sub-sample
        evaluation is one asynchronous query plan, and the distances are
        bitwise identical to the parent-side path.
    rng:
        Seed or generator.
    """
    database = np.asarray(database)
    check_integer(block_size, "block_size", minimum=1)
    check_integer(repetitions, "repetitions", minimum=1)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    candidate = np.atleast_1d(np.asarray(candidate, dtype=float))
    generator = as_generator(rng)
    n = database.shape[0]
    # Draw every repetition's sub-sample up-front, in the historical per-rep
    # call order, so the random stream — and hence the estimate — does not
    # depend on which evaluation path runs.
    index_sets = [generator.integers(0, n, size=block_size)
                  for _ in range(repetitions)]

    values = evaluate_blocks(database, analysis, index_sets, backend)
    distances = np.array([float(np.linalg.norm(value - candidate))
                          for value in values])
    probability = float(np.mean(distances <= radius))
    return StabilityEstimate(probability=probability, radius=float(radius),
                             distances=distances)


__all__ = ["StabilityEstimate", "empirical_stability"]
