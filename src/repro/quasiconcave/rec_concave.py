"""RecConcave: private solver for quasi-concave promise problems.

Paper Theorem 4.3 (quoting Beimel–Nissim–Stemmer 2013): there is an
``(epsilon, delta)``-DP algorithm that, given a sensitivity-1 quasi-concave
quality ``Q`` over a totally ordered finite solution set ``F`` and a quality
promise ``p`` with ``max_f Q(S, f) >= p >= Gamma``, outputs ``f`` with
``Q(S, f) >= (1 - alpha) p`` with probability ``1 - beta``, where
``Gamma ~ 8^{log* |F|} * (log* |F| / (alpha epsilon)) * log(log* |F| / (beta
delta))``.

This module reimplements the solver with the same *structure* as BNS13:

1. **Length reduction.**  For every dyadic length ``2^j`` define the derived
   quality ``Q2(j) = max`` over intervals of ``2^j`` consecutive solutions of
   the interval's minimum quality.  Because ``Q`` is quasi-concave the
   interval minimum equals the minimum of the two endpoint qualities, so
   ``Q2`` is computable from endpoint evaluations only.  ``Q2`` is again
   quasi-concave over the (tiny, ``log |F|``-sized) domain of lengths.
2. **Choose a length privately** with the exponential mechanism over the
   ``log |F| + 1`` candidate lengths (quality ``Q2``).
3. **Choose an interval of that length privately** with report-noisy-max over
   the two staggered partitions of ``F`` into intervals of the chosen length
   (interval quality = endpoint minimum), and return its midpoint.

Documented substitution (see "Departures from the paper" in
ARCHITECTURE.md): BNS13 replaces steps 2–3 with a recursive call and the
stability-based *choosing mechanism* to obtain the ``2^{O(log* |F|)}``
promise; we use one level of reduction plus exponential-mechanism
selections, which yields a promise requirement of
``O((1/(alpha epsilon)) * log(|F| / beta))`` — the same dependence the paper
cites for plain private binary search.  The interface, privacy accounting and
quasi-concavity machinery are identical, and the paper-faithful promise value
is still reported by :func:`rec_concave_promise` for parameter studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.accounting.params import PrivacyParams
from repro.mechanisms.exponential import report_noisy_max
from repro.utils.iterated_log import log_star
from repro.utils.rng import RngLike, spawn_generators


@dataclass(frozen=True)
class RecConcaveResult:
    """Outcome of a :func:`rec_concave` invocation."""

    index: int
    quality: float
    chosen_length: int


def rec_concave_promise(solution_count: int, alpha: float, beta: float,
                        params: PrivacyParams) -> float:
    """The paper-faithful promise value Γ of Theorem 4.3.

    ``Gamma = 8^{log* |F|} * (36 log* |F| / (alpha epsilon)) *
    log(12 log* |F| / (beta delta))``.

    GoodRadius (Algorithm 1) instantiates this with ``|F| = 2 |X| sqrt(d)``,
    ``alpha = 1/2`` and its own ``(epsilon/2, delta)`` sub-budget, giving the
    constant it calls Γ.
    """
    if solution_count < 2:
        raise ValueError("solution_count must be at least 2")
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if params.delta <= 0:
        raise ValueError("the promise formula requires delta > 0")
    ls = max(1, log_star(solution_count))
    return (
        8.0 ** ls
        * (36.0 * ls / (alpha * params.epsilon))
        * math.log(12.0 * ls / (beta * params.delta))
    )


def practical_promise(solution_count: int, alpha: float, beta: float,
                      params: PrivacyParams) -> float:
    """The promise requirement of this implementation (see module docstring).

    ``O((1/(alpha epsilon)) * log(|F| / beta))`` — the utility analysis of two
    exponential-mechanism selections over ``log|F|+1`` and ``O(|F|)``
    candidates respectively.
    """
    if solution_count < 2:
        raise ValueError("solution_count must be at least 2")
    return (8.0 / (alpha * params.epsilon)) * math.log(
        4.0 * solution_count / beta
    )


def rec_concave(scores, promise: float, alpha: float, params: PrivacyParams,
                rng: RngLike = None) -> RecConcaveResult:
    """Privately choose an index with quality close to the promise.

    Parameters
    ----------
    scores:
        ``(|F|,)`` float64 qualities of the candidates ``0 .. |F|-1``: a
        sensitivity-1, quasi-concave quality read in full, since the
        length-1 pass below needs every candidate's score anyway.
    promise:
        The quality promise ``p``: the caller asserts
        ``max_f Q(f) >= promise``.
    alpha:
        Approximation parameter; the target is ``Q(result) >= (1-alpha) p``.
    params:
        Privacy budget.  The implementation spends ``epsilon/2`` on the length
        choice and ``epsilon/2`` on the interval choice; both selections are
        pure-DP so the overall guarantee is ``(epsilon, 0) ⊆ (epsilon,
        delta)``-DP.
    rng:
        Seed or generator.

    Returns
    -------
    RecConcaveResult
    """
    if promise <= 0:
        raise ValueError(f"promise must be positive, got {promise}")
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-d array")
    size = scores.size
    length_rng, interval_rng = spawn_generators(rng, 2)
    half_epsilon = PrivacyParams(params.epsilon / 2.0, params.delta)

    if size == 1:
        return RecConcaveResult(index=0, quality=float(scores[0]),
                                chosen_length=1)

    # ------------------------------------------------------------------ #
    # Step 1-2: derived quality over dyadic lengths, choose a length.  For
    # a quasi-concave Q the minimum over [s, s + L) is the smaller endpoint
    # quality, so the best interval of length L scores
    # max_s min(Q(s), Q(s + L - 1)).
    # ------------------------------------------------------------------ #
    max_level = int(math.ceil(math.log2(size)))
    lengths = [min(2 ** j, size) for j in range(max_level + 1)]
    length_scores = [
        float(np.minimum(scores[:size - length + 1],
                         scores[length - 1:]).max())
        for length in lengths
    ]
    # Q2 over lengths is the score of the best interval of that length; the
    # promise transfers: the optimum f alone is an interval of length 1, so
    # Q2(length=1) >= promise, and Q2 is non-increasing in the length for a
    # quasi-concave Q (larger intervals can only have smaller minima).  We
    # still select privately because length_scores depends on the data.
    chosen_length_index = report_noisy_max(
        length_scores, half_epsilon, sensitivity=1.0, rng=length_rng
    )
    chosen_length = lengths[chosen_length_index]

    # ------------------------------------------------------------------ #
    # Step 3: choose an interval of the chosen length, return its midpoint.
    # ------------------------------------------------------------------ #
    starts = np.arange(0, size - chosen_length + 1, max(1, chosen_length // 2),
                       dtype=np.int64)
    if starts.size == 0 or starts[-1] != size - chosen_length:
        starts = np.append(starts, size - chosen_length)
    interval_scores = np.minimum(scores[starts],
                                 scores[starts + chosen_length - 1])
    chosen_interval = report_noisy_max(
        interval_scores, half_epsilon, sensitivity=1.0, rng=interval_rng
    )
    start = int(starts[chosen_interval])
    index = min(start + chosen_length // 2, size - 1)
    return RecConcaveResult(index=index, quality=float(scores[index]),
                            chosen_length=int(chosen_length))


__all__ = [
    "RecConcaveResult",
    "rec_concave",
    "rec_concave_promise",
    "practical_promise",
]
