"""Algorithm SA: sample and aggregate with a 1-cluster aggregator.

Paper Section 6: given a non-private analysis ``f`` mapping databases to
``X^d`` that is *stable* on the input database ``S`` — evaluating ``f`` on a
random sub-sample of size ``m`` lands within distance ``r`` of some point
``c`` with probability ``alpha`` (Definition 6.1) — Algorithm SA privately
identifies a point close to ``c``:

1. Sub-sample ``n/9`` rows i.i.d. from ``S`` and split them into
   ``k = n/(9m)`` blocks of size ``m``.
2. Evaluate ``f`` on every block, obtaining ``Y = {y_1, ..., y_k}``.
3. Run the 1-cluster algorithm on ``Y`` with target ``t = alpha k / 2`` and
   output the resulting centre.

Privacy follows because a neighbouring change of ``S`` changes at most one
block, hence at most one ``y_i``, and the aggregation step is DP; the i.i.d.
sub-sampling additionally amplifies the guarantee (Lemma 6.4).  Utility
(Theorem 6.3 / Lemma 6.7) combines a Chernoff bound, the 1-cluster guarantee
and the generalisation property of differential privacy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.accounting.composition import subsample_amplification
from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.core.config import OneClusterConfig
from repro.core.types import OneClusterResult
from repro.neighbors import (
    BackendLike,
    NeighborBackend,
    QueryPlan,
    backend_scope,
)
from repro.sample_aggregate.aggregators import Aggregator, one_cluster_aggregator
from repro.utils.rng import RngLike, as_generator, spawn_generators
from repro.utils.validation import check_integer, check_probability


def plan_capable(analysis) -> bool:
    """Whether an analysis can compile its block computation into query plans.

    A *plan-capable* analysis implements, in addition to ``__call__(block)``:

    * ``compile(plan, view, rows)`` — append the queries computing the
      analysis of the rows (a global-index multiset into the backend's
      dataset) to ``plan`` over the identity ``view``; return a token.
    * ``resolve(results, token, block_size)`` — map the executed plan's
      results back to the block's value, bitwise identical to
      ``__call__(database[rows])``.

    :func:`evaluate_blocks` uses this to route every block through one
    asynchronous backend plan instead of materialising the sub-sample
    parent-side.
    """
    return hasattr(analysis, "compile") and hasattr(analysis, "resolve")


def evaluate_blocks(database: np.ndarray, analysis: Callable,
                    row_sets: Sequence[np.ndarray],
                    backend: BackendLike = None) -> List[np.ndarray]:
    """``analysis(database[rows])`` for every row multiset in ``row_sets``,
    each as a 1-d float array, in order.

    With a ``backend``, a :func:`plan_capable` analysis and a 2-d
    ``database``, every block compiles into its own :class:`QueryPlan` over
    the backend :func:`~repro.neighbors.backend_scope` resolves, and all
    plans are submitted before any is resolved: on a sharded or distributed
    backend the blocks are embarrassingly parallel, so every worker stays
    busy while the parent merges.  Every plan's merge is shard-order
    deterministic and a plan-capable analysis resolves to bitwise its
    parent-side value, so both paths return the same bits.  Otherwise each
    block is evaluated parent-side.
    """
    if backend is None or not plan_capable(analysis) or database.ndim != 2:
        values = [analysis(database[rows]) for rows in row_sets]
    else:
        with backend_scope(database, backend) as engine:
            view = engine.view()
            futures = []
            for rows in row_sets:
                plan = QueryPlan()
                token = analysis.compile(plan, view, rows)
                futures.append((engine.submit(plan), token, len(rows)))
            values = [analysis.resolve(future.result(), token, size)
                      for future, token, size in futures]
    return [np.atleast_1d(np.asarray(value, dtype=float)) for value in values]


@dataclass(frozen=True)
class StablePointResult:
    """Outcome of a sample-and-aggregate run.

    Attributes
    ----------
    point:
        The released stable-point estimate (``None`` if aggregation failed).
    aggregate_values:
        Non-private diagnostic: the ``(k, d)`` sub-sample analysis outputs
        ``Y`` (only populated when ``collect_diagnostics=True``; never release
        these — they are not privatised).
    num_blocks:
        The number of sub-sample blocks ``k``.
    block_size:
        The sub-sample size ``m`` handed to the analysis.
    target:
        The cluster-size target ``t = alpha k / 2`` used by the aggregator.
    amplified_params:
        The overall privacy guarantee after sub-sampling amplification.
    cluster_result:
        The aggregator's underlying result object, when it exposes one.
    """

    point: Optional[np.ndarray]
    num_blocks: int
    block_size: int
    target: int
    amplified_params: PrivacyParams
    aggregate_values: Optional[np.ndarray] = None
    cluster_result: Optional[OneClusterResult] = None

    @property
    def found(self) -> bool:
        """Whether a point was released."""
        return self.point is not None


def sa_minimum_database_size(block_size: int, alpha: float, beta: float,
                             t_min: float) -> float:
    """The ``n`` requirement of Lemma 6.7:
    ``n >= m * O(t_min / alpha + log(12/beta) / alpha^2)``."""
    check_probability(alpha, "alpha")
    check_probability(beta, "beta")
    return block_size * (18.0 * t_min / alpha + 46646.0 / alpha ** 2 * math.log(12.0 / beta))


def sample_and_aggregate(database, analysis: Callable[[np.ndarray], np.ndarray],
                         block_size: int, params: PrivacyParams,
                         alpha: float = 0.5, beta: float = 0.1,
                         aggregator: Optional[Aggregator] = None,
                         subsample_fraction: float = 1.0 / 9.0,
                         config: Optional[OneClusterConfig] = None,
                         collect_diagnostics: bool = False,
                         backend: BackendLike = None,
                         rng: RngLike = None,
                         ledger: Optional[PrivacyLedger] = None) -> StablePointResult:
    """Privately estimate a stable point of ``analysis`` on ``database``.

    Parameters
    ----------
    database:
        The raw input database: any sequence or array of rows; rows are passed
        to ``analysis`` in blocks, so their type only needs to be what the
        analysis accepts (the default expects an ``(m, ...)`` ndarray slice).
    analysis:
        The non-private function ``f``; receives a block of ``block_size``
        rows and must return a point in ``R^d`` (a 1-d array or scalar).
    block_size:
        The stability parameter ``m``.
    params:
        The privacy budget of the *aggregation* step.  The returned
        :class:`StablePointResult` also reports the amplified overall
        guarantee obtained from sub-sampling (Lemma 6.4) when the fraction is
        small enough; the aggregation-step guarantee always holds.
    alpha:
        Stability probability: the caller asserts ``f`` is
        ``(m, r, alpha)``-stable for some radius ``r``.
    beta:
        Failure probability.
    aggregator:
        The private aggregation function applied to the sub-sample outputs;
        defaults to the paper's 1-cluster aggregator.
    subsample_fraction:
        The fraction of ``database`` sub-sampled before blocking (the paper
        uses 1/9).
    config:
        1-cluster configuration forwarded to the default aggregator.
    collect_diagnostics:
        When True, the (non-private) sub-sample outputs ``Y`` are attached to
        the result for inspection in experiments.
    backend:
        Optional neighbor backend for the block evaluations (see
        :func:`evaluate_blocks`): with a :func:`plan_capable` analysis over
        a 2-d array every block is one asynchronous :class:`QueryPlan`, and
        the block values (hence the release) are bitwise identical to the
        parent-side path.  Accepts anything
        :func:`~repro.neighbors.resolve_backend` does; a long-lived
        :class:`~repro.neighbors.NeighborBackend` instance built over
        ``database`` is reused without re-indexing, which is how
        :class:`~repro.experiments.harness.PipelinedRuns` amortises one
        backend across repeated trials.  Backend *names/classes* are also
        forwarded to the default 1-cluster aggregator.  Ignored when the
        analysis is not plan-capable.
    rng, ledger:
        As elsewhere.

    Returns
    -------
    StablePointResult
    """
    database = np.asarray(database)
    n = database.shape[0]
    block_size = check_integer(block_size, "block_size", minimum=1)
    alpha = check_probability(alpha, "alpha")
    beta = check_probability(beta, "beta")
    if not (0 < subsample_fraction <= 1):
        raise ValueError("subsample_fraction must lie in (0, 1]")

    sample_rng, aggregate_rng = spawn_generators(rng, 2)
    generator = as_generator(sample_rng)

    subsample_size = max(block_size, int(math.floor(subsample_fraction * n)))
    subsample_size = min(subsample_size, n)
    num_blocks = subsample_size // block_size
    if num_blocks < 1:
        raise ValueError(
            f"database of size {n} with subsample fraction {subsample_fraction} "
            f"cannot form even one block of size {block_size}"
        )
    indices = generator.integers(0, n, size=num_blocks * block_size)

    # One block per consecutive run of block_size sub-sampled rows.
    outputs = evaluate_blocks(database, analysis,
                              np.split(indices, num_blocks), backend)
    aggregate_values = np.vstack(outputs)

    target = max(1, int(math.floor(alpha * num_blocks / 2.0)))
    if aggregator is None:
        # Backend names/classes also accelerate the aggregation step (the
        # solver resolves its own backend over Y); instances are bound to the
        # raw database and cannot transfer.
        aggregator_backend = (backend if backend is not None
                              and not isinstance(backend, NeighborBackend)
                              else None)
        aggregator = one_cluster_aggregator(config=config,
                                            backend=aggregator_backend)
    point, cluster_result = aggregator(aggregate_values, target, params, beta,
                                       aggregate_rng, ledger)

    # Sub-sampling amplification (Lemma 6.4) applies when the sub-sample is at
    # most half the database and the aggregation epsilon is at most 1.
    sampled_rows = num_blocks * block_size
    if params.epsilon <= 1.0 and n >= 2 * sampled_rows:
        amplified = subsample_amplification(params, sampled_rows, n)
    else:
        amplified = params

    return StablePointResult(
        point=point,
        num_blocks=num_blocks,
        block_size=block_size,
        target=target,
        amplified_params=amplified,
        aggregate_values=aggregate_values if collect_diagnostics else None,
        cluster_result=cluster_result,
    )


__all__ = [
    "StablePointResult",
    "evaluate_blocks",
    "plan_capable",
    "sample_and_aggregate",
    "sa_minimum_database_size",
]
