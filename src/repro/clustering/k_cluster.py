"""The k-clustering heuristic of Observation 3.5.

"Our construction could be used as a heuristic for solving a k-clustering-type
problem: letting ``t = n/k``, we can iterate our algorithm ``k`` times and find
a collection of (at most) ``k`` balls that cover most of the data points.
Using composition to argue the overall privacy guarantees, we can have
(roughly) ``k <~ (epsilon n)^{2/3} / d^{1/3}``."

Each iteration runs the 1-cluster solver on a budget of ``epsilon/k`` and then
*removes* the points covered by the released ball before the next iteration.
Removing points based on a released (hence public) ball is post-processing of
that release plus a restriction of the dataset; the overall guarantee follows
from basic composition over the ``k`` private calls.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.core.config import OneClusterConfig
from repro.core.one_cluster import one_cluster
from repro.core.types import OneClusterResult
from repro.geometry.balls import Ball
from repro.geometry.grid import GridDomain
from repro.neighbors import BackendLike, QueryPlan, backend_scope
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_points, check_probability


@dataclass(frozen=True)
class KClusterResult:
    """Outcome of the k-clustering heuristic.

    Attributes
    ----------
    balls:
        The released balls, one per successful iteration (at most ``k``).
    results:
        The per-iteration :class:`~repro.core.types.OneClusterResult` values.
    covered_fraction:
        Non-private diagnostic: the fraction of the *original* points covered
        by the union of the released balls (computed against the coverage
        radius used during the run).
    ball_coverages:
        Non-private diagnostic: for each released ball, how many of the
        *original* points lie within it, counted behind the backend (exact
        squared-space counts).  The counting plans are *submitted
        asynchronously* as each ball is released and merged only after the
        loop — later iterations' draws never depend on them, so on a pooled
        sharded backend they overlap the subsequent private runs.
    """

    balls: List[Ball]
    results: List[OneClusterResult]
    covered_fraction: float
    ball_coverages: List[int]

    @property
    def num_found(self) -> int:
        """How many iterations released a ball."""
        return len(self.balls)


def k_cluster(points, k: int, params: PrivacyParams, target: Optional[int] = None,
              beta: float = 0.1, coverage_slack: float = 2.0,
              domain: Optional[GridDomain] = None,
              config: Optional[OneClusterConfig] = None,
              rng: RngLike = None,
              ledger: Optional[PrivacyLedger] = None,
              backend: BackendLike = None) -> KClusterResult:
    """Cover the data with (at most) ``k`` balls via iterated 1-cluster calls.

    Parameters
    ----------
    points:
        ``(n, d)`` input points.
    k:
        The number of balls / iterations.
    params:
        The *overall* budget; each iteration runs on ``params / k`` (basic
        composition).
    target:
        Per-iteration target cluster size; defaults to ``n // (2k)`` (half the
        equal share, so later iterations still have enough remaining points).
    beta:
        Per-iteration failure probability.
    coverage_slack:
        When removing covered points, the released ball's *measured* radius is
        used: the smallest radius capturing ``target`` remaining points around
        the released centre, multiplied by this slack (finite and positive).
        This keeps the iteration practical when the guaranteed radius bound
        is very loose.
    domain, config, rng, ledger:
        As in :func:`~repro.core.one_cluster.one_cluster`.
    backend:
        Neighbor-backend selection (``None`` = ``"auto"``, a name, a class,
        or an instance), resolved once over all of ``points``.  The
        resolved backend runs the iterations until a released ball covers
        a point, and answers the per-ball coverage counts
        (``ball_coverages``).  Every later iteration's
        :func:`~repro.core.one_cluster.one_cluster` call runs on
        ``resolved.subset(rows)`` over the rows no ball has covered yet:
        the same strategy with the same constructor arguments, except that
        a strategy picked by size (``None`` or ``"auto"``, also a service
        dataset registered without a backend) is picked again for the
        remaining row count.  That subset is closed before the next
        iteration starts, so with ``"sharded"`` k iterations hold at most
        one round's pool at a time.  A backend built here is closed before
        returning; a caller's instance stays open.

    Returns
    -------
    KClusterResult
    """
    points = check_points(points)
    check_integer(k, "k", minimum=1)
    beta = check_probability(beta, "beta")
    coverage_slack = float(coverage_slack)
    if not 0 < coverage_slack < math.inf:
        raise ValueError(
            f"coverage_slack must be finite and positive, got {coverage_slack}"
        )
    n = points.shape[0]
    if target is None:
        target = max(1, n // (2 * k))
    target = check_integer(target, "target", minimum=1)

    per_round = params.part(1.0 / k)
    rngs = spawn_generators(rng, k)
    rows = np.arange(n)
    balls: List[Ball] = []
    results: List[OneClusterResult] = []
    covered_mask = np.zeros(n, dtype=bool)
    # Per-ball coverage counts ride asynchronously submitted query plans on
    # the resolved backend: no later iteration needs them, so each plan
    # overlaps every subsequent private iteration and the futures are
    # merged only after the loop, in submission order.
    coverage_futures = []
    with backend_scope(points, backend) as resolved:
        for round_index in range(k):
            if rows.shape[0] < target:
                break
            # Until a ball covers a point, the resolved backend itself
            # indexes exactly the remaining rows.
            scope = (contextlib.nullcontext(resolved) if rows.shape[0] == n
                     else resolved.subset(rows))
            with scope as round_backend:
                remaining = round_backend.points
                result = one_cluster(remaining, target, per_round, beta=beta,
                                     domain=domain, config=config,
                                     rng=rngs[round_index], ledger=ledger,
                                     backend=round_backend)
            results.append(result)
            if not result.found:
                continue
            # Use the measured radius (post-processing of the released centre
            # and the remaining public iteration state) to decide coverage.
            measured = result.effective_radius(remaining, target=target)
            ball = Ball(center=result.ball.center,
                        radius=measured * coverage_slack)
            balls.append(ball)
            rows = rows[~ball.contains(remaining)]
            covered_mask |= ball.contains(points)
            plan = QueryPlan()
            plan.count_within_many(np.asarray([ball.center], dtype=float),
                                   np.asarray([ball.radius], dtype=float))
            coverage_futures.append(resolved.submit(plan))
        ball_coverages = [int(future.result()[0][0, 0])
                          for future in coverage_futures]

    covered_fraction = float(np.count_nonzero(covered_mask)) / n
    return KClusterResult(balls=balls, results=results,
                          covered_fraction=covered_fraction,
                          ball_coverages=ball_coverages)


__all__ = ["KClusterResult", "k_cluster"]
