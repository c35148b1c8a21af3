"""Algorithm IntPoint (paper Algorithm 3, Theorem 5.3).

The reduction showing that any private solver for the 1-cluster problem yields
a private solver for the interior point problem (and hence inherits the
``Omega(log* |X|)`` sample-complexity lower bound):

1. Take the middle ``n`` entries ``D`` of the input ``S`` (of size ``m > n``).
2. Run the 1-cluster solver on ``D``; it returns an interval ``I`` of length
   ``2r`` containing at least one point of ``D`` with ``r <= w * r_opt``.
3. Partition ``I`` into sub-intervals of length ``r / w``; at least one
   endpoint of some sub-interval must be an interior point of ``D``.
4. Choose among those endpoints privately, using a quasi-concave solver with
   the quality ``q(S, a) = min(#{x <= a}, #{x >= a})`` (the "depth" of
   ``a`` in ``S``), whose promise ``(m - n)/2`` is guaranteed because ``D``
   consists of the middle entries of ``S``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.accounting.params import PrivacyParams
from repro.core.one_cluster import one_cluster
from repro.core.types import OneClusterResult
from repro.neighbors import (
    BackendLike,
    NeighborBackend,
    QueryPlan,
    backend_scope,
)
from repro.quasiconcave.rec_concave import rec_concave
from repro.utils.iterated_log import log_star
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class IntPointResult:
    """Outcome of the IntPoint reduction."""

    value: float
    is_zero_radius: bool
    cluster_result: Optional[OneClusterResult]
    candidate_count: int


def int_point_sample_size(n: int, w: float, params: PrivacyParams,
                          beta: float) -> float:
    """The Theorem 5.3 sample complexity of the reduction:
    ``m = n + 8^{log*(4w)} * (144 log*(4w) / epsilon) * log(12 log*(4w) /
    (beta delta))``."""
    if w <= 0:
        raise ValueError("w must be positive")
    if params.delta <= 0:
        raise ValueError("the bound requires delta > 0")
    ls = max(1, log_star(4.0 * w))
    return n + 8.0 ** ls * (144.0 * ls / params.epsilon) * math.log(
        12.0 * ls / (beta * params.delta)
    )


def int_point(database, cluster_size: int, params: PrivacyParams,
              approximation_factor: float = 4.0, beta: float = 0.1,
              cluster_solver: Optional[Callable[..., OneClusterResult]] = None,
              backend: BackendLike = None, rng: RngLike = None,
              **solver_kwargs) -> IntPointResult:
    """Solve the interior point problem via the 1-cluster reduction.

    Parameters
    ----------
    database:
        1-d array of ``m`` values from the (finite) domain.
    cluster_size:
        The size ``n`` of the middle sub-database handed to the 1-cluster
        solver (``n < m``; the slack ``m - n`` feeds the final quasi-concave
        selection's promise).
    params:
        Total privacy budget; the reduction is ``(2 epsilon, 2 delta)``-DP in
        terms of the per-phase budget, so we split the given budget in half
        per phase to stay within it.
    approximation_factor:
        The radius approximation factor ``w`` of the 1-cluster solver (used to
        size the sub-interval grid in step 3).
    beta:
        Failure probability.
    cluster_solver:
        The 1-cluster solver to reduce to; defaults to
        :func:`~repro.core.one_cluster.one_cluster`.  Any callable with the
        same signature works, which is how experiments demonstrate the
        reduction against different solvers.
    backend:
        Neighbor backend for the final depth selection (step 4), which always
        scores every endpoint with one ``depth_counts`` query plan.  A
        :class:`~repro.neighbors.NeighborBackend` *instance* must be built
        over ``database.reshape(-1, 1)``; ``None`` (the default) uses an
        in-process ``"chunked"`` backend built over that column and closed
        on return.  A backend *name or class* is instead forwarded to the
        cluster solver (which resolves its own backend over the middle
        entries), and the depth plan runs on the default backend.  The
        per-shard counts are integers summed exactly, so the released value
        does not depend on the choice.  Every choice rejects a database
        holding NaN or infinite values.
    rng:
        Seed or generator.
    solver_kwargs:
        Extra keyword arguments forwarded to the cluster solver.
    """
    values = np.asarray(database, dtype=float).reshape(-1)
    m = values.size
    cluster_size = check_integer(cluster_size, "cluster_size", minimum=1)
    if cluster_size >= m:
        raise ValueError("cluster_size must be smaller than the database size")
    if approximation_factor <= 0:
        raise ValueError("approximation_factor must be positive")
    if cluster_solver is None:
        cluster_solver = one_cluster
    if backend is not None and not isinstance(backend, NeighborBackend):
        # A name or class selects the cluster solver's backend, which
        # indexes the middle entries; an instance over this database is
        # kept for the step-4 depth plan instead.
        solver_kwargs.setdefault("backend", backend)
        backend = None
    # The depth backend indexes the whole database as a column, so building
    # (or validating) it rejects non-finite values before either step runs.
    with backend_scope(values.reshape(-1, 1),
                       "chunked" if backend is None else backend) as depth_backend:
        cluster_rng, select_rng = spawn_generators(rng, 2)
        half = params.part(0.5)

        # Step 1: the middle n entries of the sorted database.
        ordered = np.sort(values)
        start = (m - cluster_size) // 2
        middle = ordered[start:start + cluster_size]

        # Step 2: run the 1-cluster solver on the middle entries with t = n.
        cluster = cluster_solver(middle.reshape(-1, 1), cluster_size, half,
                                 beta=beta, rng=cluster_rng, **solver_kwargs)
        if not cluster.found:
            # Fall back to the interval defined by the GoodRadius radius
            # around the data's noisy middle; the reduction's guarantee is
            # vacuous in this (probability <= beta) branch, but we still
            # return a value.
            center_value = float(np.median(middle))
            radius = max(cluster.radius_result.radius, 0.0)
        else:
            center_value = float(cluster.ball.center[0])
            # The measured radius of the released ball at the target count
            # is the practical analogue of the guaranteed 2r interval.
            radius = max(cluster.effective_radius(middle.reshape(-1, 1)), 0.0)

        if radius == 0.0:
            return IntPointResult(value=center_value, is_zero_radius=True,
                                  cluster_result=cluster, candidate_count=1)

        # Step 3: endpoints of the sub-intervals of length r / w inside I.
        num_intervals = max(1, int(math.ceil(2.0 * approximation_factor)))
        endpoints = np.linspace(center_value - radius, center_value + radius,
                                num_intervals + 1)

        # Step 4: choose among the endpoints with the depth quality
        # q(S, a) = min(#{x <= a}, #{x >= a}), which is sensitivity-1 and
        # quasi-concave along the ordered endpoints.  One depth_counts plan
        # scores every endpoint; its integer counts are exact on every
        # backend and shard topology.
        plan = QueryPlan()
        slot = plan.depth_counts(endpoints)
        counts = depth_backend.execute(plan)[slot]
    depths = np.minimum(counts[:, 0], counts[:, 1]).astype(float)
    promise = max(1.0, (m - cluster_size) / 2.0)
    selection = rec_concave(depths, promise=promise, alpha=0.5, params=half,
                            rng=select_rng)
    return IntPointResult(value=float(endpoints[selection.index]),
                          is_zero_radius=False, cluster_result=cluster,
                          candidate_count=endpoints.size)


__all__ = ["IntPointResult", "int_point", "int_point_sample_size"]
