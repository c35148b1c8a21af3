"""Algorithm GoodRadius (paper Algorithm 1, Lemma 3.6).

Given a database ``S`` of ``n`` points and a target cluster size ``t``,
privately output a radius ``z`` such that (w.h.p.) some ball of radius ``z``
contains at least ``t - O(Gamma)`` input points and ``z <= 4 r_opt``.

The algorithm:

1. Computes the sensitivity-2 capped-average score ``L(r, S)`` through the
   pluggable :mod:`repro.neighbors` backend layer (see :class:`RadiusScore`).
2. Early-exits with radius 0 if a Laplace-noised ``L(0, S)`` is already close
   to ``t`` (a cluster of identical points).
3. Otherwise defines the sensitivity-1, quasi-concave quality
   ``Q(r, S) = 1/2 * min(t - L(r/2, S), L(r, S) - t + 4 Gamma)``
   and hands it to a private quasi-concave solver (RecConcave by default,
   noisy binary search as an alternative) over the grid of candidate radii.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.core.config import OneClusterConfig
from repro.core.params import good_radius_gamma
from repro.core.types import GoodRadiusResult
from repro.geometry.grid import GridDomain
from repro.mechanisms.laplace import laplace_noise
from repro.neighbors import (
    BackendLike,
    NeighborBackend,
    QueryPlan,
    backend_scope,
    resolve_backend,
)
from repro.quasiconcave.binary_search import noisy_binary_search
from repro.quasiconcave.quality import CallableQuality
from repro.quasiconcave.rec_concave import practical_promise, rec_concave
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_points, check_probability


class RadiusScore:
    """Evaluator of the capped-average score ``L(r, S)``.

    A thin wrapper over a :class:`~repro.neighbors.NeighborBackend`: the
    backend owns the distance computation strategy (dense matrix, blocked,
    KD-tree, or a shard-per-process pool), caches the per-point
    truncated-distance statistic — switching to the radii-chunked streaming
    walk for large targets, where nothing is persisted — and batches whole
    radius grids in one call.  The evaluator therefore never materialises an
    ``(n, n)`` matrix unless the dense backend was explicitly chosen (or
    selected automatically at small ``n``).

    Parameters
    ----------
    points:
        ``(n, d)`` input database.
    target:
        The target cluster size ``t`` (also the count cap); ``1 <= t <= n``.
    backend:
        Neighbor-backend selection (name, class, instance, or ``None`` for
        automatic); see :func:`repro.neighbors.resolve_backend`.
    backend_options:
        Constructor options applied when the backend is built here (e.g.
        ``{"num_workers": 4}`` for ``backend="sharded"``).
    """

    def __init__(self, points: np.ndarray, target: int,
                 backend: BackendLike = None,
                 backend_options: Optional[dict] = None) -> None:
        points = check_points(points)
        self._n = points.shape[0]
        self._target = check_integer(target, "target", minimum=1)
        if self._target > self._n:
            raise ValueError(
                f"target ({target}) cannot exceed the number of points ({self._n})"
            )
        self._backend = resolve_backend(points, backend,
                                        options=backend_options)

    @property
    def num_points(self) -> int:
        """The database size ``n``."""
        return self._n

    @property
    def target(self) -> int:
        """The target cluster size ``t`` (also the cap)."""
        return self._target

    @property
    def backend(self) -> NeighborBackend:
        """The neighbor backend answering the distance queries."""
        return self._backend

    def evaluate(self, radii) -> np.ndarray:
        """``L(r, S)`` for every radius in ``radii`` (Algorithm 1, step 1).

        The whole grid rides one single-query
        :class:`~repro.neighbors.QueryPlan` — bitwise the direct
        ``capped_average_scores`` call (the plan layer changes transport
        only), but the batch now shares the backends' plan submission and
        fan-out instrumentation path.

        Parameters
        ----------
        radii:
            Scalar or ``(m,)`` array of radii; negative radii give score 0.

        Returns
        -------
        numpy.ndarray
            ``(m,)`` float scores in the order supplied, evaluated in one
            batched backend call (one merge-walk / streaming pass for the
            whole grid).
        """
        return self.submit(radii).result()[0]

    def submit(self, radii):
        """Submit a score-profile batch as a plan.

        Returns a :class:`~repro.neighbors.PlanFuture` whose ``result()``
        holds ``[scores]``, bitwise identical to :meth:`evaluate`.  Note
        that ``capped_average_scores`` is a *coordinator* plan operation —
        its merge-walk / streaming evaluation runs before ``submit``
        returns, on every backend — so this is the uniform plan-carriage
        form of the batch (instrumentation, future-based hand-over), not a
        way to overlap two profile evaluations.
        """
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        plan = QueryPlan()
        plan.capped_average_scores(radii, self._target)
        return self._backend.submit(plan)

    def evaluate_single(self, radius: float) -> float:
        """``L(radius, S)`` for one radius (see :meth:`evaluate`)."""
        return float(self.evaluate(np.array([radius]))[0])


def _resolve_domain(points: np.ndarray, domain: Optional[GridDomain],
                    grid_side: int) -> GridDomain:
    """Use the supplied domain, or quantise the data's bounding box."""
    if domain is not None:
        if domain.dimension != points.shape[1]:
            raise ValueError(
                f"domain dimension {domain.dimension} does not match data "
                f"dimension {points.shape[1]}"
            )
        return domain
    low = float(np.floor(points.min()))
    high = float(np.ceil(points.max()))
    if high <= low:
        high = low + 1.0
    return GridDomain(dimension=points.shape[1], side=grid_side, low=low, high=high)


def good_radius(points, target: int, params: PrivacyParams, beta: float = 0.1,
                domain: Optional[GridDomain] = None,
                config: Optional[OneClusterConfig] = None,
                rng: RngLike = None,
                ledger: Optional[PrivacyLedger] = None,
                backend: BackendLike = None) -> GoodRadiusResult:
    """Privately approximate the radius of the smallest ball with ``target`` points.

    Parameters
    ----------
    points:
        ``(n, d)`` input database.
    target:
        Desired cluster size ``t`` (``1 <= t <= n``).
    params:
        Overall ``(epsilon, delta)`` budget of the call; split internally as
        ``epsilon/2`` for the zero-radius test and ``epsilon/2`` for the
        quasi-concave search, exactly as in the paper's privacy analysis
        (Lemma 4.5).
    beta:
        Failure probability.
    domain:
        The finite grid domain ``X^d``.  When omitted, the data's bounding box
        is quantised with ``config.grid_side`` points per axis.
    config:
        Solver configuration (radius method, paper vs practical constants).
    rng:
        Seed or generator.
    ledger:
        Optional privacy ledger to record sub-mechanism spends.
    backend:
        Neighbor-backend selection (name, class, or instance) for the ``L``
        evaluations; overrides ``config.neighbor_backend`` when supplied.
        Backend choice affects performance only — all backends return
        identical scores, so the released radius distribution is unchanged.

    Returns
    -------
    GoodRadiusResult
    """
    points = check_points(points)
    target = check_integer(target, "target", minimum=1)
    beta = check_probability(beta, "beta")
    if config is None:
        config = OneClusterConfig()
    if params.delta <= 0:
        raise ValueError("good_radius requires delta > 0 (RecConcave and Gamma need it)")

    domain = _resolve_domain(points, domain, config.grid_side)
    backend_options = None
    if backend is None:
        backend = config.neighbor_backend
        backend_options = config.neighbor_backend_options() or None
    # A backend built here is closed before returning, even when the search
    # raises; a caller's instance stays open.
    with backend_scope(points, backend, backend_options) as resolved:
        return _search_radius(RadiusScore(points, target, backend=resolved),
                              params, beta, domain, config, rng, ledger)


def _search_radius(score: RadiusScore, params: PrivacyParams, beta: float,
                   domain: GridDomain, config: OneClusterConfig,
                   rng: RngLike,
                   ledger: Optional[PrivacyLedger]) -> GoodRadiusResult:
    """Steps 2-4 of :func:`good_radius` over an already-built score."""
    target = score.target
    laplace_rng, search_rng = spawn_generators(rng, 2)

    half = params.part(0.5)
    candidate_radii = domain.candidate_radii()
    solution_count = candidate_radii.shape[0]

    if config.paper_constants:
        gamma = good_radius_gamma(domain, params, beta)
    else:
        # Practical promise: the high-probability selection error of the
        # noisy-max based search (sensitivity-1 quality, budget epsilon/2),
        # i.e. O((1/epsilon) log(|F|/beta)).  The paper-faithful Gamma with
        # its 8^{log*} factor is available via config.paper_constants.
        gamma = (2.0 / half.epsilon) * math.log(4.0 * solution_count / beta)

    # ------------------------------------------------------------------ #
    # Step 2: zero-radius early exit.  Skipped (deterministically, based on
    # public parameters only) when the test threshold is non-positive, i.e.
    # when t <= 2 Gamma and the test could never be meaningful.
    # ------------------------------------------------------------------ #
    score_at_zero = score.evaluate_single(0.0)
    threshold_zero = target - 2.0 * gamma - (4.0 / params.epsilon) * math.log(2.0 / beta)
    if threshold_zero > 0:
        noisy_zero = score_at_zero + laplace_noise(4.0 / params.epsilon, rng=laplace_rng)
        if ledger is not None:
            ledger.record("laplace", half, note="GoodRadius zero-radius test")
        if noisy_zero > threshold_zero:
            return GoodRadiusResult(radius=0.0, gamma=gamma, score=score_at_zero,
                                    zero_cluster=True, method=config.radius_method)

    # ------------------------------------------------------------------ #
    # Steps 3-4: quasi-concave search over candidate radii.
    # ------------------------------------------------------------------ #
    def batch_quality(indices: np.ndarray) -> np.ndarray:
        radii = candidate_radii[indices]
        # One fused backend call for L(r) and L(r/2), riding a single-query
        # plan (RadiusScore.evaluate): each radius is scored independently
        # inside the profile walk, so batching never changes a value — it
        # halves the merge-walk passes (and, for the sharded backend, the
        # per-shard round trips).
        values = score.evaluate(np.concatenate([radii, radii / 2.0]))
        values_at_r = values[:radii.shape[0]]
        values_at_half = values[radii.shape[0]:]
        return 0.5 * np.minimum(
            target - values_at_half,
            values_at_r - target + 4.0 * gamma,
        )

    quality = CallableQuality(
        function=lambda index: float(batch_quality(np.array([index]))[0]),
        size=solution_count,
        batch_function=batch_quality,
    )

    if config.radius_method == "binary_search":
        # Monotone search for the smallest radius with L(r) >= t - 2 Gamma.
        monotone = CallableQuality(
            function=lambda index: score.evaluate_single(float(candidate_radii[index])),
            size=solution_count,
            batch_function=lambda indices: score.evaluate(candidate_radii[indices]),
        )
        search = noisy_binary_search(
            monotone, threshold=target - 2.0 * gamma, params=half,
            sensitivity=2.0, rng=search_rng,
        )
        index = search.index
    else:
        result = rec_concave(quality, promise=gamma, alpha=0.5, params=half,
                             rng=search_rng)
        index = result.index
    if ledger is not None:
        ledger.record(config.radius_method, half, note="GoodRadius radius search")

    radius = float(candidate_radii[index])
    return GoodRadiusResult(
        radius=radius,
        gamma=gamma,
        score=score.evaluate_single(radius),
        zero_cluster=False,
        method=config.radius_method,
    )


__all__ = ["RadiusScore", "good_radius"]
