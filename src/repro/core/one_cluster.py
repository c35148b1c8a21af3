"""The combined 1-cluster solver (paper Theorem 3.2).

``one_cluster`` splits its privacy budget between GoodRadius and GoodCenter
and stitches their outputs into a single released ball.  A zero radius from
GoodRadius (a cluster of ``t`` identical points) is handled by choosing the
heavy point directly with the stability-based histogram, which is both simpler
and tighter than running GoodCenter with a degenerate radius.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.core.config import OneClusterConfig
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.core.types import GoodCenterResult, GoodRadiusResult, OneClusterResult
from repro.geometry.balls import Ball
from repro.geometry.grid import GridDomain
from repro.mechanisms.histogram import stable_histogram_choice
from repro.neighbors import BackendLike, backend_scope
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_points, check_probability


def _zero_radius_center(points: np.ndarray, params: PrivacyParams,
                        rng) -> GoodCenterResult:
    """Locate a cluster of identical points with the choosing mechanism.

    The rounded rows are deduplicated with one vectorised ``np.unique`` and
    the histogram runs over the resulting integer labels.  (The histogram's
    per-cell noise draws follow first-occurrence order of the label sequence,
    which is the same regardless of the integer values ``np.unique`` assigns.)
    """
    rounded = np.round(points, decimals=12)
    unique_rows, inverse = np.unique(rounded, axis=0, return_inverse=True)
    labels = np.reshape(inverse, -1).tolist()
    choice = stable_histogram_choice(labels, params, rng=rng)
    if not choice.found:
        return GoodCenterResult(center=None, radius_bound=float("inf"),
                                attempts=0, projected_dimension=points.shape[1])
    center = unique_rows[int(choice.key)]
    return GoodCenterResult(
        center=np.asarray(center, dtype=float),
        radius_bound=0.0,
        attempts=1,
        projected_dimension=points.shape[1],
        captured_count=choice.true_count,
    )


def one_cluster(points, target: int, params: PrivacyParams, beta: float = 0.1,
                domain: Optional[GridDomain] = None,
                config: Optional[OneClusterConfig] = None,
                rng: RngLike = None,
                ledger: Optional[PrivacyLedger] = None,
                backend: BackendLike = None) -> OneClusterResult:
    """Privately locate a small ball containing roughly ``target`` points.

    This is the end-to-end algorithm of Theorem 3.2: GoodRadius followed by
    GoodCenter, each on half the budget (the split is configurable through
    ``config.radius_budget_fraction``).

    Parameters
    ----------
    points:
        ``(n, d)`` input database.
    target:
        The desired cluster size ``t`` (``1 <= t <= n``).
    params:
        The overall ``(epsilon, delta)`` budget for the whole call.
    beta:
        Failure probability (split evenly between the two phases).
    domain:
        Optional finite grid domain ``X^d``; inferred from the data's bounding
        box when omitted.
    config:
        Solver configuration; :class:`~repro.core.config.OneClusterConfig`
        defaults to the practical constants.
    rng:
        Seed or generator.
    ledger:
        Optional :class:`~repro.accounting.ledger.PrivacyLedger` recording
        every sub-mechanism spend.
    backend:
        Neighbor-backend selection (name, class, or instance); overrides
        ``config.neighbor_backend``.  Resolved once and shared by both
        phases: GoodRadius reuses its cached distance statistics and
        GoodCenter batches its partition search through the same instance
        (one worker pool, not two, when the backend is sharded).
        Performance only — the output distribution is backend-independent.

    Returns
    -------
    OneClusterResult
        The released ball (centre + guaranteed radius bound) together with the
        per-phase sub-results.  ``result.found`` is ``False`` when GoodCenter
        could not locate the cluster, which Theorem 3.2 says happens with
        probability at most ``beta`` once ``target`` exceeds the minimum
        cluster size.
    """
    points = check_points(points)
    target = check_integer(target, "target", minimum=1)
    if target > points.shape[0]:
        raise ValueError(
            f"target ({target}) cannot exceed the number of points ({points.shape[0]})"
        )
    beta = check_probability(beta, "beta")
    if config is None:
        config = OneClusterConfig()

    radius_rng, center_rng = spawn_generators(rng, 2)
    fraction = config.radius_budget_fraction
    radius_params, center_params = params.split(fraction, 1.0 - fraction)
    half_beta = beta / 2.0

    # Resolve the backend once so both phases share one instance (cached
    # truncated statistics, and a single worker pool for "sharded").  A
    # backend built *here* (from None / a name / a class) is closed before
    # returning, so a sharded backend's worker pool and shared-memory
    # segment are released deterministically instead of riding on garbage
    # collection — callers that loop (k_cluster builds one backend per
    # iteration) would otherwise accumulate live pools and leak segments to
    # interpreter shutdown.  A caller-supplied *instance* stays the
    # caller's to close.
    options = None
    if backend is None:
        backend = config.neighbor_backend
        options = config.neighbor_backend_options() or None
    with backend_scope(points, backend, options) as shared_backend:
        radius_result: GoodRadiusResult = good_radius(
            points, target, radius_params, beta=half_beta, domain=domain,
            config=config, rng=radius_rng, ledger=ledger,
            backend=shared_backend,
        )

        if radius_result.zero_cluster or radius_result.radius <= 0.0:
            center_result = _zero_radius_center(points, center_params,
                                                center_rng)
            if ledger is not None:
                ledger.record("stable_histogram", center_params,
                              note="zero-radius cluster centre")
        else:
            center_result = good_center(
                points, radius_result.radius, target, center_params,
                beta=half_beta, config=config.center, rng=center_rng,
                ledger=ledger, backend=shared_backend,
            )

    if center_result.found:
        ball = Ball(center=center_result.center, radius=center_result.radius_bound)
    else:
        ball = None
    return OneClusterResult(
        ball=ball,
        radius_result=radius_result,
        center_result=center_result,
        target=target,
    )


__all__ = ["one_cluster"]
