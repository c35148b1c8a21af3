"""Algorithm GoodCenter (paper Algorithm 2, Lemma 3.7).

Given the radius ``r`` produced by GoodRadius, privately locate a centre
``y_hat`` such that a ball of radius ``O(r sqrt(log n))`` around it contains
at least ``t - O((1/epsilon) log(n/beta))`` input points.

Structure (step numbers refer to Algorithm 2):

1.  Project the points into ``R^k``, ``k = O(log(n/beta))``, with a
    Johnson–Lindenstrauss map.  When ``k`` would reach the ambient dimension
    ``d`` the projection is the identity — the JL step exists only to make
    ``k`` small, so there is nothing to gain from a square random projection.
2.  Instantiate AboveThreshold with budget ``epsilon/4``.
3-6. Repeatedly draw a randomly shifted partition of ``R^k`` into boxes of
    side ``O(r)`` and ask AboveThreshold whether some box captures ``~ t``
    projected points; stop at the first positive answer.
7.  Use the stability-based histogram (``epsilon/4, delta/4``) to pick a heavy
    box ``B``; let ``D`` be the input points mapped into ``B``.
8-9. Rotate ``R^d`` by a random orthonormal basis; on each rotated axis pick a
    heavy interval of length ``p`` (stability-based histogram, per-axis budget
    chosen so the ``d`` choices compose to ``epsilon/4`` under advanced
    composition) and extend it by ``p`` on each side.
10. Intersect ``D`` with the bounding sphere ``C`` of the resulting box —
    this gives a *deterministic* diameter bound for the final step.
11. Release the noisy average of ``D ∩ C`` with NoisyAVG (``epsilon/4,
    delta/4``).

Under the identity projection the chosen box ``B`` already lives in ``R^d``
and is itself a deterministic diameter bound of order ``r sqrt(k)``, which is
exactly what steps 8–10 exist to provide; in that case those steps are skipped
and ``C`` is taken to be the circumscribed ball of ``B`` (this only ever
*reduces* the privacy spend — the per-axis budget goes unused — and matches
the paper's own explanation of why the rotation is needed, namely to avoid a
``sqrt(d)`` blow-up that cannot occur when ``k = d``).

Every data-heavy stage is a :class:`~repro.neighbors.QueryPlan` on a
neighbor backend, one plan per dependency frontier: the partition-search
batch, the step-7 box histogram, the step-9 axis histograms, and the
steps-10-11 NoisyAVG statistics.  A noise draw sits between consecutive
frontiers and the later plan's arguments depend on it, so per-stage plans
are the fusion limit at exact parity.  Strategies whose ``submit`` overlaps
work (``supports_speculation``) additionally *speculate* across each noise
gate: the noisy choice usually equals the argmax of the pre-noise counts
(:func:`_predict_slot`), so the next stage's plan for that prediction is
submitted before the noise is drawn and either consumed (a hit — its
arguments are identical to the real plan's) or discarded unread.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.accounting.composition import per_step_epsilon_for_advanced
from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.core.config import GoodCenterConfig
from repro.core.types import GoodCenterResult
from repro.geometry.boxes import AxisIntervalPartition, ShiftedBoxPartition
from repro.geometry.jl import JohnsonLindenstrauss
from repro.geometry.rotation import random_orthonormal_basis
from repro.mechanisms.above_threshold import AboveThreshold
from repro.mechanisms.histogram import stable_histogram_choice_from_counts
# ``noisy_average`` stays importable from this module: perfbench/tracing.py
# counts noise draws by wrapping the NoisyAVG entry points bound here.
from repro.mechanisms.noisy_average import (  # noqa: F401
    noisy_average,
    noisy_average_from_stats,
)
from repro.neighbors import BackendLike, QueryPlan, backend_scope
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_points, check_positive, check_probability


def _predict_slot(counts) -> int:
    """The pre-noise prediction at a histogram noise gate: the slot of the
    largest count (first occurrence on ties — deterministic, and the choice
    the stability histogram is most likely to make).  Module-level so the
    mispredict regression tests can monkeypatch it into a pathological
    predictor."""
    return int(np.argmax(np.asarray(counts)))


def _plan(op: str, *args) -> QueryPlan:
    """A one-query plan (its result is slot 0)."""
    plan = QueryPlan()
    getattr(plan, op)(*args)
    return plan


def _failure(attempts: int, k: int) -> GoodCenterResult:
    return GoodCenterResult(center=None, radius_bound=float("inf"),
                            attempts=attempts, projected_dimension=k)


def good_center(points, radius: float, target: int, params: PrivacyParams,
                beta: float = 0.1, config: Optional[GoodCenterConfig] = None,
                rng: RngLike = None,
                ledger: Optional[PrivacyLedger] = None,
                backend: BackendLike = None) -> GoodCenterResult:
    """Privately locate the centre of a ball of radius ``~ radius`` holding
    ``~ target`` points.

    Parameters
    ----------
    points:
        ``(n, d)`` input database.
    radius:
        The cluster radius ``r`` (typically the GoodRadius output); must be
        positive — a zero radius means a cluster of identical points, which
        the combined solver handles separately.
    target:
        Desired cluster size ``t``.
    params:
        Overall ``(epsilon, delta)`` budget; split into four ``epsilon/4``
        parts exactly as in the paper's privacy analysis (Lemma 4.11).
    beta:
        Failure probability.
    config:
        The GoodCenter constants (paper or practical).
    rng:
        Seed or generator.
    ledger:
        Optional privacy ledger.
    backend:
        Neighbor-backend selection (name, class, or instance); ``None``
        uses an in-process ``"chunked"`` backend.  Every data-heavy stage
        is a :class:`~repro.neighbors.QueryPlan` on it: the partition
        search and step-7 box histogram over a
        :class:`~repro.neighbors.base.ProjectedView` of the projection, and
        steps 8-11 as masked aggregates over a
        :class:`~repro.neighbors.base.BoxSelection` label predicate — the
        rotated frame is just another ``backend.view(basis)``, and NoisyAVG
        consumes the merged ``(count, exact sum)`` statistics.  The sharded
        backend runs each plan in one worker round trip per shard over its
        shared-memory block, so the parent never holds the projected image,
        a membership mask, or the rotated selected coordinates.  Pure
        performance: the projection is row-decomposable, the grid hashes
        and sphere mask are shared definitions, histogram cells arrive in
        first-occurrence order, and the aggregate sums are exact
        fixed-point, so every backend releases the same bytes.  A backend
        built here (from ``None``, a name or a class) is closed before
        returning; a caller's instance stays open.

    Returns
    -------
    GoodCenterResult
        ``center`` is ``None`` when the algorithm could not locate a heavy
        box/interval or NoisyAVG abstained; callers may retry with a fresh
        budget or report failure.
    """
    points = check_points(points)
    radius = check_positive(radius, "radius")
    target = check_integer(target, "target", minimum=1)
    beta = check_probability(beta, "beta")
    if params.delta <= 0:
        raise ValueError("good_center requires delta > 0")
    if config is None:
        config = GoodCenterConfig.practical()

    n, dimension = points.shape
    at_fraction, box_fraction, axes_fraction, avg_fraction = config.budget_split
    at_epsilon = params.epsilon * at_fraction
    box_epsilon = params.epsilon * box_fraction
    axes_epsilon = params.epsilon * axes_fraction
    avg_epsilon = params.epsilon * avg_fraction
    quarter_delta = params.delta / 4.0
    # The partition *shift* draws get their own stream (shift_rng), separate
    # from AboveThreshold's noise stream (partition_rng): the batched search
    # below draws a few shifts ahead of their AboveThreshold queries, and
    # with a shared stream that lookahead would reorder the noise draws —
    # i.e. the batch size would change the release.  With split streams the
    # query sequence, and hence the output distribution, is identical at
    # every batch size.
    (jl_rng, partition_rng, box_rng, basis_rng, axis_rng, avg_rng,
     shift_rng) = spawn_generators(rng, 7)

    # ------------------------------------------------------------------ #
    # Step 1: Johnson-Lindenstrauss projection (identity when k reaches d).
    # ------------------------------------------------------------------ #
    k = config.projection_dimension(n, beta, ambient_dimension=dimension)
    identity_projection = k >= dimension
    projection: Optional[JohnsonLindenstrauss] = None
    if identity_projection:
        k = dimension
    else:
        projection = JohnsonLindenstrauss(input_dimension=dimension,
                                          output_dimension=k, rng=jl_rng)

    with backend_scope(points,
                       "chunked" if backend is None else backend) as resolved:
        # The projected points live behind a ProjectedView (applied
        # shard-side by the sharded strategy, so the parent never
        # materialises the (n, k) image).
        view = resolved.view(None if projection is None else projection.matrix)
        speculate = resolved.supports_speculation

        # -------------------------------------------------------------- #
        # Steps 2-6: find a heavy randomly-shifted box partition.
        # -------------------------------------------------------------- #
        threshold = target - (config.threshold_slack_constant
                              / params.epsilon) * math.log(2.0 * n / beta)
        max_attempts = config.max_attempts(n, beta)
        above = AboveThreshold(threshold, PrivacyParams(at_epsilon, 0.0),
                               max_queries=max_attempts, rng=partition_rng)
        if ledger is not None:
            ledger.record("above_threshold", PrivacyParams(at_epsilon, 0.0),
                          note="GoodCenter partition search")
        width = config.box_width(radius, k, identity_projection)

        # One plan per attempt batch: the view picks the batch (1
        # in-process, where attempts past the accepted one would be wasted
        # hashes; larger on the sharded view, amortising its fan-out).
        chosen_partition: Optional[ShiftedBoxPartition] = None
        histogram = None
        attempts = 0
        while attempts < max_attempts and chosen_partition is None:
            batch = [
                ShiftedBoxPartition(dimension=k, width=width, rng=shift_rng)
                for _ in range(min(view.batch_size, max_attempts - attempts))
            ]
            counts = resolved.execute(_plan(
                "heaviest_cell_counts", view, width,
                np.stack([partition.shifts for partition in batch]),
            ))[0]
            search_spec = None
            if speculate:
                # Predict the accepted attempt: the first whose pre-noise
                # count clears the pre-noise threshold (AboveThreshold's
                # most likely acceptance).  Ship its step-7 box histogram
                # while the noisy queries run.
                passing = np.flatnonzero(np.asarray(counts) >= threshold)
                if passing.shape[0]:
                    predicted = int(passing[0])
                    search_spec = (predicted, resolved.submit(_plan(
                        "cell_histogram", view, width, batch[predicted].shifts,
                    )))
            accepted_slot = None
            for batch_slot, (partition, count) in enumerate(zip(batch,
                                                                counts)):
                attempts += 1
                if above.query(int(count)).above:
                    chosen_partition = partition
                    accepted_slot = batch_slot
                    break
            if search_spec is not None:
                search_hit = accepted_slot == search_spec[0]
                resolved.record_speculation("search->box", search_hit)
                if search_hit:
                    histogram = search_spec[1].result()[0]
        if chosen_partition is None:
            return _failure(attempts, k)

        # -------------------------------------------------------------- #
        # Step 7: pick the heavy box with the choosing mechanism.  The
        # occupied cells reach the mechanism in first-occurrence
        # (dataset-row) order on every backend, so the per-cell noise draws
        # are bit-identical however the histogram was counted.  A
        # search->box hit already holds this histogram (identical
        # arguments).
        # -------------------------------------------------------------- #
        if histogram is None:
            histogram = resolved.execute(_plan(
                "cell_histogram", view, width, chosen_partition.shifts,
            ))[0]
        cell_keys, cell_counts = histogram
        cells = [(tuple(int(index) for index in key), int(count))
                 for key, count in zip(cell_keys, cell_counts)]

        # Box-stage speculation: the stability histogram's choice is usually
        # the heaviest occupied cell, and the next stage's plan for that
        # cell can be built entirely from pre-noise data — including, on the
        # JL path, the random basis (its own independent stream, drawn once,
        # so drawing it before the box noise instead of after cannot change
        # any draw).
        box_spec = None
        basis = None
        frame_view = view
        interval_length = config.rotated_interval_length(
            radius, k, dimension, n, beta, identity_projection
        )
        if speculate and cells:
            predicted_key = cells[_predict_slot(cell_counts)][0]
            spec_selection = view.box_selection(
                width, chosen_partition.shifts,
                np.asarray(predicted_key, dtype=np.int64),
            )
            if identity_projection:
                # Steps 8-10 are skipped on this path, so the predicted next
                # frontier is the steps-10-11 statistics over the predicted
                # box's circumscribed ball.
                predicted_box = chosen_partition.box_for_label(predicted_key)
                spec_plan = _plan("masked_clipped_sum", view, spec_selection,
                                  predicted_box.center,
                                  predicted_box.diameter / 2.0)
            else:
                basis = random_orthonormal_basis(dimension, rng=basis_rng)
                frame_view = resolved.view(basis)
                spec_plan = _plan("masked_axis_histograms", frame_view,
                                  spec_selection, interval_length)
            box_spec = (predicted_key, spec_selection,
                        resolved.submit(spec_plan))

        box_choice = stable_histogram_choice_from_counts(
            cells, PrivacyParams(box_epsilon, quarter_delta), rng=box_rng
        )
        if ledger is not None:
            ledger.record("stable_histogram",
                          PrivacyParams(box_epsilon, quarter_delta),
                          note="GoodCenter box choice")
        box_hit = False
        if box_spec is not None:
            box_hit = box_choice.found and tuple(box_choice.key) == box_spec[0]
            resolved.record_speculation(
                "box->avg" if identity_projection else "box->axes", box_hit
            )
        # The histogram already carries the exact occupancy of the chosen
        # box — no membership pass needed for the emptiness guard.
        if not box_choice.found or int(box_choice.true_count) == 0:
            return _failure(attempts, k)
        # The selected set D travels as a label predicate: no membership
        # mask, row list or selected coordinates ever exist in the parent.
        # On a box-stage hit the speculative selection *is* the chosen one
        # (same width/shifts/index); reusing it keeps the workers'
        # token-keyed membership memo warm.
        selection = (box_spec[1] if box_hit else view.box_selection(
            width, chosen_partition.shifts,
            np.asarray(box_choice.key, dtype=np.int64),
        ))
        spec_stats = box_spec[2] if box_hit and identity_projection else None
        chosen_box = chosen_partition.box_for_label(box_choice.key)
        selected_diameter = config.selected_set_diameter(radius, k,
                                                         identity_projection)

        if identity_projection:
            # The box B is itself a subset of R^d with a known circumscribed
            # ball; steps 8-10 would only produce a looser deterministic
            # bound, so the bounding sphere is taken directly from B (see
            # module docstring).
            sphere_center = chosen_box.center
            sphere_radius = chosen_box.diameter / 2.0
        else:
            # ---------------------------------------------------------- #
            # Steps 8-9: random rotation, per-axis heavy intervals.  The
            # rotated frame is another view; its axis histograms arrive in
            # first-occurrence order (bit-identical noise draws) as one
            # plan.  The basis stream is independent of every other stream
            # and drawn from exactly once, so a speculative early draw
            # produced the very matrix this stage would have; its frame
            # view is reused too (workers cache images by view token).
            # ---------------------------------------------------------- #
            if basis is None:
                basis = random_orthonormal_basis(dimension, rng=basis_rng)
                frame_view = resolved.view(basis)
            axis_epsilon = per_step_epsilon_for_advanced(
                axes_epsilon, dimension, delta_prime=params.delta / 8.0
            )
            axis_params = PrivacyParams(axis_epsilon,
                                        params.delta / (8.0 * dimension))
            axis_rngs = spawn_generators(axis_rng, dimension)
            partition = AxisIntervalPartition(width=interval_length)
            sphere_radius = config.bounding_sphere_radius(interval_length,
                                                          dimension)
            if box_hit:
                axis_histograms = box_spec[2].result()[0]
            else:
                axis_histograms = resolved.execute(_plan(
                    "masked_axis_histograms", frame_view, selection,
                    interval_length,
                ))[0]

            # Axes-stage speculation: predict every axis's heavy interval at
            # once (the per-axis argmaxes), derive the bounding sphere those
            # predictions imply, and ship the steps-10-11 statistics plan
            # while the d per-axis noise gates run.  A hit requires *every*
            # axis choice to land on its prediction — the sphere depends on
            # all of them.
            axes_spec = None
            if speculate:
                predicted_keys = [
                    int(axis_keys[_predict_slot(axis_counts)])
                    for axis_keys, axis_counts in axis_histograms
                ]
                bounds = np.asarray([partition.extended_interval(key)
                                     for key in predicted_keys])
                axes_spec = (predicted_keys, resolved.submit(_plan(
                    "masked_clipped_sum", frame_view, selection,
                    (bounds[:, 0] + bounds[:, 1]) / 2.0, sphere_radius,
                )))

            lower_bounds = np.empty(dimension)
            upper_bounds = np.empty(dimension)
            axes_hit = axes_spec is not None
            for axis, (axis_keys, axis_counts) in enumerate(axis_histograms):
                choice = stable_histogram_choice_from_counts(
                    list(zip(axis_keys.tolist(), axis_counts.tolist())),
                    axis_params, rng=axis_rngs[axis],
                )
                if not choice.found:
                    if axes_spec is not None:
                        resolved.record_speculation("axes->avg", False)
                    return _failure(attempts, k)
                if axes_spec is not None and int(choice.key) != axes_spec[0][axis]:
                    axes_hit = False
                lower_bounds[axis], upper_bounds[axis] = (
                    partition.extended_interval(int(choice.key))
                )
            if axes_spec is not None:
                resolved.record_speculation("axes->avg", axes_hit)
                if axes_hit:
                    spec_stats = axes_spec[1]
            if ledger is not None:
                ledger.record("stable_histogram_axes",
                              PrivacyParams(axes_epsilon, quarter_delta),
                              note="GoodCenter per-axis interval choices "
                                   "(advanced composition)")

            # Step 10: bounding sphere C in the rotated frame.
            sphere_center = (lower_bounds + upper_bounds) / 2.0

        # -------------------------------------------------------------- #
        # Steps 10-11: captured count + NoisyAVG of D' in the working frame
        # from the merged (count, exact sum) statistics, then map back if
        # needed.  The sphere's centre depends on the step-9 noise, so this
        # frontier cannot fuse with the axis-histogram plan.  A box-stage
        # (identity path) or axes-stage (JL path) hit already holds the
        # statistics: the predicted sphere is a deterministic function of
        # the predicted choices, which all landed.
        # -------------------------------------------------------------- #
        if spec_stats is not None:
            stats = spec_stats.result()[0]
        else:
            stats = resolved.execute(_plan(
                "masked_clipped_sum", frame_view, selection, sphere_center,
                sphere_radius,
            ))[0]

    avg_params = PrivacyParams(avg_epsilon, quarter_delta)
    average = noisy_average_from_stats(
        stats.count, stats.vector_sum, diameter=2.0 * sphere_radius,
        params=avg_params, center=sphere_center, rng=avg_rng,
    )
    if ledger is not None:
        ledger.record("noisy_average", avg_params,
                      note="GoodCenter final average")
    if not average.found:
        return _failure(attempts, k)
    center = np.asarray(average.value, dtype=float)
    if basis is not None:
        # Basis rows are the rotated axes, so rotated coordinates map back
        # to the standard frame through the matrix itself.
        center = center @ basis

    noise_bound = average.sigma * (math.sqrt(dimension) + math.sqrt(2.0 * math.log(2.0 / beta)))
    radius_bound = selected_diameter + noise_bound
    return GoodCenterResult(
        center=center,
        radius_bound=float(radius_bound),
        attempts=attempts,
        projected_dimension=k,
        captured_count=int(stats.count),
    )


__all__ = ["good_center"]
