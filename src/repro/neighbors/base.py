"""The :class:`NeighborBackend` protocol.

A backend is bound to one ``(n, d)`` dataset and answers the distance queries
the rest of the library needs:

* :meth:`~NeighborBackend.radius_counts` — ``B_r(x_i, S)`` for every dataset
  point (the per-point ball counts of paper Section 3.1);
* :meth:`~NeighborBackend.query_radius_counts` — the same counts around
  arbitrary query centres (used by the exponential-mechanism baseline);
* :meth:`~NeighborBackend.count_within_many` — the batched ``(centers,
  radii)`` grid form, which strategies fuse (one distance pass, or one
  request per shard, for a whole probe batch);
* :meth:`~NeighborBackend.kth_distances` — each point's distance to its
  ``k``-th nearest dataset point (the statistic behind the non-private
  factor-2 approximation).

GoodCenter's grid hashes and masked aggregates (:class:`ProjectedView`)
and the depth counts are :class:`QueryPlan` queries, which every backend
runs through one plan engine (:mod:`repro.neighbors._engine`); the
in-process strategies are its one-shard case.

``kth_distances`` and the sensitivity-2 score ``L(r, S)`` are derived from
one statistic: each point's ``k`` smallest *squared* distances
(``min(B_r(x), k)`` only depends on the ``k`` nearest neighbours of ``x``, so
this is a sufficient statistic for every capped count).  The in-process
strategies (chunked and tree) build it through their
``_compute_truncated_squared`` hook and the base class reads it; the sharded
backend keeps it in its shards and overrides both readers,
:meth:`NeighborBackend._kth_squared` and :meth:`NeighborBackend._top_sums`.
All comparisons happen in squared space — ``within radius r`` means
``d2 <= r*r`` — matching scipy's KD-tree convention so every backend returns
identical integer counts; see :mod:`repro.neighbors._distance`.

The derived profile evaluation never materialises an ``(n, m)`` count matrix.
Small targets read the score off an order statistic of the truncated
distances: the integer sum of the ``t`` largest capped counts at radius
``r`` is the number of entries ``<= r*r`` among the ``t`` smallest of each
column of the row-sorted ``(n, t)`` statistic.  Every backend answers that
integer through one hook, :meth:`NeighborBackend._top_sums`.  The
in-process backends select and sort those ``t**2`` values once per target
(``O(n t + t^2 log t)``), after which a batch of ``m`` radii is one binary
search — ``O(m log t)``.  The sharded backend keeps the statistic in its
shards and answers the same integer through a column-threshold identity
(see :mod:`repro.neighbors.sharded`), so nothing of size ``O(n t)`` leaves
a shard.  Every backend keeps this profile state warm per target, not only
for the latest one: a :class:`ProfileCache` holds the recent targets in
most-recently-used order and evicts the least recently used while their
arrays exceed :data:`~repro.neighbors._distance.DEFAULT_MEMORY_BUDGET`
(64 MiB), always keeping the newest — so a dataset queried at several
targets (outlier screening at ``t ~ 0.9 n`` between GoodRadius calls) pays
the selection and sort once per target.  Large targets (by default ``t > n/2``
at ``n >= 8192``) switch to a radii-chunked *streaming* walk that
recomputes blocked distance passes per radius chunk and persists nothing —
``O(n * block + chunk * t)`` memory at every target, which keeps outlier
screening (``t ~ 0.9 n``) off the ``O(n^2)``-memory cliff.  Every path is
bit-identical.
"""

from __future__ import annotations

import abc
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.boxes import unique_rows
from repro.neighbors._distance import (
    DEFAULT_MEMORY_BUDGET,
    capped_count_histograms,
    row_block_size,
    squared_radius_keys,
)
from repro.neighbors._engine import (
    BACKEND_PLAN_OPS,
    MASKED_PLAN_OPS,
    VIEW_PLAN_OPS,
    _compile_plan,
    _merge_plan,
    _ShardSet,
    depth_count_pairs,
)
from repro.utils.validation import check_integer, check_points, check_positive

#: Auto-select the streaming (non-persisted) ``L(r, S)`` walk when the target
#: exceeds this fraction of ``n`` …
STREAMING_TARGET_FRACTION = 0.5

#: … and the dataset is at least this large (below it the persisted statistic
#: is small enough that streaming only adds distance recomputation).
STREAMING_MIN_POINTS = 8192


#: Shared key mapping (negative radii match nothing); one definition for all
#: paths, see :func:`repro.neighbors._distance.squared_radius_keys`.
_squared_radii = squared_radius_keys


def _check_1d(values, name: str) -> np.ndarray:
    """A scalar or 1-d query argument (radii, thresholds) as a 1-d float
    array; any other shape raises ``ValueError`` naming ``name``, on every
    backend and when a plan appends the query alike."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.ndim != 1:
        raise ValueError(
            f"{name} must be a scalar or a 1-d array, got shape {values.shape}"
        )
    return values


def _check_radii(radii) -> np.ndarray:
    """Score-profile radii as a 1-d float array (see :func:`_check_1d`).

    Also rejects NaN radii (a NaN key would silently score every point as
    captured); infinite radii stay legal.  The count queries take NaN
    radii and count nothing.
    """
    radii = _check_1d(radii, "radii")
    if np.isnan(radii).any():
        raise ValueError("radii must not be NaN")
    return radii


def _check_finite(value, name: str) -> float:
    """``value`` as a float, rejecting NaN and infinities."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _check_width(width) -> float:
    """A grid-hash cell side length as a float: finite and positive.

    A zero or NaN width makes every quotient of the hash non-finite (cast
    to one fake label) and an infinite one makes every quotient 0, so
    either way every point lands in one cell and a heaviest-cell query
    reports all ``n`` points.
    """
    return check_positive(_check_finite(width, "width"), "width")


class ProfileCache:
    """GoodRadius profile state kept per target, bounded in bytes.

    ``L(r, S)`` depends on the target ``t``, and one dataset is often
    queried at several targets, so each of the three places that keep
    profile state — the in-process backends' sorted ``t**2`` values, the
    sharded parent's thresholds and prefix sums, and each shard's sorted
    below-threshold entries — keeps it in one of these, one entry per
    recent target (a shard's entries are keyed by ``(shard, target)``).
    Entries are arrays or tuples of arrays, kept in most-recently-used
    order.  After each insertion the least recently used are evicted while
    the entries' bytes exceed :data:`DEFAULT_MEMORY_BUDGET`, but the
    newest always stays, so a single target over the budget is still
    cached.
    """

    def __init__(self) -> None:
        #: ``key -> (entry, its bytes)``, least recently used first.
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """The bytes of every cached array."""
        return self._nbytes

    def get(self, key):
        """The entry under ``key``, now the most recently used, or
        ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value) -> None:
        """Store ``value`` under ``key`` as the most recently used entry,
        then evict the least recently used while over budget."""
        size = (value.nbytes if isinstance(value, np.ndarray)
                else sum(part.nbytes for part in value))
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            self._nbytes -= replaced[1]
        self._entries[key] = (value, size)
        self._nbytes += size
        while len(self._entries) > 1 and self._nbytes > DEFAULT_MEMORY_BUDGET:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._nbytes -= evicted

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._nbytes = 0


class BackendUnavailableError(RuntimeError):
    """A backend's remote execution substrate became unreachable.

    Raised by transports (the distributed backend's node connections) when a
    node dies, a connection drops mid-message, or a per-call timeout fires.
    The distributed backend's failover layer catches it per node — re-dialing
    the node (replaying ``init``) or, if the node stays dead, handing its
    shards to the surviving nodes and replaying only its batch — so with
    retries enabled the error surfaces to callers only when recovery is
    exhausted: every node dead, the failure budget burned, the backend
    closed, or ``retries=0`` (the fail-fast mode).  Whenever it does surface,
    the contract is the original one, deliberately distinct from the sharded
    pool's silent serial fallback: the failure is reported instead of
    silently absorbed, and crucially *no partial merge* is ever returned,
    because a release computed from a subset of shards would be wrong, not
    just slow.
    """


def _score_from_histogram(histogram: np.ndarray, target: int,
                          descending_values: np.ndarray) -> float:
    """Top-``target`` mean from one capped-count histogram.

    The streaming path's counting-sort walk: take as many of the largest
    capped values as the histogram holds, until ``target`` values are taken.
    The integer it divides by ``target`` is the persisted path's
    order-statistic count, so the two profiles are bit-identical.

    Parameters
    ----------
    histogram:
        ``(cap + 1,)`` ``int64`` histogram of capped counts.
    target:
        The number of top values averaged (the paper's ``t``).
    descending_values:
        ``arange(cap, -1, -1)`` — passed in so batch callers allocate it
        once.

    Returns
    -------
    float
        ``L(r, S)`` at the histogram's radius.
    """
    taken = np.minimum(np.cumsum(histogram[::-1]), target)
    per_value = np.diff(taken, prepend=0)
    return float(per_value @ descending_values) / target


def _scores_from_histograms(histograms: np.ndarray, cap: int,
                            target: int) -> np.ndarray:
    """``L(r, S)`` per radius from ``(m, cap + 1)`` capped-count histograms
    (see :func:`_score_from_histogram`)."""
    descending_values = np.arange(cap, -1, -1, dtype=np.int64)
    scores = np.empty(histograms.shape[0], dtype=float)
    for slot in range(histograms.shape[0]):
        scores[slot] = _score_from_histogram(histograms[slot], target,
                                             descending_values)
    return scores


def first_occurrence_cells(labels: np.ndarray):
    """Unique labels with counts, ordered by first occurrence.

    ``labels`` is either a ``(n,)`` scalar label array or a ``(n, k)``
    label-vector array (one row per element).  Returns ``(unique, counts)``
    with the unique labels ordered by the position of their first occurrence
    in the input — the same cell order a ``collections.Counter`` built from
    the label sequence would iterate in.  That ordering is load-bearing: the
    stability-based histogram mechanism draws one noise variate per occupied
    cell *in cell order*, so any path that precomputes the histogram (the
    backend view layer, the sharded merge) must present the cells in exactly
    this order for the release to be bit-identical to the label-sequence
    path.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        unique, first, counts = np.unique(labels, return_index=True,
                                          return_counts=True)
    else:
        unique, first, counts = unique_rows(labels, return_index=True,
                                            return_counts=True)
    order = np.argsort(first, kind="stable")
    return unique[order], counts[order]


#: Monotonic ids for :class:`BoxSelection` instances.  The sharded workers
#: key their per-shard membership cache on this token, so the masked queries
#: of one ``good_center`` call (and of one :class:`QueryPlan`) derive each
#: shard's membership at most once per worker instead of once per query.
_SELECTION_TOKENS = itertools.count(1)

#: Monotonic ids for non-identity :class:`ProjectedView` instances: every
#: shard set caches its shard's projected image keyed by the view's token,
#: so a view's matrix is applied to a shard at most once per process no
#: matter how many queries it answers.
_VIEW_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class BoxSelection:
    """A label predicate: "the points whose image under *this view* falls in
    box ``label`` of the shifted partition ``(width, shifts)``".

    GoodCenter's selected set ``D`` (Algorithm 2, step 7) is exactly such a
    predicate over the partition-search view.  Passing the *predicate* — not
    a membership mask or a row list — to the masked aggregate queries lets
    the sharded backend ship it to the workers, each of which derives its
    own shard's membership from the search's kept cell table or its
    (cached) search image: the selection never materialises as an
    ``O(n)`` array anywhere, parent included.

    Build one with :meth:`ProjectedView.box_selection`; it stays valid for
    masked queries on *any* view of the same backend (GoodCenter evaluates it
    against the rotated-frame view).  The ``token`` identifies the selection
    across queries: workers memoise their shard's membership rows under it,
    so repeated masked queries (or the queries of one plan) re-derive
    nothing.
    """

    view: "ProjectedView"
    width: float
    shifts: np.ndarray
    label: np.ndarray
    token: Optional[int] = None


@dataclass(frozen=True)
class ClippedSum:
    """Result of :meth:`ProjectedView.masked_clipped_sum`.

    Attributes
    ----------
    count:
        How many selected image points fell inside the clip ball.
    vector_sum:
        ``(k,)`` correctly-rounded exact sum of ``y - center`` over those
        points — the statistics :func:`repro.mechanisms.noisy_average.noisy_average_from_stats`
        consumes.
    """

    count: int
    vector_sum: np.ndarray


class ProjectedView:
    """A queryable linear image ``Y = X A^T (+ b)`` of a backend's points.

    GoodCenter never asks distance questions about the *projected* points —
    only grid-hash questions ("how heavy is the heaviest box of this shifted
    partition?", "what is the box histogram?") and *masked aggregate*
    questions over a selected subset ("what are the per-axis interval
    histograms of the selected points?", "how many selected points fall in
    this sphere, and what is the exact sum of their offsets from its
    centre?").  A view answers all of them over an arbitrary linear image (a
    JL projection, a random rotation, or the identity) of the points a
    backend indexes, without the caller ever materialising the image itself.

    Every query is a one-query :class:`QueryPlan` on the view's backend, run
    by the one plan engine (:mod:`repro.neighbors._engine`): the small
    ``(k, d)`` matrix travels with each shard task and is applied
    shard-side, cached per shard under the view's token.  Because
    :func:`repro.geometry.jl.project_rows` is bitwise row-decomposable and
    the grid hashes are shared single definitions, every strategy's view
    returns identical values.

    The masked queries take a *selection*: a :class:`BoxSelection`
    (evaluated against the view it was built from, which must share this
    view's backend), an ``(n,)`` boolean membership mask, or a 1-d integer
    row array (duplicate rows keep multiset semantics).  They read the
    selected rows in ascending dataset-row order — the order the per-axis
    histograms' first-occurrence cells are defined over.

    Parameters
    ----------
    backend:
        The :class:`NeighborBackend` whose points the view images.
    matrix:
        ``(k, d)`` projection matrix, or ``None`` for the identity view.
    offset:
        Optional ``(k,)`` translation of the image.
    """

    def __init__(self, backend: "NeighborBackend", matrix=None,
                 offset=None) -> None:
        self._backend = backend
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2 or matrix.shape[1] != backend.dimension:
                raise ValueError(
                    f"matrix must have shape (k, {backend.dimension}), got "
                    f"{matrix.shape}"
                )
        self._matrix = matrix
        if offset is not None:
            offset = np.asarray(offset, dtype=float).reshape(-1)
            k = matrix.shape[0] if matrix is not None else backend.dimension
            if offset.shape[0] != k:
                raise ValueError(
                    f"offset must have {k} entries, got {offset.shape[0]}"
                )
        self._offset = offset
        # Identity views read the points directly — no image to cache, so
        # no token.
        self._token = (next(_VIEW_TOKENS)
                       if matrix is not None or offset is not None else None)

    # ------------------------------------------------------------------ #
    # Geometry of the image
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> "NeighborBackend":
        """The backend whose points the view images."""
        return self._backend

    @property
    def matrix(self) -> Optional[np.ndarray]:
        """The ``(k, d)`` projection matrix (``None`` = identity view)."""
        return self._matrix

    @property
    def offset(self) -> Optional[np.ndarray]:
        """The ``(k,)`` translation of the image (``None`` = no shift)."""
        return self._offset

    @property
    def image_dimension(self) -> int:
        """The dimension ``k`` of the image space."""
        if self._matrix is not None:
            return int(self._matrix.shape[0])
        return self._backend.dimension

    @property
    def num_points(self) -> int:
        """The number of imaged points (the backend's ``n``)."""
        return self._backend.num_points

    @property
    def batch_size(self) -> int:
        """The cap on partition-search attempts per
        :meth:`heaviest_cell_counts` call: GoodCenter doubles its batches
        (1, 2, 4, ...) until they reach it.  The sharded backends'
        ``HEAVIEST_CELL_BATCH``, which amortises each fan-out over several
        attempts; 1 in-process, where there is no fan-out to amortise and
        batching would waste hash passes beyond the accepted attempt."""
        return int(getattr(self._backend, "HEAVIEST_CELL_BATCH", 1))

    def _one_query(self, op: str, *args):
        plan = QueryPlan()
        getattr(plan, op)(self, *args)
        return self._backend.execute(plan)[0]

    # ------------------------------------------------------------------ #
    # Grid-hash queries
    # ------------------------------------------------------------------ #
    def _check_shifts(self, shifts, batched: bool) -> np.ndarray:
        shifts = np.asarray(shifts, dtype=float)
        if batched:
            shifts = np.atleast_2d(shifts)
            width_axis = shifts.shape[1]
        else:
            shifts = shifts.reshape(-1)
            width_axis = shifts.shape[0]
        if width_axis != self.image_dimension:
            raise ValueError(
                f"shifts have dimension {width_axis}, expected "
                f"{self.image_dimension}"
            )
        if not np.isfinite(shifts).all():
            raise ValueError("shifts must be finite")
        return shifts

    def heaviest_cell_counts(self, width: float, shifts) -> np.ndarray:
        """Heaviest-box occupancy of the image, per shifted partition.

        For each row of ``shifts`` (the per-axis offsets of one randomly
        shifted partition of side ``width``) returns
        ``max_B |{i : Y_i in box B}|`` — the sensitivity-1 query GoodCenter
        feeds to AboveThreshold.

        Parameters
        ----------
        width:
            The box side length.
        shifts:
            ``(a, k)`` per-attempt shift vectors (a single ``(k,)`` vector is
            promoted to one attempt).

        Returns
        -------
        numpy.ndarray
            ``(a,)`` ``int64`` heaviest-cell counts.
        """
        return self._one_query("heaviest_cell_counts", width, shifts)

    def cell_histogram(self, width: float, shifts):
        """Occupied boxes of one shifted partition, with their counts.

        Returns ``(labels, counts)`` where ``labels`` is ``(m, k)`` (one row
        per occupied box) and ``counts`` is ``(m,)``, ordered by the box's
        first occurrence in dataset-row order — the cell order the
        stability-based histogram mechanism needs for bit-identical noise
        draws (see :func:`first_occurrence_cells`).
        """
        return self._one_query("cell_histogram", width, shifts)

    # ------------------------------------------------------------------ #
    # Masked aggregation (GoodCenter steps 8-11)
    # ------------------------------------------------------------------ #
    def box_selection(self, width: float, shifts, label) -> BoxSelection:
        """A :class:`BoxSelection` predicate over *this* view's image.

        Parameters
        ----------
        width, shifts:
            The shifted partition (as in :meth:`cell_histogram`).
        label:
            The ``(k,)`` integer box label selecting the points.
        """
        width = _check_width(width)
        shifts = self._check_shifts(shifts, batched=False)
        label = np.asarray(label, dtype=np.int64).reshape(-1)
        if label.shape[0] != self.image_dimension:
            raise ValueError(
                f"label has {label.shape[0]} axes, expected "
                f"{self.image_dimension}"
            )
        return BoxSelection(view=self, width=width, shifts=shifts,
                            label=label, token=next(_SELECTION_TOKENS))

    def masked_sum(self, selection) -> np.ndarray:
        """The ``(k,)`` exact (correctly-rounded) sum of the selected image
        points.

        Computed through :func:`repro.utils.exactsum.merge_column_partials`,
        so the value is independent of how the rows are partitioned — every
        backend, at every shard count, returns bitwise the same vector.
        An empty selection sums to zeros.
        """
        return self._one_query("masked_sum", selection)

    def masked_clipped_sum(self, selection, center,
                           clip_radius: float) -> ClippedSum:
        """NoisyAVG's sufficient statistics, computed over the image.

        Restricts the selection to the image points within ``clip_radius`` of
        ``center`` (the bounding sphere ``C`` of Algorithm 2, step 10 — the
        shared :func:`repro.geometry.balls.ball_membership` definition) and
        returns their count with the exact sum of ``y - center`` — everything
        step 11's noisy average needs, in ``O(k)`` caller memory.  The sum
        is accumulated in exact fixed point and converted once, on the
        total, so per-shard partials merge to bitwise the same vector.
        """
        return self._one_query("masked_clipped_sum", selection, center,
                               clip_radius)

    def masked_axis_histograms(self, selection, width: float,
                               offset: float = 0.0) -> list:
        """Per-axis interval histograms of the selected image points.

        For each of the ``k`` image axes, returns ``(labels, counts)`` over
        the occupied intervals of the axis partition ``floor((y - offset) /
        width)``, ordered by first occurrence in ascending dataset-row order
        — exactly the cell order GoodCenter's per-axis stability-histogram
        draws (step 9) are defined over, so a caller feeding these histograms
        to :func:`repro.mechanisms.histogram.stable_histogram_choice_from_counts`
        reproduces the label-sequence path's noise bit for bit.  The result
        is ``O(occupied intervals)`` per axis; the ``(q, k)`` label matrix
        only ever exists per shard.
        """
        return self._one_query("masked_axis_histograms", selection, width,
                               offset)


# --------------------------------------------------------------------------- #
# Query plans: one-round-trip multi-query execution
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PlanQuery:
    """One operation of a :class:`QueryPlan`.

    Attributes
    ----------
    op:
        The primitive's name (a member of :data:`VIEW_PLAN_OPS` or
        :data:`BACKEND_PLAN_OPS`).
    view_slot:
        Index into the plan's view table (``None`` for backend-level
        operations).
    selection_slot:
        Index into the plan's selection table (``None`` for unselected
        operations).  Queries sharing a slot share one membership
        derivation per shard.
    args:
        The validated positional payload, in the order of the underlying
        method's signature (after the selection, where one applies).
    """

    op: str
    view_slot: Optional[int]
    selection_slot: Optional[int]
    args: tuple


class QueryPlan:
    """An ordered bundle of backend queries executed in one round trip.

    A plan collects any number of the existing read-only primitives —
    masked aggregates, grid hashes, batched ball counts — over one or more
    :class:`ProjectedView`\\ s and selections, and hands them to
    :meth:`NeighborBackend.execute` (or :meth:`NeighborBackend.submit` for
    asynchronous submission).  Every backend compiles the bundle to one
    wire form and ships it to each of its shards as a *single* task — one
    round trip per shard for the entire plan, with the shard's selection
    membership and projected images derived at most once — and merges the
    per-shard partials in shard order (see :mod:`repro.neighbors._engine`).
    The in-process backends are the one-shard case of the same engine, so
    parity across backends is by construction.

    Each append method validates its arguments eagerly (so mistakes surface
    where the plan is built, not inside a worker) and returns the query's
    *result slot*: ``execute`` returns a list whose entry at that slot holds
    the query's result, with exactly the type and values the corresponding
    direct method call would return.

    Plans are read-only bundles — they carry no noise, no mutation, and no
    dataflow between their queries (a query's arguments cannot depend on
    another query's result; dependent rounds are separate plans, which
    :meth:`NeighborBackend.submit` lets callers overlap).
    """

    def __init__(self) -> None:
        self._views: List["ProjectedView"] = []
        self._selections: List[Any] = []
        self._queries: List[PlanQuery] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def views(self) -> List["ProjectedView"]:
        """The distinct views the plan queries (deduplicated by identity)."""
        return list(self._views)

    @property
    def selections(self) -> List[Any]:
        """The distinct selections the plan queries (deduplicated by
        identity; queries sharing a slot share one membership derivation)."""
        return list(self._selections)

    @property
    def queries(self) -> List[PlanQuery]:
        """The ordered queries; ``execute`` returns one result per entry."""
        return list(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def _slot_of(self, table: list, item) -> int:
        for slot, existing in enumerate(table):
            if existing is item:
                return slot
        table.append(item)
        return len(table) - 1

    def _append(self, op: str, view: Optional["ProjectedView"],
                selection, args: tuple) -> int:
        view_slot = None if view is None else self._slot_of(self._views, view)
        selection_slot = (None if selection is None
                          else self._slot_of(self._selections, selection))
        self._queries.append(PlanQuery(op=op, view_slot=view_slot,
                                       selection_slot=selection_slot,
                                       args=args))
        return len(self._queries) - 1

    @staticmethod
    def _require_view(view) -> "ProjectedView":
        if not isinstance(view, ProjectedView):
            raise TypeError(
                f"plan queries need a ProjectedView, got {type(view).__name__}"
            )
        return view

    # ------------------------------------------------------------------ #
    # Grid-hash queries
    # ------------------------------------------------------------------ #
    def heaviest_cell_counts(self, view: "ProjectedView", width: float,
                             shifts) -> int:
        """Append a :meth:`ProjectedView.heaviest_cell_counts` query
        (GoodCenter's partition-search batch); returns its result slot."""
        view = self._require_view(view)
        shifts = view._check_shifts(shifts, batched=True)
        return self._append("heaviest_cell_counts", view, None,
                            (_check_width(width), shifts))

    def cell_histogram(self, view: "ProjectedView", width: float,
                       shifts) -> int:
        """Append a :meth:`ProjectedView.cell_histogram` query (GoodCenter's
        step-7 box histogram); returns its result slot."""
        view = self._require_view(view)
        shifts = view._check_shifts(shifts, batched=False)
        return self._append("cell_histogram", view, None,
                            (_check_width(width), shifts))

    # ------------------------------------------------------------------ #
    # Masked aggregation
    # ------------------------------------------------------------------ #
    def _masked(self, op: str, view, selection, args: tuple = ()) -> int:
        view = self._require_view(view)
        if selection is None:
            raise ValueError(f"{op} requires a selection")
        return self._append(op, view, selection, args)

    def masked_sum(self, view: "ProjectedView", selection) -> int:
        """Append a :meth:`ProjectedView.masked_sum` query; returns its
        result slot."""
        return self._masked("masked_sum", view, selection)

    def masked_clipped_sum(self, view: "ProjectedView", selection, center,
                           clip_radius: float) -> int:
        """Append a :meth:`ProjectedView.masked_clipped_sum` query (NoisyAVG's
        ``(count, exact sum)`` statistics); returns its result slot."""
        view = self._require_view(view)
        center = np.asarray(center, dtype=float).reshape(-1)
        if center.shape[0] != view.image_dimension:
            raise ValueError(
                f"center has dimension {center.shape[0]}, expected "
                f"{view.image_dimension}"
            )
        return self._masked("masked_clipped_sum", view, selection,
                            (center, float(clip_radius)))

    def masked_axis_histograms(self, view: "ProjectedView", selection,
                               width: float, offset: float = 0.0) -> int:
        """Append a :meth:`ProjectedView.masked_axis_histograms` query
        (GoodCenter's step-9 per-axis interval histograms); returns its
        result slot."""
        return self._masked("masked_axis_histograms", view, selection,
                            (_check_width(width),
                             _check_finite(offset, "offset")))

    # ------------------------------------------------------------------ #
    # Whole-dataset queries
    # ------------------------------------------------------------------ #
    def count_within_many(self, centers, radii) -> int:
        """Append a :meth:`NeighborBackend.count_within_many` query (the
        batched ``(centers, radii)`` count grid); returns its result
        slot."""
        centers = check_points(centers, name="centers")
        return self._append("count_within_many", None, None,
                            (centers, _check_1d(radii, "radii")))

    def depth_counts(self, thresholds) -> int:
        """Append a :meth:`NeighborBackend.depth_counts` query (the interior
        point reduction's one-sided rank counts); returns its result
        slot."""
        return self._append("depth_counts", None, None,
                            (_check_1d(thresholds, "thresholds"),))


class PlanFuture:
    """Handle for a submitted :class:`QueryPlan`.

    The base class wraps an already-computed result list: the in-process
    backends run their one shard at submission, so ``submit`` degrades to
    ``execute`` with a deferred hand-over.  The sharded backends return a
    subclass whose per-shard tasks are genuinely in flight; its
    :meth:`result` collects and merges them **in shard order**, so the
    merged values — and therefore every released value derived from them —
    are bitwise independent of worker scheduling and of how many plans were
    overlapped.
    """

    def __init__(self, results: List[Any]) -> None:
        self._results = list(results)

    def done(self) -> bool:
        """Whether :meth:`result` will return without blocking."""
        return True

    def result(self) -> List[Any]:
        """The per-query results, indexed by the slots the plan's append
        methods returned.  Blocks until the plan completes; repeated calls
        return the same list."""
        return self._results


class NeighborBackend(abc.ABC):
    """Distance-query oracle over a fixed ``(n, d)`` dataset."""

    #: Registry name of the strategy ("chunked", "tree", "sharded").
    name: ClassVar[str] = "abstract"

    #: Whether speculative plan submission pays off on this strategy.  Only
    #: strategies whose :meth:`submit` genuinely overlaps work with the
    #: parent (or whose plan execution is instrumented for the regression
    #: tests) opt in; serial strategies evaluate ``submit`` eagerly, so a
    #: speculative plan there is pure wasted work on a mispredict.
    supports_speculation: ClassVar[bool] = False

    def __init__(self, points, **options) -> None:
        self._points = check_points(points)
        #: The strategy's own constructor arguments (beyond ``points``):
        #: :meth:`subset` rebuilds the strategy with them.
        self._options = options
        #: Set by :func:`~repro.neighbors.resolve_backend` when it picked
        #: this strategy by size (``"auto"`` without options): then
        #: :meth:`subset` picks again for the subset's size.
        self._auto_selected = False
        self._truncated_cache: Optional[Tuple[int, np.ndarray]] = None
        #: The sorted ``t**2`` profile values per target (see
        #: :meth:`_profile_values`).
        self._profile_cache = ProfileCache()
        #: Per-stage speculative-execution accounting, recorded by callers
        #: (GoodCenter's noise-gate predictor) via :meth:`record_speculation`.
        self._speculation: Dict[str, Dict[str, int]] = {}
        #: The plan engine's topology: the ``[low, high)`` row range of
        #: every shard — here one shard, the whole dataset.
        self._bounds = [(0, self.num_points)]
        #: The shard executor every plan runs on (see :meth:`_dispatch`);
        #: shard 0's count queries are answered by this backend itself.
        self._shards = _ShardSet(self._points, self._bounds, owner=self)

    # ------------------------------------------------------------------ #
    # Speculative-execution accounting
    # ------------------------------------------------------------------ #
    def record_speculation(self, stage: str, hit: bool) -> None:
        """Record the outcome of one speculative plan submission.

        ``stage`` names the noise gate the prediction crossed (e.g.
        ``"box->axes"``); every submitted speculation is recorded exactly
        once — as a hit when the noisy choice matched the pre-noise argmax
        prediction and the speculative result was consumed, as a miss when
        it was discarded.  Purely diagnostic: the counters never influence
        any query or release.
        """
        entry = self._speculation.setdefault(str(stage),
                                             {"hits": 0, "misses": 0})
        entry["hits" if hit else "misses"] += 1

    def speculation_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage ``{"hits": ..., "misses": ...}`` speculation counters
        (a copy; empty until a caller speculates through this backend)."""
        return {stage: dict(entry)
                for stage, entry in self._speculation.items()}

    # ------------------------------------------------------------------ #
    # Dataset
    # ------------------------------------------------------------------ #
    @property
    def points(self) -> np.ndarray:
        """The ``(n, d)`` dataset the backend indexes."""
        return self._points

    @property
    def num_points(self) -> int:
        """The dataset size ``n``."""
        return int(self._points.shape[0])

    @property
    def dimension(self) -> int:
        """The ambient dimension ``d``."""
        return int(self._points.shape[1])

    def subset(self, rows) -> "NeighborBackend":
        """A fresh backend over ``points[rows]``.

        The new backend is of this strategy, built with this instance's
        own constructor arguments, so every query on it answers exactly
        what a backend built directly over ``points[rows]`` with those
        arguments answers.  A backend that
        :func:`~repro.neighbors.resolve_backend` picked by size
        (``"auto"``) picks again for ``len(rows)`` instead, as an
        ``"auto"`` resolve over those rows does.  Either way it shares no
        cache, pool or connection with this one, and the caller owns it:
        use it in a ``with`` block.

        Parameters
        ----------
        rows:
            1-d integer row indices into :attr:`points`, in the order the
            new backend indexes them (no negative wrap-around).

        Returns
        -------
        NeighborBackend
        """
        return self._rebuild(self._points[self._check_rows(rows)])

    def _check_rows(self, rows) -> np.ndarray:
        """``rows`` as a 1-d ``int64`` array of row indices into
        :attr:`points` — the one row check, shared by :meth:`subset` and
        the masked queries' row selections.  Negative indices are rejected,
        not wrapped: a plan routes each row to its shard by value."""
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError("rows must be a 1-d array of integer row indices")
        if rows.size and (int(rows.min()) < 0
                          or int(rows.max()) >= self.num_points):
            raise ValueError(f"rows must lie in [0, {self.num_points})")
        return rows.astype(np.int64, copy=False)

    def _rebuild(self, points) -> "NeighborBackend":
        """The backend :meth:`subset` builds over ``points``."""
        if self._auto_selected:
            # Imported here: the package imports this module.
            from repro.neighbors import resolve_backend

            return resolve_backend(points, "auto")
        return type(self)(points, **self._options)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the strategy's pools, segments and connections.

        Here that is the plan executor's cached view images, memoised
        selections (with their images) and partition-search cell tables;
        the sharded and distributed strategies also shut down their
        workers or connections.  Safe to call repeatedly.
        """
        self._shards.clear_caches()

    def __enter__(self) -> "NeighborBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Projected dataset views
    # ------------------------------------------------------------------ #
    def view(self, matrix=None, offset=None) -> ProjectedView:
        """A :class:`ProjectedView` over the linear image ``X A^T (+ b)`` of
        the indexed points.

        Parameters
        ----------
        matrix:
            ``(k, d)`` projection matrix (a JL map, a rotation basis), or
            ``None`` for the identity view.
        offset:
            Optional ``(k,)`` translation.

        Returns
        -------
        ProjectedView
            A handle answering grid-hash queries (heaviest-cell counts, box
            histograms) and masked aggregates over the image, each as a
            one-query plan whose shards apply the projection to their own
            rows.
        """
        return ProjectedView(self, matrix=matrix, offset=offset)

    # ------------------------------------------------------------------ #
    # Query-plan execution
    # ------------------------------------------------------------------ #
    def execute(self, plan: QueryPlan) -> List[Any]:
        """Run a :class:`QueryPlan` (whose views must belong to this
        backend); one result per query, indexed by the slots the plan's
        append methods returned.

        Every backend runs every plan through the one plan engine
        (:mod:`repro.neighbors._engine`): compiled to the wire form, one
        task per shard through :meth:`_dispatch`, the partials merged in
        shard order.  Here that is one shard, run serially in this process,
        so cross-backend parity of plan results is by construction.
        """
        compiled, handle = self._dispatch_plan(plan)
        return _merge_plan(self, compiled, handle.result())

    def submit(self, plan: QueryPlan) -> PlanFuture:
        """Submit a :class:`QueryPlan` asynchronously; returns a
        :class:`PlanFuture`.

        Streaming workloads use this to overlap consecutive rounds: submit
        the next round's plan, then merge the current one while the workers
        chew on the new bundle.  Results — collected with
        :meth:`PlanFuture.result` — are bitwise identical to
        :meth:`execute`, regardless of how many plans are in flight or how
        worker scheduling interleaves them (the merge always folds shards
        in shard order).  The in-process backends run the plan at
        submission and hand back a completed future.
        """
        return PlanFuture(self.execute(plan))

    def _dispatch_plan(self, plan: QueryPlan) -> tuple:
        """Compile ``plan`` and dispatch one task per shard (none for an
        empty plan); returns the compiled plan and the dispatch handle."""
        compiled = _compile_plan(self, plan)
        if not compiled.bundle:
            return compiled, PlanFuture([])
        tasks = [(shard, compiled.shard_args(shard))
                 for shard in range(len(self._bounds))]
        self._count_fanout(len(tasks))
        return compiled, self._dispatch(tasks)

    def _view_round(self, view_wire: tuple, op: str, args: tuple) -> list:
        """One single-query fan-out over ``view_wire``, returning the
        per-shard partials in shard order.  The bounded heaviest-cell
        merge's recount and escalation rounds ride it; they are rounds of
        the plan being merged, so they count as fan-outs, not as plans."""
        payload = ([view_wire], [], [(op, 0, None, args)])
        tasks = [(shard, payload) for shard in range(len(self._bounds))]
        self._count_fanout(len(tasks))
        return [part[0] for part in self._dispatch(tasks).result()]

    def _dispatch(self, tasks):
        """Send a batch of ``(shard, payload)`` tasks; return a handle
        whose ``done()`` / ``result()`` give the results in task order.

        The one transport seam.  Here the tasks run serially on this
        process's shard executor; the sharded backend overrides it with its
        worker pool, the distributed backend with its node connections.
        """
        return PlanFuture([self._shards.execute_plan(shard, *payload)
                           for shard, payload in tasks])

    def _count_fanout(self, tasks: int) -> None:
        """Record one collective operation of ``tasks`` shard tasks (the
        sharded backends' ``pool_stats`` counters; nothing here)."""

    # ------------------------------------------------------------------ #
    # Primitives each strategy implements
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def query_radius_counts(self, centers, radius: float) -> np.ndarray:
        """``B_r(c, S)`` for every query centre ``c`` (``int64``, shape
        ``(len(centers),)``); negative radii give all-zero counts."""

    # ------------------------------------------------------------------ #
    # Derived queries (shared across strategies)
    # ------------------------------------------------------------------ #
    def radius_counts(self, radius: float) -> np.ndarray:
        """``B_r(x_i, S)`` for every dataset point ``x_i``.

        Parameters
        ----------
        radius:
            The ball radius ``r``; negative radii give all-zero counts.

        Returns
        -------
        numpy.ndarray
            ``(n,)`` ``int64`` counts (each at least 1 for ``r >= 0``, since a
            point always contains itself).
        """
        return self.query_radius_counts(self._points, radius)

    def count_within_many(self, centers, radii) -> np.ndarray:
        """``B_r(c, S)`` for every centre ``c`` at every radius in ``radii``.

        The batched form of :meth:`query_radius_counts`: one call answers a
        whole ``(centers, radii)`` grid, which lets backends fuse the work —
        the chunked strategy computes each distance slab once for all radii,
        and the sharded strategy submits a single request per shard instead of
        one per radius.  This base implementation simply loops over the radii.

        Parameters
        ----------
        centers:
            ``(q, d)`` query centres.
        radii:
            Scalar or ``(m,)`` radii; negative and NaN entries give
            all-zero counts.  Other shapes raise ``ValueError``.

        Returns
        -------
        numpy.ndarray
            ``(m, q)`` ``int64`` counts; row ``j`` holds the counts at
            ``radii[j]``.
        """
        radii = _check_1d(radii, "radii")
        centers = check_points(centers, dimension=self.dimension,
                               name="centers")
        return np.stack([
            self.query_radius_counts(centers, float(radius)) for radius in radii
        ]) if radii.size else np.empty((0, centers.shape[0]), dtype=np.int64)

    def depth_counts(self, thresholds) -> np.ndarray:
        """One-sided rank counts of the first coordinate at each threshold.

        For every threshold ``a`` returns ``[#{x : x_0 <= a},
        #{x : x_0 >= a}]`` over the indexed points' first coordinate — the
        two counts whose minimum is the *depth* quality
        ``q(S, a) = min(#{x <= a}, #{x >= a})`` of the interior point
        reduction (paper Algorithm 3, step 4; the backend's points are the
        1-d database reshaped to ``(n, 1)`` there).  A one-query plan: each
        shard counts its own rows with :func:`depth_count_pairs` and the
        integer pairs sum, so every backend and every shard topology
        returns bitwise identical values.

        Parameters
        ----------
        thresholds:
            Scalar or ``(m,)`` array of query thresholds; other shapes
            raise ``ValueError``.

        Returns
        -------
        numpy.ndarray
            ``(m, 2)`` ``int64`` count pairs (column 0: ``<=``, column 1:
            ``>=``).
        """
        plan = QueryPlan()
        plan.depth_counts(thresholds)
        return self.execute(plan)[0]

    def _truncated_squared(self, k: int) -> np.ndarray:
        """Row-sorted ``(n, k)`` matrix of each point's ``k`` smallest
        squared distances (self-distance 0 included), built by the
        in-process strategies' ``_compute_truncated_squared`` hook and
        cached (a larger cached answer serves smaller ``k``).  Read only by
        :meth:`_kth_squared` and :meth:`_profile_values`; the sharded
        backend overrides :meth:`_kth_squared` and :meth:`_top_sums`, so it
        never builds one."""
        k = min(k, self.num_points)
        if self._truncated_cache is None or self._truncated_cache[0] < k:
            self._truncated_cache = (k, self._compute_truncated_squared(k))
            self._profile_cache.clear()
        return self._truncated_cache[1][:, :k]

    def kth_distances(self, k: int) -> np.ndarray:
        """Each point's distance to its ``k``-th nearest dataset point
        (``k = 1`` is the self-distance 0).  This is the radius a ball centred
        at the point needs to capture ``k`` points — the quantity behind the
        non-private factor-2 approximation."""
        k = check_integer(k, "k", minimum=1)
        if k > self.num_points:
            raise ValueError(
                f"k ({k}) cannot exceed the number of points ({self.num_points})"
            )
        return np.sqrt(self._kth_squared(k))

    def _kth_squared(self, k: int) -> np.ndarray:
        """Column ``k - 1`` of the truncated statistic (``(n,)``): each
        point's ``k``-th smallest squared distance.  The sharded backend
        computes it on its shards instead, without their row blocks."""
        return self._truncated_squared(k)[:, k - 1]

    def capped_average_scores(self, radii, target: int) -> np.ndarray:
        """The GoodRadius score ``L(r, S)`` at every radius in ``radii``.

        ``L(r, S)`` is the mean of the ``target`` largest capped counts
        ``min(B_r(x_i, S), target)`` (paper Algorithm 1, step 1; the
        sensitivity-2 score of Lemma 4.5).

        This is the one entry point to the profile.  It picks one of two
        exact evaluation strategies per call:

        * **Persisted** (small targets): the integer sum of
          the ``t = target`` largest capped counts comes from
          :meth:`_top_sums`, over the row-sorted ``(n, t)`` statistic ``T``
          of each point's ``t`` smallest squared distances.  Row ``i`` has
          ``min(B_r(x_i), t)`` entries ``<= r*r``, so ``#{i : capped count
          >= v}`` is the number of entries ``<= r*r`` in column ``v - 1``,
          and the sum of the ``t`` largest capped counts, ``sum_v min(#{i :
          count >= v}, t)``, is the number of entries ``<= r*r`` among the
          ``t`` smallest of each column (the entries ``<= r*r`` are a
          prefix of a sorted column, so ties need no special case).  The
          in-process backends select and sort those ``t**2`` values once
          per target — ``O(n t)`` selection plus ``O(t^2 log t)`` sort —
          and every radius batch is then one binary search,
          ``O(m log t)``, in ``O(n * t)`` memory.  The sharded backend
          keeps ``T`` in its shards and the parent only ``O(t)`` state (see
          :meth:`repro.neighbors.sharded.ShardedBackend._top_sums`).  The
          profile stays warm per cached target, not only for the latest:
          a :class:`ProfileCache` keeps recent targets in
          most-recently-used order and evicts the least recently used
          while their bytes exceed the 64 MiB
          :data:`~repro.neighbors._distance.DEFAULT_MEMORY_BUDGET`, always
          keeping the newest.  A return to a cached target costs one
          binary search in-process, or one count fan-out on the sharded
          and distributed backends.
        * **Streaming** (``target > STREAMING_TARGET_FRACTION * n`` at
          ``n >= STREAMING_MIN_POINTS``): never persist the statistic;
          process the radii in chunks and recompute blocked distance passes
          per chunk, histogramming capped counts on the fly.
          ``O(n * block + chunk * target)`` memory at *every* target, which is
          what keeps outlier screening (``t ~ 0.9 n``) off the ``O(n^2)``
          memory cliff.

        Both paths produce bit-identical scores: each divides the same
        integer top-``target`` sum by ``target``.  An empty radius batch
        returns an empty array without touching either path.

        Parameters
        ----------
        radii:
            Scalar or ``(m,)`` array of radii; negative radii give score 0,
            infinite radii score ``target``.  Other shapes and NaN radii
            raise ``ValueError``.
        target:
            The target cluster size ``t`` (also the count cap);
            ``1 <= target <= n``.

        Returns
        -------
        numpy.ndarray
            ``(m,)`` float scores, in the order of the supplied radii.
        """
        radii = _check_radii(radii)
        n = self.num_points
        target = check_integer(target, "target", minimum=1)
        if target > n:
            raise ValueError(f"target must lie in [1, n={n}], got {target}")
        if radii.size == 0:
            return np.empty(0, dtype=float)
        if (n >= STREAMING_MIN_POINTS
                and target > STREAMING_TARGET_FRACTION * n):
            return self._streaming_profile(radii, target)
        return self._top_sums(_squared_radii(radii), target) / target

    def _top_sums(self, keys: np.ndarray, target: int) -> np.ndarray:
        """The integer sum of the ``target`` largest capped counts at every
        squared-radius key (``(m,)`` ``int64``): the number of entries
        ``<= key`` among each column's ``target`` smallest in the truncated
        statistic, read off :meth:`_profile_values` by one binary search."""
        return np.searchsorted(self._profile_values(target), keys,
                               side="right")

    def _profile_values(self, target: int) -> np.ndarray:
        """The sorted ``target**2`` smallest-per-column entries of the
        truncated statistic (see :meth:`capped_average_scores`).

        Cached per target in a :class:`ProfileCache`: the recent targets
        stay warm while their arrays fit the 64 MiB
        :data:`DEFAULT_MEMORY_BUDGET` (least recently used evicted first;
        the newest always stays), so a return to a cached target hands
        back the same array.  Widening the truncated statistic clears
        every entry.
        """
        values = self._profile_cache.get(target)
        if values is None:
            truncated = self._truncated_squared(target)
            if truncated.shape[0] > target:
                truncated = np.partition(truncated, target - 1,
                                         axis=0)[:target]
            values = np.sort(truncated, axis=None)
            self._profile_cache.put(target, values)
        return values

    # ------------------------------------------------------------------ #
    # Streaming large-target profile (radii-chunked, nothing persisted)
    # ------------------------------------------------------------------ #
    def _streaming_profile(self, radii: np.ndarray, target: int) -> np.ndarray:
        """Radii-chunked streaming evaluation of ``L(r, S)``.

        The radii are processed in *sweeps*: one sweep is a single blocked
        pass over the pairwise distances — each ``(block, n)`` slab is
        computed and **sorted once**, then binary-searched for every radius
        of the sweep — delegated to :meth:`_capped_count_histograms` so
        multi-process strategies can parallelise the pass.  The sweep is
        sized so its ``(sweep, cap + 1)`` histograms fill (at most) one
        memory budget; in the common regime the whole radius grid fits one
        sweep, so every block is sorted exactly once for the entire profile.
        """
        cap = min(target, self.num_points)
        keys = _squared_radii(radii)
        sweep = int(max(8, min(
            max(keys.shape[0], 1),
            DEFAULT_MEMORY_BUDGET // (8 * (cap + 1)),
        )))
        scores = np.empty(keys.shape[0], dtype=float)
        for start in range(0, keys.shape[0], sweep):
            histograms = self._capped_count_histograms(
                keys[start:start + sweep], cap
            )
            scores[start:start + sweep] = _scores_from_histograms(
                histograms, cap, target
            )
        return scores

    def _capped_count_histograms(self, keys: np.ndarray,
                                 cap: int) -> np.ndarray:
        """``(len(keys), cap + 1)`` histograms of capped counts over all
        dataset points (one blocked brute-force pass; strategies with worker
        processes override this to split the pass across query rows)."""
        block = row_block_size(self.num_points, self.dimension)
        return capped_count_histograms(self._points, self._points, keys, cap,
                                       block)


__all__ = [
    "BACKEND_PLAN_OPS",
    "BackendUnavailableError",
    "BoxSelection",
    "ClippedSum",
    "MASKED_PLAN_OPS",
    "NeighborBackend",
    "PlanFuture",
    "PlanQuery",
    "ProjectedView",
    "QueryPlan",
    "STREAMING_MIN_POINTS",
    "STREAMING_TARGET_FRACTION",
    "VIEW_PLAN_OPS",
    "depth_count_pairs",
    "first_occurrence_cells",
]
