"""The query-plan engine: how every backend runs a ``QueryPlan``.

Every backend splits its points into contiguous shards: one, ``[(0, n)]``,
for the in-process strategies (chunked, tree), several for the sharded and
distributed ones.  :func:`_compile_plan` validates a plan and compiles it
to its wire form; the backend's ``_dispatch`` transport runs one task per
shard through :meth:`_ShardSet.execute_plan` (serially in-process, on a
worker pool, or on node servers), which returns one partial per query; and
:func:`_merge_plan` folds the partials **in shard order**, so a result is
independent of worker scheduling.  Each plan op has one implementation,
whatever the topology.  (This module imports :mod:`repro.neighbors.base`
only inside functions: that module imports this one.)
"""

from __future__ import annotations

import weakref
from typing import ClassVar, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.balls import ball_membership
from repro.geometry.boxes import box_labels, interval_labels, unique_rows
from repro.geometry.jl import apply_linear_image
from repro.neighbors._distance import DEFAULT_MEMORY_BUDGET
from repro.utils.exactsum import (
    fixed_point_column_partials,
    fixed_point_to_floats,
    merge_column_partials,
)
from repro.utils.validation import check_points

#: Plan operations evaluated over a selection (their per-shard partials are
#: computed from the memoised membership rows).
MASKED_PLAN_OPS = frozenset({
    "masked_sum", "masked_clipped_sum", "masked_axis_histograms",
})

#: Plan operations evaluated against a
#: :class:`~repro.neighbors.base.ProjectedView` (the masked ones plus the
#: grid-hash queries).
VIEW_PLAN_OPS = MASKED_PLAN_OPS | frozenset({
    "heaviest_cell_counts", "cell_histogram",
})

#: Whole-dataset plan operations answered by the backend itself; both
#: decompose into per-shard partials and join the single fused round trip.
BACKEND_PLAN_OPS = frozenset({"count_within_many", "depth_counts"})


def depth_count_pairs(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """``[#{v <= a}, #{v >= a}]`` for every threshold ``a``.

    The single definition of the ``depth_counts`` plan op: every shard
    evaluates it over its own slice of the first coordinate, so the
    per-shard integer partials sum to exactly the whole-dataset counts at
    any shard topology (exact integer comparisons, no floating-point
    accumulation).

    Parameters
    ----------
    values:
        ``(n,)`` data values (the first coordinate of the indexed points).
    thresholds:
        ``(m,)`` query thresholds.

    Returns
    -------
    numpy.ndarray
        ``(m, 2)`` ``int64``; column 0 counts ``v <= a``, column 1 counts
        ``v >= a``.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    thresholds = np.asarray(thresholds, dtype=float)
    below = np.searchsorted(ordered, thresholds, side="right")
    above = ordered.shape[0] - np.searchsorted(ordered, thresholds,
                                               side="left")
    return np.stack([below, above], axis=1).astype(np.int64)


def _cell_table(image: np.ndarray, width: float, shift: np.ndarray) -> tuple:
    """One shifted partition's cell table over ``image``: ``(cells, counts,
    first rows, row cells)``, the occupied cells in :func:`unique_rows`
    order with their counts and the first row each occurs in, and each
    row's index into the cells.  The one definition behind the
    ``heaviest_cell_counts`` and ``cell_histogram`` partials and a box
    selection's rows, so a table one computed is bitwise the table the
    others would."""
    unique, first, inverse, counts = unique_rows(
        box_labels(image, shift, width), return_index=True,
        return_inverse=True, return_counts=True)
    return unique, counts, first, inverse


def _cell_key(token: Optional[int], width: float, shift: np.ndarray) -> tuple:
    """The key a shard keeps a partition's cell table under: the view's
    image token (``None`` for the identity view, whose image is the shard
    itself), the width and the shift's bytes."""
    return token, float(width), np.asarray(shift, dtype=float).tobytes()


class _ShardSet:
    """The per-process shard executor: the points, the ``[low, high)``
    shard bounds, and each shard's lazily built inner backend, projected
    images, memoised selection (its rows and their images) and latest
    partition-search cell tables.

    Every plan task runs :meth:`execute_plan` on one of these — an
    in-process backend's own one-shard set, the sharded backend's serial
    fallback, each pool worker's and each node server's — so every path
    runs literally the same code.  An in-process backend passes itself as
    ``owner``: it answers shard 0's count queries.  The link is weak, so
    the backend holding this set is still freed by reference counting.
    """

    #: How many projected images of a shard's memoised selection a worker
    #: keeps (see the ``_memberships`` attribute note in ``__init__``); of
    #: the whole shard it keeps the newest view's image only.
    VIEW_IMAGE_CACHE_PER_SHARD: ClassVar[int] = 2

    def __init__(self, points: np.ndarray,
                 bounds: Sequence[Tuple[int, int]], owner=None) -> None:
        self.points = points
        self.bounds = list(bounds)
        self._owner = None if owner is None else weakref.ref(owner)
        self._backends = {}
        #: Per-shard cached full-shard image: ``shard -> {view token:
        #: image}``, the newest view's only, so a long-lived worker holds
        #: one ``(shard n, k)`` image per shard it serves.  GoodCenter's
        #: partition search hashes this image, and every ``good_center``
        #: call searches under a fresh view, so an older one is never read
        #: again; the rotated frame images only the selected rows (kept
        #: with the selection, below).
        self._view_images = {}
        #: Per-shard memoised selection: ``shard -> (selection token,
        #: ascending shard-local rows, {view token: image of those rows})``.
        #: One entry per shard (the latest selection wins): the masked
        #: queries of one ``good_center`` call — and of one query plan — all
        #: reference a single selection, so each shard's membership is
        #: derived exactly once, and its rows are projected once per view
        #: (GoodCenter's steps-10-11 statistics read the rotated image its
        #: step-9 histograms projected).  The oldest image is evicted
        #: beyond :data:`VIEW_IMAGE_CACHE_PER_SHARD`.
        self._memberships = {}
        #: Per-shard cell tables of the latest ``heaviest_cell_counts``
        #: batch: ``shard -> (bytes, {(view token, width, shift bytes):
        #: (cells, counts, first local rows, row cells)})``, one untruncated
        #: table per attempt, so neither the step-7 ``cell_histogram`` of
        #: the accepted partition nor the chosen box's selection hashes the
        #: image again.
        #: A shard drops its tables before its next batch hashes, and the
        #: batch keeps its own only while every shard's tables together fit
        #: :data:`~repro.neighbors._distance.DEFAULT_MEMORY_BUDGET`; one
        #: that outgrows it holds one table at a time, as with no memo.
        self._cell_tables = {}

    def __getstate__(self) -> dict:
        # Pickle the owner itself (a weak reference does not pickle), and
        # none of the caches keyed by this process's view and selection
        # tokens: another process numbers its own from the same start.
        return dict(self.__dict__, _owner=self._owner and self._owner(),
                    _view_images={}, _memberships={}, _cell_tables={})

    def __setstate__(self, state: dict) -> None:
        owner = state.pop("_owner")
        self.__dict__.update(state)
        self._owner = None if owner is None else weakref.ref(owner)

    def _inner_name(self, num_points: int) -> str:
        """The single-process strategy for ``num_points`` of these points:
        :func:`~repro.neighbors.auto_backend`'s choice with sharding ruled
        out."""
        from repro.neighbors import _in_process_backend

        return _in_process_backend(num_points, self.points.shape[1])

    def backend(self, shard: int):
        """The inner backend indexing shard ``shard``: the owner, or one
        built on first use.  Caches are per process; with shard→worker
        routing affinity (tasks for shard ``s`` always land on worker ``s
        mod W``) each shard's index is built in exactly one worker.
        """
        if self._owner is not None:
            return self._owner()
        if shard not in self._backends:
            from repro.neighbors import BACKENDS

            low, high = self.bounds[shard]
            self._backends[shard] = BACKENDS[self._inner_name(high - low)](
                self.points[low:high]
            )
        return self._backends[shard]

    def clear_caches(self) -> None:
        """Drop every cached view image, memoised selection (rows and
        images) and cell table (see
        :meth:`~repro.neighbors.base.NeighborBackend.close`)."""
        self._view_images.clear()
        self._memberships.clear()
        self._cell_tables.clear()

    # ------------------------------------------------------------------ #
    # Projected images and selections
    # ------------------------------------------------------------------ #
    def view_image(self, shard: int, token: Optional[int],
                   matrix: Optional[np.ndarray],
                   offset: Optional[np.ndarray],
                   rows: Optional[np.ndarray] = None) -> np.ndarray:
        """This shard's rows under a view's linear image.

        The full-shard image of a non-identity view is cached under its
        ``token``, the newest view's only, so the matrix shipped with each
        task is applied once per process while tasks keep querying that
        view.  ``rows`` (shard-local indices) restricts the image to a
        subset; it is cached only when ``rows`` *is* the shard's memoised
        selection (the array :meth:`_local_rows` returned), under that
        selection's entry and the view's ``token``, for the newest
        :data:`VIEW_IMAGE_CACHE_PER_SHARD` views.  Projection goes
        through the row-decomposable
        :func:`repro.geometry.jl.project_rows`, so the shard-side image is
        bitwise identical to slicing a whole-dataset projection, cached or
        not.
        """
        low, high = self.bounds[shard]
        base = self.points[low:high]
        if matrix is None and offset is None:
            return base if rows is None else base[rows]
        if token is None:
            return apply_linear_image(base if rows is None else base[rows],
                                      matrix, offset)
        if rows is None:
            cached = self._view_images.setdefault(shard, {})
            bound = 1
        else:
            selection = self._memberships.get(shard)
            if selection is None or rows is not selection[1]:
                return apply_linear_image(base[rows], matrix, offset)
            cached = selection[2]
            bound = self.VIEW_IMAGE_CACHE_PER_SHARD
        if token not in cached:
            while len(cached) >= bound:
                cached.pop(next(iter(cached)))
            cached[token] = apply_linear_image(
                base if rows is None else base[rows], matrix, offset)
        return cached[token]

    def _local_rows(self, shard: int, spec: tuple) -> np.ndarray:
        """Shard-local ascending rows of a masked-query selection.

        ``spec`` is the wire form of a selection: ``("rows", local_rows)``
        ships a pre-sliced shard-local index array, while ``("box",
        sel_token, view_token, sel_matrix, sel_offset, width, shifts,
        label)`` ships the *label predicate* — the shard derives its own
        membership (:meth:`_box_rows`), so the mask never exists as an
        array in the caller.  The derived rows are memoised per shard
        under ``sel_token``: consecutive plans over the same selection
        (GoodCenter issues several per call) derive them once, not once
        per plan, and find the images of those rows that earlier plans
        projected (see :meth:`view_image`).
        """
        if spec[0] == "rows":
            return np.asarray(spec[1], dtype=np.int64)
        _, sel_token, token, matrix, offset, width, shifts, label = spec
        if sel_token is not None:
            cached = self._memberships.get(shard)
            if cached is not None and cached[0] == sel_token:
                return cached[1]
        rows = self._box_rows(shard, token, matrix, offset, width, shifts,
                              label)
        if sel_token is not None:
            self._memberships[shard] = (sel_token, rows, {})
        return rows

    def _box_rows(self, shard: int, token: Optional[int],
                  matrix: Optional[np.ndarray], offset: Optional[np.ndarray],
                  width: float, shifts: np.ndarray,
                  label: np.ndarray) -> np.ndarray:
        """Shard-local rows whose image falls in box ``label``: the rows of
        that cell in the partition's kept cell table (none when the shard
        has no such cell), else one hash pass over the shard's cached
        image."""
        label = np.asarray(label, dtype=np.int64)
        _, tables = self._cell_tables.get(shard, (0, {}))
        table = tables.get(_cell_key(token, width, shifts))
        if table is None:
            image = self.view_image(shard, token, matrix, offset)
            labels = box_labels(image, np.asarray(shifts, dtype=float), width)
            return np.flatnonzero(np.all(labels == label[None, :], axis=1))
        cells, _, _, inverse = table
        cell = np.flatnonzero(np.all(cells == label[None, :], axis=1))
        return np.flatnonzero(inverse == cell[0]) if cell.size else cell

    # ------------------------------------------------------------------ #
    # Plan execution (one task per shard for a whole QueryPlan)
    # ------------------------------------------------------------------ #
    def execute_plan(self, shard: int, views: Sequence[tuple],
                     selections: Sequence[tuple],
                     queries: Sequence[tuple]) -> list:
        """The one shard task: every query of a compiled plan (see
        :class:`_CompiledPlan`) over this shard, one mergeable partial each
        (:meth:`_partial`).  Each selection's membership is derived and
        each view's image (of the shard, or of a memoised selection's rows)
        projected at most once."""
        rows_cache: dict = {}
        results = []
        for op, view_slot, sel_slot, args in queries:
            rows = None
            if sel_slot is not None:
                rows = rows_cache.get(sel_slot)
                if rows is None:
                    rows = self._local_rows(shard, selections[sel_slot])
                    rows_cache[sel_slot] = rows
            view = views[view_slot] if view_slot is not None else None
            results.append(self._partial(shard, op, view, rows, args))
        return results

    def _partial(self, shard: int, op: str, view: Optional[tuple],
                 rows: Optional[np.ndarray], args: tuple):
        """One plan query's partial over this shard.

        Grid hashes go through :func:`repro.geometry.boxes.box_labels` and
        :func:`repro.geometry.boxes.interval_labels`, the clip ball through
        :func:`repro.geometry.balls.ball_membership` — the shared
        definitions that make every partial bitwise a slice of the
        whole-dataset answer.  ``count_labels`` is internal, never a plan
        method: the exact-recount round of the bounded heaviest-cell merge.
        ``heaviest_cell_counts`` keeps each attempt's full cell table, and
        ``cell_histogram`` over a partition the latest batch hashed returns
        that table's cells, counts and first rows, which are exactly those
        it would compute (a box selection's rows come from the same table,
        in :meth:`_box_rows`).
        """
        if op == "count_within_many":
            centers, radii = args
            # ``None`` is the wire encoding for "the full dataset" (which
            # every shard set already holds, so it is never pickled).
            return self.backend(shard).count_within_many(
                self.points if centers is None else centers, radii
            )
        if op == "depth_counts":
            low, high = self.bounds[shard]
            return depth_count_pairs(self.points[low:high, 0], *args)
        if op not in VIEW_PLAN_OPS and op != "count_labels":
            raise ValueError(f"unknown plan operation {op!r}")
        if op == "cell_histogram":
            # (labels, counts, first local row): the first rows let the
            # merge restore global first-occurrence cell order.
            width, shifts = args
            _, tables = self._cell_tables.get(shard, (0, {}))
            table = tables.get(_cell_key(view[0], width, shifts))
            if table is None:
                table = _cell_table(self.view_image(shard, *view), width,
                                    shifts)
            return table[:3]
        image = self.view_image(shard, *view, rows=rows)
        if op == "heaviest_cell_counts":
            # Per attempt: the shard's top_k heaviest labels with their
            # counts, plus a cap (the top_k-th largest count, an upper bound
            # on every cell the truncation dropped; 0 when nothing was).
            # The batch replaces the shard's previous tables, and keeps its
            # own only while every shard's together fit the memory budget:
            # past it the shard keeps none, and holds one table at a time.
            width, shifts, top_k = args
            self._cell_tables.pop(shard, None)
            room = DEFAULT_MEMORY_BUDGET - sum(
                nbytes for nbytes, _ in self._cell_tables.values())
            results = []
            tables, nbytes = {}, 0
            for shift in shifts:
                table = _cell_table(image, width, shift)
                if tables is not None:
                    nbytes += sum(array.nbytes for array in table)
                    if nbytes > room:
                        tables = None
                    else:
                        tables[_cell_key(view[0], width, shift)] = table
                unique, counts = table[:2]
                cap = 0
                if top_k is not None and counts.shape[0] > top_k:
                    keep = np.argpartition(counts,
                                           counts.shape[0] - top_k)[-top_k:]
                    cap = int(counts[keep].min())
                    unique, counts = unique[keep], counts[keep]
                results.append((unique, counts, cap))
            if tables:
                self._cell_tables[shard] = (nbytes, tables)
            return results
        if op == "count_labels":
            # Per attempt: the shard's exact count of every queried label
            # (0 for boxes it does not occupy).
            width, shifts, labels_per_attempt = args
            results = []
            for shift, queries in zip(shifts, labels_per_attempt):
                combined = np.concatenate(
                    [queries, box_labels(image, shift, width)], axis=0
                )
                unique, inverse = unique_rows(combined, return_inverse=True)
                table = np.bincount(inverse[queries.shape[0]:],
                                    minlength=unique.shape[0])
                results.append(table[inverse[:queries.shape[0]]])
            return results
        if op == "masked_sum":
            return int(rows.shape[0]), fixed_point_column_partials(image)
        if op == "masked_clipped_sum":
            center, clip_radius = args
            center = np.asarray(center, dtype=float)
            inside = ball_membership(image, center, clip_radius)
            deltas = image[inside] - center[None, :]
            return (int(np.count_nonzero(inside)),
                    fixed_point_column_partials(deltas))
        # masked_axis_histograms: (local selected count, per-axis (labels,
        # counts, first local position)); the merge offsets the positions
        # by the preceding shards' selected counts to restore global
        # first-occurrence order.
        width, axis_offset = args
        labels = interval_labels(image, width, axis_offset)
        per_axis = []
        for axis in range(labels.shape[1]):
            unique, first, counts = np.unique(labels[:, axis],
                                              return_index=True,
                                              return_counts=True)
            per_axis.append((unique, counts, first))
        return int(rows.shape[0]), per_axis


# --------------------------------------------------------------------------- #
# Deterministic shard-order merges
#
# Plan results collect per-shard partials in shard order and fold them
# through these functions, so a result is independent of worker scheduling:
# the fold order is the shard order, never the completion order.
# --------------------------------------------------------------------------- #

def _merge_column_sums(parts: Sequence[tuple],
                       image_dimension: int) -> np.ndarray:
    """Fold ``(count, (limb, shift, column) arrays)`` partials into the
    exact float column sums (see
    :func:`repro.utils.exactsum.merge_column_partials`)."""
    return fixed_point_to_floats(merge_column_partials(
        image_dimension, [part[1] for part in parts]))


def _merge_axis_histograms(parts: Sequence[tuple],
                           image_dimension: int) -> list:
    """Merge per-shard masked axis histograms, restoring the global
    first-occurrence cell order.

    Shard ``s``'s first-occurrence positions are offset by the selected-row
    counts of shards ``0..s-1`` (the shards partition the ascending selected
    sequence), then each axis follows the min-first / stable-argsort recipe
    the stability histogram's noise draws depend on.  One part's labels
    are already unique: only its order is restored.
    """
    if len(parts) == 1:
        merged = []
        for labels, counts, firsts in parts[0][1]:
            order = np.argsort(firsts, kind="stable")
            merged.append((labels[order], counts[order]))
        return merged
    merged = []
    for axis in range(image_dimension):
        all_labels = []
        all_counts = []
        all_firsts = []
        position_offset = 0
        for local_count, per_axis in parts:
            labels, counts, firsts = per_axis[axis]
            all_labels.append(labels)
            all_counts.append(counts)
            all_firsts.append(firsts + position_offset)
            position_offset += int(local_count)
        labels = np.concatenate(all_labels)
        counts = np.concatenate(all_counts)
        firsts = np.concatenate(all_firsts)
        unique, group = np.unique(labels, return_inverse=True)
        summed = np.bincount(group, weights=counts,
                             minlength=unique.shape[0]).astype(np.int64)
        first = np.full(unique.shape[0], np.iinfo(np.int64).max,
                        dtype=np.int64)
        np.minimum.at(first, group, firsts)
        order = np.argsort(first, kind="stable")
        merged.append((unique[order], summed[order]))
    return merged


def _merge_cell_histogram(parts: Sequence[tuple],
                          bounds: Sequence[Tuple[int, int]],
                          num_points: int):
    """Merge per-shard box histograms into global first-occurrence order
    (see :meth:`~repro.neighbors.base.ProjectedView.cell_histogram`).  One
    part's cells are already unique: only its order is restored."""
    if len(parts) == 1:
        labels, counts, firsts = parts[0]
        order = np.argsort(firsts, kind="stable")
        return labels[order], counts[order]
    all_labels = np.concatenate([part[0] for part in parts], axis=0)
    all_counts = np.concatenate([part[1] for part in parts])
    all_firsts = np.concatenate([
        part[2] + low for part, (low, _) in zip(parts, bounds)
    ])
    # The global group of each shard-unique cell.
    unique, group = unique_rows(all_labels, return_inverse=True)
    counts = np.bincount(group, weights=all_counts,
                         minlength=unique.shape[0]).astype(np.int64)
    first = np.full(unique.shape[0], num_points, dtype=np.int64)
    np.minimum.at(first, group, all_firsts)
    order = np.argsort(first, kind="stable")
    return unique[order], counts[order]


def _bounded_maximum(lists: Sequence[tuple]):
    """Merge one attempt's per-shard ``(cells, counts, cap)`` top-k lists.

    Returns ``(candidates, bound, maximum)``: the ``(u, k)`` union of the
    listed cells, the cap sum ``bound`` (no cell that no shard listed can
    hold more points), and the global heaviest-cell count when the lists
    alone prove it, else ``None``.  A listed cell holds at least the sum
    of its listed counts (``lower``) and at most that plus the caps of the
    shards that did not list it (``upper``) — a shard with cap 0 listed
    every cell it has, so it adds nothing.  A cell every truncating shard
    listed has ``upper == lower``, an exact count; when the largest exact
    count reaches both every ``upper`` and ``bound``, no cell can beat it.
    One list proves its own maximum: its cells are unique and its
    heaviest count is at least its cap.
    """
    if len(lists) == 1:
        cells, counts, cap = lists[0]
        return cells, int(cap), int(counts.max())
    caps = np.asarray([int(cap) for _, _, cap in lists], dtype=np.int64)
    bound = int(caps.sum())
    candidates, group = unique_rows(
        np.concatenate([cells for cells, _, _ in lists], axis=0),
        return_inverse=True,
    )
    counts = np.concatenate([listed for _, listed, _ in lists])
    # The cap of the shard that listed each row (a shard lists a cell once).
    row_caps = np.repeat(caps, [cells.shape[0] for cells, _, _ in lists])
    lower = np.bincount(group, weights=counts,
                        minlength=candidates.shape[0]).astype(np.int64)
    listed_caps = np.bincount(group, weights=row_caps,
                              minlength=candidates.shape[0]).astype(np.int64)
    upper = lower + (bound - listed_caps)
    exact = lower[upper == lower]
    if exact.size and int(exact.max()) >= max(int(upper.max()), bound):
        return candidates, bound, int(exact.max())
    return candidates, bound, None


def _heaviest_cell_merge(backend, view_wire: tuple, width: float,
                         shifts: np.ndarray, top_k: Optional[int],
                         parts: list) -> np.ndarray:
    """The bounded heaviest-cell merge of a plan's
    ``heaviest_cell_counts`` partials (round 1, from the plan's own task).

    Each shard lists only its ``top_k`` heaviest cells plus a cap bounding
    the cells it dropped, so the caller's scratch is ``O(shards * top_k)``
    per attempt.  The round-1 certificate (:func:`_bounded_maximum`)
    usually proves the maximum from the lists alone, and always with one
    shard or no truncation.  Otherwise the candidates are *recounted*
    exactly on every shard (one ``backend._view_round``), which certifies
    a maximum ``>=`` the cap sum; attempts still open retry with ``top_k``
    escalated 4x, up to the untruncated merge, so termination is
    unconditional.  The maxima are bitwise the full merge's; only the
    number of fan-outs differs.
    """
    maxima = [0] * shifts.shape[0]
    unresolved = list(range(shifts.shape[0]))
    while True:
        # (attempt, candidate cells, cap sum) of each attempt left open.
        recount = []
        for slot, attempt in enumerate(unresolved):
            cells, bound, best = _bounded_maximum(
                [part[slot] for part in parts]
            )
            if best is None:
                recount.append((attempt, cells, bound))
            else:
                maxima[attempt] = best
        still = []
        if recount:
            exact_parts = backend._view_round(
                view_wire, "count_labels",
                (float(width), shifts[[attempt for attempt, _, _ in recount]],
                 [cells for _, cells, _ in recount]),
            )
            for position, (attempt, _, bound) in enumerate(recount):
                best = int(np.sum([part[position] for part in exact_parts],
                                  axis=0, dtype=np.int64).max())
                if best >= bound:
                    maxima[attempt] = best
                else:
                    still.append(attempt)
        if not still:
            return np.asarray(maxima, dtype=np.int64)
        unresolved = still
        top_k = (None if top_k is None or 4 * top_k >= backend.num_points
                 else 4 * top_k)
        parts = backend._view_round(
            view_wire, "heaviest_cell_counts",
            (float(width), shifts[unresolved], top_k),
        )


# --------------------------------------------------------------------------- #
# The wire compile
# --------------------------------------------------------------------------- #

class _CompiledPlan(NamedTuple):
    """The wire form of one :class:`~repro.neighbors.base.QueryPlan`.

    ``views_wire`` is the plan's view table as ``(token, matrix, offset)``
    triples; ``selection_specs[j][s]`` shard ``s``'s spec for selection
    ``j``; ``bundle`` the ordered shard-side queries, one per plan query;
    ``merges`` the matching ``(op, extra)`` merge inputs.
    """

    views_wire: list
    selection_specs: list
    bundle: list
    merges: list

    def shard_args(self, shard: int) -> tuple:
        """The ``(views, selections, queries)`` task payload for one
        shard."""
        selections = [specs[shard] for specs in self.selection_specs]
        return (self.views_wire, selections, self.bundle)


def _selection_specs(backend, selection) -> List[tuple]:
    """Per-shard wire specs of a masked-query selection.

    A :class:`~repro.neighbors.base.BoxSelection` ships as its *label
    predicate* — ``(selection token, selecting view's cache token /
    matrix / offset, width, shifts, label)``, identical for every shard;
    each shard derives its own membership from its kept cell table of the
    partition or its cached image of the selecting view (memoising the
    rows under the selection token), so no
    ``O(n)`` mask or row list is ever built by the caller or crosses the
    wire.  Row/mask selections are normalised to ascending global rows and
    sliced so each shard receives only its own (shard-local) segment.
    """
    from repro.neighbors.base import BoxSelection  # base imports this module

    if isinstance(selection, BoxSelection):
        view = selection.view
        if view.backend is not backend:
            raise ValueError(
                "the BoxSelection was built over a different backend's "
                "view; selections only transfer between views of the "
                "same backend"
            )
        spec = ("box", selection.token, view._token, view.matrix,
                view.offset, float(selection.width), selection.shifts,
                selection.label)
        return [spec] * len(backend._bounds)
    array = np.asarray(selection)
    if array.dtype == np.bool_:
        if array.shape != (backend.num_points,):
            raise ValueError(
                f"boolean selection must have shape ({backend.num_points},),"
                f" got {array.shape}"
            )
        rows = np.flatnonzero(array)
    else:
        rows = np.sort(backend._check_rows(array))
    # The shards are contiguous: one search over their starts and n
    # cuts the ascending rows into every shard's segment.
    starts = [low for low, _ in backend._bounds]
    cuts = np.searchsorted(rows, starts + [backend.num_points]).tolist()
    return [("rows", rows[cuts[shard]:cuts[shard + 1]] - low)
            for shard, low in enumerate(starts)]


def _compile_plan(backend, plan) -> _CompiledPlan:
    """Compile a :class:`~repro.neighbors.base.QueryPlan` to wire form for
    ``backend``'s shards.

    Validation (view ownership, centre dimensions, row ranges) happens
    here, in the caller's process, so shards only ever see well-formed
    payloads.  A ``heaviest_cell_counts`` query ships the backend's
    ``HEAVIEST_CELL_TOP_K`` truncation; only the sharded backends define
    one, since a single shard's list is complete anyway.
    """
    views = plan.views
    if any(view.backend is not backend for view in views):
        raise ValueError(
            "the plan queries a view of a different backend; build the "
            "plan against the backend that executes it"
        )
    views_wire = [(view._token, view.matrix, view.offset) for view in views]
    selection_specs = [_selection_specs(backend, selection)
                       for selection in plan.selections]
    bundle: List[tuple] = []
    merges: List[tuple] = []
    for query in plan.queries:
        op, view_slot, args = query.op, query.view_slot, query.args
        extra = None
        if op == "count_within_many":
            centers, radii = args
            centers = check_points(centers, dimension=backend.dimension,
                                   name="centers")
            args = (None if centers is backend.points else centers, radii)
        elif op == "heaviest_cell_counts":
            top_k = getattr(backend, "HEAVIEST_CELL_TOP_K", None)
            args = (*args, int(top_k) if top_k else None)
            extra = (views_wire[view_slot], *args)
        elif op in MASKED_PLAN_OPS:
            # The merge needs the image dimension of the queried view.
            extra = views[view_slot].image_dimension
        merges.append((op, extra))
        bundle.append((op, view_slot, query.selection_slot, args))
    return _CompiledPlan(views_wire, selection_specs, bundle, merges)


def _merge_plan(backend, compiled: _CompiledPlan,
                shard_parts: List[list]) -> list:
    """Fold per-shard plan partials into per-query results (shard order,
    deterministic)."""
    results: List[object] = []
    for index, (op, extra) in enumerate(compiled.merges):
        parts = [shard[index] for shard in shard_parts]
        if op in BACKEND_PLAN_OPS:
            results.append(np.sum(parts, axis=0, dtype=np.int64))
        elif op == "masked_sum":
            results.append(_merge_column_sums(parts, extra))
        elif op == "masked_clipped_sum":
            from repro.neighbors.base import ClippedSum  # imports this module

            results.append(ClippedSum(
                count=int(sum(part[0] for part in parts)),
                vector_sum=_merge_column_sums(parts, extra),
            ))
        elif op == "masked_axis_histograms":
            results.append(_merge_axis_histograms(parts, extra))
        elif op == "heaviest_cell_counts":
            # extra = (view wire triple, width, shifts, top_k)
            results.append(_heaviest_cell_merge(backend, *extra, parts))
        elif op == "cell_histogram":
            results.append(_merge_cell_histogram(parts, backend._bounds,
                                                 backend.num_points))
        else:  # pragma: no cover - _compile_plan covers every op
            raise ValueError(f"unknown plan operation {op!r}")
    return results
