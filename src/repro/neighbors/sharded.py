"""Sharded backend: the dataset split across worker processes.

Radius-count queries are embarrassingly parallel in the *data*: for any centre
``c``, ``B_r(c, S) = sum over shards of B_r(c, S_shard)``.
:class:`ShardedBackend` exploits this by splitting the point set into
contiguous shards, answering each shard's sub-query with an ordinary
single-process backend (chunked or tree, chosen per shard by
``auto_backend``'s rule), and merging:

* **counts** — summed across shards (exact, integer addition);
* **the GoodRadius profile** — each shard computes and keeps its own
  *rows* of the truncated statistic (its points' ``t`` smallest squared
  distances against the full dataset), column-sorted from its first
  profile task on, so the selection rounds read sample ranks and binary
  searches instead of passes over the whole block; the parent holds only
  each column's threshold and sums per-shard integer counts (the
  column-threshold identity of :meth:`ShardedBackend._top_sums`);
* **streaming histograms** — the large-target ``L(r, S)`` walk also shards
  the query rows, and the per-range capped-count histograms add up.

Worker topology: the parent copies the ``(n, d)`` dataset into one
``multiprocessing.shared_memory`` block at pool start-up; workers attach in
their initialiser and build per-shard inner backends lazily (cached per
process), so a query ships only its small payload (a radius, a handful of
shifts, a centre block) — never the dataset.  Tasks are routed with
shard→worker *affinity* (shard ``s`` always lands on worker slot ``s mod
W``), so each shard's lazily built index, cached view images, and memoised
selection membership live in exactly one worker.

Workers run one kind of task: a ``(shard, payload)`` pair whose payload is
a compiled plan bundle, evaluated by :meth:`_ShardSet.execute_plan`.  Every
view query and every count query is a
:class:`~repro.neighbors.base.QueryPlan` — a direct call is a one-query
plan — shipped as a *single* task per shard (one round trip per shard for
a whole plan), optionally submitted asynchronously (``submit``), with the
merge always folding shards in shard order so overlapping plans cannot
perturb a single bit.  The profile's selection and count rounds over the
resident statistics, the ``kth_distances`` column read, the streaming
profile histograms (summed) and the heaviest-cell merge's recount rounds
are internal plan ops of the same bundle form; each carries what its shard
needs to rebuild its state, so a restarted pool, a stolen task or an
adopting node answers it bitwise alike.  Every batch
leaves through one transport seam, :meth:`ShardedBackend._dispatch`; the
distributed backend overrides only that seam.  On a single-CPU machine,
when ``num_workers=0``, or when the pool cannot start (sandboxes without
``/dev/shm``) or dies, the same shard/merge code runs serially in-process
— results are bit-identical either way, the pool is purely a wall-clock
lever.

Everything merged here is integer counts or exact squared distances, so the
sharded backend keeps the library-wide guarantee: identical counts and
``L(r, S)`` scores for every backend, regardless of shard count or worker
count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, shared_memory
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from repro.neighbors._distance import (
    capped_count_histograms,
    kth_squared_cross,
    row_block_size,
    truncated_squared_columns,
    truncated_squared_cross,
)
from repro.neighbors.base import (
    MASKED_PLAN_OPS,
    VIEW_PLAN_OPS,
    BoxSelection,
    ClippedSum,
    NeighborBackend,
    PlanFuture,
    ProfileCache,
    ProjectedView,
    QueryPlan,
    _check_1d,
    depth_count_pairs,
)
from repro import kernels as _kernels
from repro.utils.exactsum import (
    fixed_point_column_partials,
    fixed_point_to_floats,
    merge_column_partials,
)
from repro.utils.validation import check_integer, check_points

#: Monotonic ids for projected views: workers cache each shard's projected
#: image keyed by the view's token, so a view's matrix is applied to a shard
#: at most once per worker process no matter how many queries it answers.
_VIEW_TOKENS = itertools.count(1)

#: Test seam: ``(shard, seconds)`` sleeps that long before running any task
#: for that shard.  Consulted by :meth:`_ShardSet.execute_plan` in whichever
#: process executes the task (fork-inherited by pool workers started after it
#: is set), so tests can make exactly one shard artificially slow and pin the
#: work-stealing scheduler's behaviour without touching query code.
_TASK_DELAY: Optional[Tuple[int, float]] = None


def _available_cpus() -> int:
    """The number of CPUs the process may actually use (1 if undeterminable).

    Prefers the scheduler affinity mask over ``os.cpu_count()``: in
    containers with a CPU quota / pinned affinity the raw core count of the
    host would oversubscribe the pool (and make ``auto_backend`` pick
    sharding where it cannot pay off).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _ShardSet:
    """The per-process shard executor: points + lazily built inner backends.

    One instance lives in the parent (serial fallback) and one in every worker
    process (built over the shared-memory view in the pool initialiser).  All
    shard-local query logic is here so the serial and multi-process paths run
    literally the same code.
    """

    #: How many projected images a worker keeps per shard it serves (see
    #: the ``_view_images`` attribute note in ``__init__``).
    VIEW_IMAGE_CACHE_PER_SHARD: ClassVar[int] = 2

    def __init__(self, points: np.ndarray,
                 bounds: Sequence[Tuple[int, int]]) -> None:
        self.points = points
        self.bounds = list(bounds)
        self._backends = {}
        #: Per-shard cached projected images: ``shard -> {view token: image}``
        #: with the oldest entry evicted beyond
        #: :data:`VIEW_IMAGE_CACHE_PER_SHARD`, so a long-lived worker holds a
        #: bounded number of ``(shard n, k)`` images per shard it serves.
        #: Two entries cover GoodCenter's working set (the partition-search
        #: view the selection predicate is re-derived against plus the
        #: rotated-frame view), so masked queries alternating between them
        #: never recompute an image.
        self._view_images = {}
        #: Per-shard memoised selection membership: ``shard -> (selection
        #: token, ascending shard-local rows)``.  One entry per shard (the
        #: latest selection wins): the masked queries of one ``good_center``
        #: call — and of one query plan — all reference a single selection,
        #: so each worker derives its shard's membership exactly once.
        self._selection_rows = {}
        #: The full-dataset scipy KD-tree the truncated row blocks are
        #: selected with (built on first use, when :meth:`_inner_name`
        #: picks the tree at the full dataset's size and
        #: :func:`~repro.neighbors.tree.tree_selects` picks it for the
        #: block's ``k``).
        self._full_tree = None
        #: Per-shard resident truncated statistic, column-sorted: ``shard
        #: -> (k, rows)`` array whose row ``j`` is column ``j`` of the
        #: shard's row block, sorted (see :meth:`columns`), the widest any
        #: profile task asked for (a narrower target reads its leading
        #: rows).
        self._blocks = {}
        #: Per-shard state of the GoodRadius profile, warm per target:
        #: ``(shard, target) -> (thresholds, sorted entries)``, the
        #: statistic's entries below their column's threshold (see
        #: :meth:`below_threshold`).  One :class:`ProfileCache` for all the
        #: shards this process serves: least recently used evicted while
        #: the entries exceed the 64 MiB memory budget, the newest kept.
        self._profiles = ProfileCache()

    def _inner_name(self, num_points: int) -> str:
        """The single-process strategy for ``num_points`` of these points:
        :func:`~repro.neighbors.auto_backend`'s choice with sharding ruled
        out."""
        from repro.neighbors import _in_process_backend

        return _in_process_backend(num_points, self.points.shape[1])

    def backend(self, shard: int) -> NeighborBackend:
        """The inner backend indexing shard ``shard`` (built on first use).

        Caches are per process.  Since shard→worker routing affinity (tasks
        for shard ``s`` always land on worker ``s mod W``), each shard's
        index is built in exactly one worker under pool mode, so this lazy
        build runs once per shard pool-wide, never once per (shard, worker)
        pair under mixed plan/point-query load.
        """
        if shard not in self._backends:
            from repro.neighbors import BACKENDS

            low, high = self.bounds[shard]
            self._backends[shard] = BACKENDS[self._inner_name(high - low)](
                self.points[low:high]
            )
        return self._backends[shard]

    # ------------------------------------------------------------------ #
    # Projected-view sub-queries (GoodCenter's grid hashing)
    # ------------------------------------------------------------------ #
    def view_image(self, shard: int, token: Optional[int],
                   matrix: Optional[np.ndarray],
                   offset: Optional[np.ndarray],
                   rows: Optional[np.ndarray] = None) -> np.ndarray:
        """This shard's rows under a view's linear image.

        ``rows`` (shard-local indices) restricts the image to a subset and is
        never cached; the full-shard image of a non-identity view is cached
        per ``token`` so the matrix shipped with each task is applied at most
        once per worker.  Projection goes through the row-decomposable
        :func:`repro.geometry.jl.project_rows`, so the shard-side image is
        bitwise identical to slicing a parent-side projection.
        """
        low, high = self.bounds[shard]
        if matrix is None and offset is None:
            base = self.points[low:high]
            return base if rows is None else base[rows]
        from repro.geometry.jl import apply_linear_image

        if rows is not None:
            return apply_linear_image(self.points[low:high][rows], matrix,
                                      offset)
        if token is None:
            return apply_linear_image(self.points[low:high], matrix, offset)
        cached = self._view_images.setdefault(shard, {})
        if token not in cached:
            cached[token] = apply_linear_image(self.points[low:high], matrix,
                                               offset)
            while len(cached) > self.VIEW_IMAGE_CACHE_PER_SHARD:
                cached.pop(next(iter(cached)))
        return cached[token]

    def clear_caches(self) -> None:
        """Drop every cached per-shard view image, memoised selection
        membership, resident statistic and profile state (see
        :meth:`ShardedBackend.close`)."""
        self._view_images.clear()
        self._selection_rows.clear()
        self._blocks.clear()
        self._profiles.clear()

    def cache_stats(self) -> dict:
        """Cache/index occupancy of this shard set (one worker's view of the
        world under pool mode; the parent's under the serial fallback).
        Feeds :meth:`ShardedBackend.pool_stats`."""
        return {
            "built_shards": sorted(self._backends),
            "cached_view_images": {
                shard: len(images)
                for shard, images in sorted(self._view_images.items())
            },
            "cached_selections": sorted(self._selection_rows),
            "resident_blocks": {
                shard: int(columns.shape[0])
                for shard, columns in sorted(self._blocks.items())
            },
            "pid": os.getpid(),
        }

    # ------------------------------------------------------------------ #
    # The resident truncated statistic (GoodRadius's profile)
    # ------------------------------------------------------------------ #
    def _build(self, shard: int, k: int, form: str) -> np.ndarray:
        """The shard's rows' ``k`` smallest squared distances to the full
        dataset, computed and not kept, in one of three forms: ``"rows"``,
        the row-sorted ``(rows, k)`` block; ``"columns"``, :meth:`columns`'
        ``(k, rows)`` layout; ``"kth"``, the block's last column alone.

        When :meth:`_inner_name` picks the scipy KD-tree at the full
        dataset's size and :func:`~repro.neighbors.tree.tree_selects`
        picks it for ``k``, a full-dataset tree (cached in this process)
        selects the neighbours and the shared gather kernel recomputes the
        values; otherwise the blocked slab pass of the form's kernel
        computes it and no tree is built.  Either way it is bitwise the
        blocked slab's — and the leading ``k`` columns of a wider block
        are bitwise the ``k``-column block.
        """
        from repro.neighbors.tree import TreeBackend, tree_selects

        n = self.points.shape[0]
        low, high = self.bounds[shard]
        if self._inner_name(n) == "tree" and tree_selects(k, n):
            if self._full_tree is None:
                self._full_tree = TreeBackend(self.points)
            block = self._full_tree.truncated_squared_cross(
                self.points[low:high], k
            )
            if form == "columns":
                return _sorted_columns(block)
            return block[:, k - 1].copy() if form == "kth" else block
        kernel = {"rows": truncated_squared_cross,
                  "columns": truncated_squared_columns,
                  "kth": kth_squared_cross}[form]
        return kernel(self.points[low:high], self.points, k,
                      row_block_size(*self.points.shape))

    def block(self, shard: int, k: int) -> np.ndarray:
        """The shard's rows' ``min(k, n)`` smallest squared distances to
        the full dataset, row-sorted: ``(rows, k)``, built (:meth:`_build`)
        for this call and never kept — the shard keeps only its sorted
        :meth:`columns`."""
        return self._build(shard, min(k, self.points.shape[0]), "rows")

    def columns(self, shard: int, k: int) -> np.ndarray:
        """The shard's statistic column by column: ``(min(k, n), rows)``,
        row ``j`` holding column ``j`` of :meth:`block` in ascending order,
        built on first use and kept.

        The profile rounds read only this layout.  Sorting each column of
        a wider statistic leaves its leading columns exactly the narrower
        statistic's sorted columns, so a narrower target reads the leading
        rows and only a wider one rebuilds.
        """
        k = min(k, self.points.shape[0])
        cached = self._blocks.get(shard)
        if cached is None or cached.shape[0] < k:
            # Drop the narrower statistic before building the wider one.
            self._blocks.pop(shard, None)
            del cached
            cached = self._build(shard, k, "columns")
            self._blocks[shard] = cached
        return cached[:k]

    def below_threshold(self, shard: int, target: int,
                        thresholds: np.ndarray) -> np.ndarray:
        """The shard's statistic entries below their column's threshold,
        sorted — the per-shard half of the column-threshold identity.

        Each column's entries below its threshold are a prefix of its
        sorted row in :meth:`columns`: a binary search of each row finds
        its prefix, and one sort orders them together.  Cached per
        ``(shard, target)`` and rebuilt when the target is not cached or
        the task's thresholds differ from the ones it was built for.
        """
        cached = self._profiles.get((shard, target))
        if cached is None or not np.array_equal(cached[0], thresholds):
            columns = self.columns(shard, target)
            below = np.concatenate([
                column[:column.searchsorted(cut, "left")]
                for column, cut in zip(columns, thresholds.tolist())
            ])
            below.sort()
            cached = (thresholds, below)
            self._profiles.put((shard, target), cached)
        return cached[1]

    # ------------------------------------------------------------------ #
    # Plan execution (one task per shard for a whole QueryPlan)
    # ------------------------------------------------------------------ #
    def _selection_rows_local(self, shard: int, spec: tuple) -> np.ndarray:
        """Shard-local ascending rows of a masked-query selection.

        ``spec`` is the wire form of a selection: ``("rows", local_rows)``
        ships a pre-sliced shard-local index array, while ``("box",
        sel_token, view_token, sel_matrix, sel_offset, width, shifts,
        label)`` ships the *label predicate* — the shard re-derives its own
        membership from its (token-cached) image of the selecting view, so
        the mask never exists as an array in the parent.  The derived rows
        are memoised per shard under ``sel_token``: consecutive plans over
        the same selection (GoodCenter issues several per call) hash the
        image once, not once per plan.
        """
        if spec[0] == "rows":
            return np.asarray(spec[1], dtype=np.int64)
        _, sel_token, token, matrix, offset, width, shifts, label = spec
        if sel_token is not None:
            cached = self._selection_rows.get(shard)
            if cached is not None and cached[0] == sel_token:
                return cached[1]
        rows = self._box_rows(shard, token, matrix, offset, width, shifts,
                              label)
        if sel_token is not None:
            self._selection_rows[shard] = (sel_token, rows)
        return rows

    def _box_rows(self, shard: int, token: Optional[int],
                  matrix: Optional[np.ndarray], offset: Optional[np.ndarray],
                  width: float, shifts: np.ndarray,
                  label: np.ndarray) -> np.ndarray:
        """Shard-local rows whose image falls in box ``label`` (one hash
        pass over the shard's cached image)."""
        from repro.geometry.boxes import box_labels

        image = self.view_image(shard, token, matrix, offset)
        labels = box_labels(image, np.asarray(shifts, dtype=float), width)
        return np.flatnonzero(
            np.all(labels == np.asarray(label, dtype=np.int64)[None, :],
                   axis=1)
        )

    def execute_plan(self, shard: int, views: Sequence[tuple],
                     selections: Sequence[tuple],
                     queries: Sequence[tuple]) -> list:
        """Evaluate every query of a compiled plan over this shard.

        This is the one shard task: the serial path, the pool workers and
        the remote node servers all run it, so the :data:`_TASK_DELAY` test
        seam applies uniformly.  ``views`` is the plan's view table as
        ``(token, matrix, offset)`` wire triples, ``selections`` its
        selection table in the per-shard spec form of
        :meth:`_selection_rows_local`, and ``queries`` the ordered ``(op,
        view_slot, selection_slot, args)`` bundle.  Each query yields this
        shard's mergeable partial (see :meth:`_partial`); the whole bundle
        costs *one* task dispatch, each selection's membership is derived
        at most once, and each view's image is projected at most once (the
        token-keyed image cache).
        """
        delay = _TASK_DELAY
        if delay is not None and int(delay[0]) == int(shard):
            time.sleep(float(delay[1]))
        rows_cache: dict = {}
        results = []
        for op, view_slot, sel_slot, args in queries:
            rows = None
            if sel_slot is not None:
                rows = rows_cache.get(sel_slot)
                if rows is None:
                    rows = self._selection_rows_local(shard,
                                                      selections[sel_slot])
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
        definitions that make every partial bitwise the in-process view's
        slice.  The other ops are internal, never plan methods:
        ``count_labels`` (the exact-recount round of the bounded
        heaviest-cell merge), ``histograms`` (this shard's streaming
        ``L(r, S)`` partial), ``kth`` (one column of the row-sorted
        :meth:`block`, computed without the block and never kept), and the
        three GoodRadius profile rounds over the shard's resident sorted
        :meth:`columns` — ``profile_samples`` (the entries at the sample
        ranks), ``profile_bracket`` (two binary searches per column and the
        runs between them) and ``profile_counts`` (through
        :meth:`below_threshold`).  Each carries everything its shard needs
        to rebuild the statistic and the profile state, so a fresh or
        stealing worker, or an adopting node, answers it bitwise like the
        shard's home worker.
        """
        from repro.geometry.balls import ball_membership
        from repro.geometry.boxes import (
            box_labels, interval_labels, unique_rows,
        )

        low, high = self.bounds[shard]
        if op == "count_within_many":
            centers, radii = args
            # ``None`` is the wire encoding for "the full dataset" (which
            # workers already hold in shared memory, so it is never pickled).
            return self.backend(shard).count_within_many(
                self.points if centers is None else centers, radii
            )
        if op == "depth_counts":
            return depth_count_pairs(self.points[low:high, 0], *args)
        if op == "kth":
            (k,) = args
            return self._build(shard, k, "kth")
        if op == "profile_samples":
            # Selection round 1: every ceil(sqrt(t))-th order statistic of
            # each column's t smallest, plus the last (see _sample_ranks),
            # read off the sorted columns.
            (target,) = args
            columns = self.columns(shard, target)
            ranks = _sample_ranks(columns.shape[1], target)
            return np.ascontiguousarray(columns[:, ranks - 1].T)
        if op == "profile_bracket":
            # Selection round 2: per column, the count at or below the
            # bracket and the entries strictly inside it, grouped by
            # column (ascending within each).  Every entry outside the
            # shard's t smallest of a column lies at or above the upper
            # bound, so the whole column gives the same answer as those t
            # smallest.
            target, lower, upper = args
            columns = self.columns(shard, target)
            below = np.empty(columns.shape[0], dtype=np.intp)
            inside = np.empty_like(below)
            runs = []
            for j, (column, lower_j, upper_j) in enumerate(
                    zip(columns, lower.tolist(), upper.tolist())):
                start = column.searchsorted(lower_j, "right")
                stop = max(column.searchsorted(upper_j, "left"), start)
                below[j], inside[j] = start, stop - start
                runs.append(column[start:stop])
            return below, inside, np.concatenate(runs)
        if op == "profile_counts":
            # #{(i, j) : T[i, j] < tau_j and T[i, j] <= key} per key.
            target, thresholds, keys = args
            below = self.below_threshold(shard, target, thresholds)
            return np.searchsorted(below, keys, side="right").astype(np.int64)
        if op == "histograms":
            # Capped-count histograms over the shard's *query rows*, counted
            # against the full dataset.
            keys, cap = args
            return capped_count_histograms(self.points[low:high], self.points,
                                           keys, cap,
                                           row_block_size(*self.points.shape))
        if op not in VIEW_PLAN_OPS and op != "count_labels":
            raise ValueError(f"unknown plan operation {op!r}")
        image = self.view_image(shard, *view, rows=rows)
        if op == "heaviest_cell_counts":
            # Per attempt: the shard's top_k heaviest labels with their
            # counts, plus a cap (the top_k-th largest count, an upper bound
            # on every cell the truncation dropped; 0 when nothing was).
            width, shifts, top_k = args
            results = []
            for shift in shifts:
                unique, counts = unique_rows(box_labels(image, shift, width),
                                             return_counts=True)
                cap = 0
                if top_k is not None and counts.shape[0] > top_k:
                    keep = np.argpartition(counts,
                                           counts.shape[0] - top_k)[-top_k:]
                    cap = int(counts[keep].min())
                    unique, counts = unique[keep], counts[keep]
                results.append((unique, counts, cap))
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
        if op == "cell_histogram":
            # (labels, counts, first local row): the first rows let the
            # parent restore global first-occurrence cell order.
            width, shifts = args
            unique, first, counts = unique_rows(
                box_labels(image, shifts, width), return_index=True,
                return_counts=True,
            )
            return unique, counts, first
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
        # counts, first local position)); the parent offsets the positions
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
# Worker-process plumbing
# --------------------------------------------------------------------------- #

#: The worker's shard set, installed by :func:`_init_worker`.
_WORKER_SHARDS: Optional[_ShardSet] = None
_WORKER_SHM: Optional[shared_memory.SharedMemory] = None


def _init_worker(shm_name: str, shape: Tuple[int, int], dtype_str: str,
                 bounds: Sequence[Tuple[int, int]]) -> None:
    """Pool initialiser: attach the shared dataset, build the shard set."""
    global _WORKER_SHARDS, _WORKER_SHM
    # Attach WITHOUT registering with the resource tracker: the parent owns
    # the segment and unlinks it on close; a child registration would make the
    # (possibly shared, under fork) tracker believe the segment was already
    # released, turning the parent's unlink into a KeyError (bpo-39959).
    # Python 3.13 exposes this as SharedMemory(..., track=False); earlier
    # interpreters need the register call suppressed around the attach.
    try:  # pragma: no cover - interpreter-version dependent
        shm = shared_memory.SharedMemory(name=shm_name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=shm_name)
        finally:
            resource_tracker.register = original_register
    points = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
    _WORKER_SHM = shm
    _WORKER_SHARDS = _ShardSet(points, bounds)


def _run_shard_task(shard: int, payload: tuple) -> list:
    """Run one ``(shard, payload)`` task inside a worker process."""
    return _WORKER_SHARDS.execute_plan(shard, *payload)


def _worker_cache_stats() -> dict:
    """Report this worker's cache/index occupancy (for ``pool_stats``)."""
    return _WORKER_SHARDS.cache_stats()


class _PoolBatch:
    """The local transport's handle for one batch of ``(shard, payload)``
    tasks (see :meth:`ShardedBackend._dispatch`).

    Without a pool (``num_workers`` below 2, or a pool that could not start
    or has died) the batch runs serially in-process at dispatch.  Otherwise
    the tasks go through a parent-side work-stealing scheduler.  With the
    default topology (shards == worker slots) every slot receives exactly
    one task and this degenerates to the plain affinity dispatch.  When
    shards outnumber workers, eager per-slot submission would make the
    batch's wall clock the *slowest slot's queue*, not the slowest task: one
    slow shard serialises every other shard that hashes to its slot.  So
    tasks are queued parent-side (per affinity slot ``shard mod W``, in task
    order) and submitted one at a time; a slot that drains its own queue
    *steals* from the tail of the longest remaining queue (deterministic
    victim: longest queue, smallest slot on ties).  Stealing moves only the
    *computation* — a stolen task's shard index travels with it, the worker
    builds the shard's index on demand, and results resolve into per-task
    proxy futures, so :meth:`result` still returns them in task order and
    every merge stays bitwise identical to the serial path.  The steal
    count is surfaced via ``pool_stats()["stolen_tasks"]``.

    A pool that dies under the batch is shut down for good and the whole
    batch is recomputed on the serial path — the one broken-pool fallback
    of every local dispatch.
    """

    __slots__ = ("_backend", "_executors", "_tasks", "_lock", "_queues",
                 "_proxies", "_results")

    def __init__(self, backend: "ShardedBackend",
                 tasks: Sequence[Tuple[int, tuple]]) -> None:
        self._backend = backend
        self._tasks = list(tasks)
        self._results: Optional[list] = None
        self._executors = backend._ensure_executors()
        if self._executors is None:
            self._results = self._run_serially()
            return
        self._lock = threading.Lock()
        self._proxies: List[Future] = [Future() for _ in self._tasks]
        slots = len(self._executors)
        self._queues = [deque() for _ in range(slots)]
        for index, (shard, _) in enumerate(self._tasks):
            self._queues[shard % slots].append(index)
        # Every slot's first task is taken before any is submitted, so a
        # fast first task cannot steal another slot's first task (and build
        # that shard's resident state in the wrong worker) before the slot
        # it belongs to has started.
        firsts = [queue.popleft() if queue else None
                  for queue in self._queues]
        for slot, index in enumerate(firsts):
            if index is None or not self._submit(slot, index, False):
                self._start_next(slot)

    def _run_serially(self) -> list:
        shards = self._backend._shards
        return [shards.execute_plan(shard, *payload)
                for shard, payload in self._tasks]

    def done(self) -> bool:
        """Whether every task has finished."""
        return (self._results is not None
                or all(proxy.done() for proxy in self._proxies))

    def result(self) -> list:
        """Block for every task; the results in task order."""
        if self._results is None:
            try:
                self._results = [proxy.result() for proxy in self._proxies]
            except (BrokenProcessPool, OSError) as error:
                backend = self._backend
                if not backend._pool_failed:
                    backend._pool_failed = True
                    backend.close()
                    warnings.warn(
                        f"ShardedBackend worker pool died ({error}); "
                        "finishing on the serial in-process path (results "
                        "are identical, only slower)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                self._results = self._run_serially()
        return self._results

    def _pick(self, slot: int):
        """The next task index for ``slot`` (own queue first, else steal).

        Caller holds the lock: the queues are shared across the executor
        manager threads that run the completion hooks.
        """
        queue = self._queues[slot]
        if queue:
            return queue.popleft(), False
        victim = max(range(len(self._queues)),
                     key=lambda s: (len(self._queues[s]), -s))
        if not self._queues[victim]:
            return None, False
        # Steal from the tail: the task farthest in the victim's future,
        # leaving its near-term affinity work (and warm caches) in place.
        return self._queues[victim].pop(), True

    def _start_next(self, slot: int) -> None:
        """Submit ``slot``'s next task.

        Only the queue mutation runs under the lock.  In particular the
        completion hook is attached *outside* it: ``add_done_callback`` on
        an already-finished future invokes the callback synchronously on
        the calling thread, and ``_finish`` re-enters ``_start_next`` — a
        lock held across the attach would self-deadlock the moment a
        worker wins that race.  Each slot has at most one in-flight task
        (the next is only submitted from its predecessor's hook), so the
        per-slot submit sequence needs no lock of its own.
        """
        while True:
            with self._lock:
                index, stolen = self._pick(slot)
            if index is None or self._submit(slot, index, stolen):
                return

    def _submit(self, slot: int, index: int, stolen: bool) -> bool:
        """Submit task ``index`` to ``slot``; ``False`` when the pool
        refused it (its proxy then holds the error)."""
        shard, payload = self._tasks[index]
        proxy = self._proxies[index]
        try:
            future = self._executors[slot].submit(
                _run_shard_task, shard, payload
            )
        except BaseException as error:  # pool shut down mid-batch
            proxy.set_exception(error)
            return False
        if stolen:
            self._backend._note_stolen()
        future.add_done_callback(
            lambda f, s=slot, p=proxy: self._finish(s, p, f)
        )
        return True

    def _finish(self, slot: int, proxy: Future, future) -> None:
        error = future.exception()
        if error is not None:
            proxy.set_exception(error)
        else:
            proxy.set_result(future.result())
        self._start_next(slot)


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
    the stability histogram's noise draws depend on.
    """
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
    (see :meth:`~repro.neighbors.base.ProjectedView.cell_histogram`)."""
    from repro.geometry.boxes import unique_rows

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
    """
    from repro.geometry.boxes import unique_rows

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


def _sorted_columns(block: np.ndarray) -> np.ndarray:
    """A row-sorted ``(rows, k)`` block column by column: its transpose,
    copied, with every row sorted in place."""
    columns = block.T.copy()
    columns.sort(axis=1)
    return columns


#: Columns per step of the parent's selection merges, which bounds their
#: scratch at a few ``(sampled rows, chunk)`` arrays whatever ``t`` is.
_SELECTION_CHUNK = 256


def _sample_ranks(rows: int, target: int) -> np.ndarray:
    """The 1-based ranks a shard of ``rows`` rows samples from each
    column's ``m = min(rows, target)`` smallest entries in selection round
    1: every ``ceil(sqrt(target))``-th, plus the ``m``-th."""
    m = min(rows, target)
    step = math.isqrt(target - 1) + 1
    return np.unique(np.append(np.arange(step, m + 1, step), m))


def _brackets(samples: Sequence[np.ndarray], rows: Sequence[int],
              target: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column bounds ``lower < tau_j <= upper`` from round 1's samples.

    ``tau_j`` is the ``target``-th smallest entry of column ``j``.  A
    shard's samples bound how many of its entries lie at or below a value
    ``v``: at least the rank of its last sample ``<= v`` (0 if none), at
    most one less than the rank of its first sample ``> v`` (its ``m`` if
    none).  ``upper`` is the smallest sample value whose lower bounds sum
    to at least ``target``; ``lower`` the largest sample value whose upper
    bounds sum to less (``-inf`` if none).  Summed over the samples sorted
    by value, each bound is a running sum of rank steps; the value where a
    running sum first crosses ``target`` does not depend on how ties are
    ordered.  Entries a shard holds beyond its ``m`` smallest lie at or
    above its last sample, so they never move either bound.
    """
    steps_low, steps_high, base = [], [], 0
    for count in rows:
        ranks = _sample_ranks(count, target)
        steps = np.diff(np.concatenate([[0], ranks,
                                        [min(count, target) + 1]]))
        steps_low.append(steps[:-1])     # rank minus the previous rank
        steps_high.append(steps[1:])     # next rank minus rank
        base += int(ranks[0]) - 1
    steps_low = np.concatenate(steps_low)
    steps_high = np.concatenate(steps_high)
    lower = np.empty(target)
    upper = np.empty(target)
    for start in range(0, target, _SELECTION_CHUNK):
        columns = slice(start, start + _SELECTION_CHUNK)
        values = np.concatenate([part[:, columns] for part in samples])
        order = np.argsort(values, axis=0)
        values = np.take_along_axis(values, order, axis=0)
        index = np.arange(values.shape[1])
        crossed = np.cumsum(steps_low[order], axis=0) >= target
        upper[columns] = values[crossed.argmax(axis=0), index]
        crossed = base + np.cumsum(steps_high[order], axis=0) >= target
        first = np.count_nonzero(
            values < values[crossed.argmax(axis=0), index][None, :], axis=0
        )
        lower[columns] = np.where(
            first > 0, values[np.maximum(first - 1, 0), index], -np.inf
        )
    return lower, upper


def _thresholds(parts: Sequence[tuple], target: int,
                upper: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``tau`` and the prefix sums of ``t - s_j`` from round 2's replies.

    Each reply is one shard's ``(count at or below lower, count strictly
    inside, inside entries grouped by column)``.  Per column, ``tau_j`` is
    the ``(t - below_j)``-th smallest of the inside entries merged with
    ``upper_j`` (appended as a sentinel: it is larger than every inside
    entry, and ``tau_j <= upper_j``), and ``s_j`` — the column's entries
    below ``tau_j`` — is ``below_j`` plus the inside entries below it.
    """
    below = np.sum([part[0] for part in parts], axis=0, dtype=np.int64)
    offsets = [np.concatenate([[0], np.cumsum(part[1])]) for part in parts]
    thresholds = np.empty(target)
    under = np.empty(target, dtype=np.int64)
    for start in range(0, target, _SELECTION_CHUNK):
        stop = min(start + _SELECTION_CHUNK, target)
        width = stop - start
        # int16 column offsets (a chunk is narrower than 2**15) make the
        # stable grouping sort a radix sort.
        local = np.arange(width, dtype=np.int16)
        values = [upper[start:stop]]
        columns = [local]
        for part, offset in zip(parts, offsets):
            values.append(part[2][offset[start]:offset[stop]])
            columns.append(np.repeat(local, part[1][start:stop]))
        values = np.concatenate(values)
        columns = np.concatenate(columns)
        order = np.argsort(values)
        order = order[np.argsort(columns[order], kind="stable")]
        values, columns = values[order], columns[order]
        sizes = np.bincount(columns, minlength=width)
        rank = np.minimum(target - below[start:stop], sizes)
        chosen = values[np.cumsum(sizes) - sizes + rank - 1]
        thresholds[start:stop] = chosen
        under[start:stop] = below[start:stop] + np.bincount(
            columns[values < chosen[columns]], minlength=width
        )
    return thresholds, np.concatenate([[0], np.cumsum(target - under)])


class _CompiledPlan:
    """The wire form of one :class:`~repro.neighbors.base.QueryPlan`.

    ``views_wire`` is the plan's view table as ``(token, matrix, offset)``
    triples; ``selection_specs[j][s]`` shard ``s``'s spec for selection
    ``j``; ``bundle`` the ordered shard-side queries, one per plan query
    (``args`` is either a tuple shared by every shard or a per-shard list);
    ``merges`` the matching ``(op, extra)`` merge inputs.
    """

    __slots__ = ("views_wire", "selection_specs", "bundle", "merges")

    def __init__(self, views_wire, selection_specs, bundle, merges) -> None:
        self.views_wire = views_wire
        self.selection_specs = selection_specs
        self.bundle = bundle
        self.merges = merges

    def shard_args(self, shard: int) -> tuple:
        """The ``(views, selections, queries)`` task payload for one
        shard."""
        selections = [specs[shard] for specs in self.selection_specs]
        queries = [
            (op, view_slot, sel_slot,
             args if isinstance(args, tuple) else args[shard])
            for op, view_slot, sel_slot, args in self.bundle
        ]
        return (self.views_wire, selections, queries)


class _ShardedPlanFuture(PlanFuture):
    """An in-flight plan: one dispatched task per shard, on either
    transport.

    ``handle`` is what :meth:`ShardedBackend._dispatch` returned.
    :meth:`result` takes its per-shard partials **in shard order** and folds
    them through the deterministic merges, so the values — and the releases
    derived from them — are independent of worker scheduling, of how many
    plans are overlapped, and of any recovery the transport ran on the way
    (a dead local pool, a dead node).
    """

    def __init__(self, backend: "ShardedBackend", compiled: _CompiledPlan,
                 handle) -> None:
        self._backend = backend
        self._compiled = compiled
        self._handle = handle
        self._resolved: Optional[list] = None

    def done(self) -> bool:
        """Whether every shard task has finished (merging still happens on
        the first :meth:`result` call)."""
        return self._resolved is not None or self._handle.done()

    def result(self) -> list:
        """Block for the per-shard tasks, merge in shard order, and return
        the per-query results (memoised across calls)."""
        if self._resolved is None:
            self._resolved = self._backend._merge_plan(self._compiled,
                                                       self._handle.result())
            self._handle = None
        return self._resolved


class ShardedBackend(NeighborBackend):
    """Dataset sharded across processes; per-shard answers merged exactly.

    Each shard answers with the single-process strategy
    :func:`~repro.neighbors.auto_backend`'s rule picks for its size.

    Parameters
    ----------
    points:
        ``(n, d)`` dataset.
    num_shards:
        How many contiguous shards to split the points into.  Defaults to the
        worker count (or the CPU count when that is automatic too); always
        clamped to ``n``.
    num_workers:
        Worker-process count.  ``None`` (default) uses
        ``min(num_shards, cpu count)``; ``0`` forces the serial in-process
        path (identical results, no pool); values ``> 1`` request a process
        pool, which silently degrades to serial if the pool cannot start.
    """

    name = "sharded"

    #: Plans submitted here run genuinely in flight (pool mode), so
    #: GoodCenter's noise-gate predictor speculates through this strategy;
    #: the serial fallback still opts in — the speculative plan is the same
    #: shard/merge work either way, which keeps the regression tests
    #: deterministic without a pool.
    supports_speculation: ClassVar[bool] = True

    #: The cap on partition-search attempts per heaviest-cell request:
    #: GoodCenter's batches double (1, 2, 4, ...) until they reach it, so a
    #: search hashes at most the accepted batch's tail past its answer.
    HEAVIEST_CELL_BATCH: ClassVar[int] = 8

    #: How many cells each shard returns per heaviest-cell attempt; the
    #: bounded merge settles the maximum from these lists or falls back to
    #: an exact recount of the candidate union (see
    #: :meth:`_heaviest_cell_merge`).  Bounds the
    #: parent's merge scratch at ``O(shards * top_k)`` instead of the total
    #: number of occupied boxes.  ``None`` disables the truncation (full
    #: per-shard histograms).
    HEAVIEST_CELL_TOP_K: ClassVar[Optional[int]] = 64

    def __init__(self, points, num_shards: Optional[int] = None,
                 num_workers: Optional[int] = None) -> None:
        super().__init__(points, num_shards=num_shards,
                         num_workers=num_workers)
        if num_workers is None:
            workers = min(_available_cpus(),
                          num_shards if num_shards else _available_cpus())
        else:
            workers = check_integer(num_workers, "num_workers", minimum=0)
        if num_shards is None:
            num_shards = max(workers, 1)
        num_shards = check_integer(num_shards, "num_shards", minimum=1)
        num_shards = min(num_shards, self.num_points)
        offsets = np.linspace(0, self.num_points, num_shards + 1).astype(int)
        self._bounds = [(int(offsets[i]), int(offsets[i + 1]))
                        for i in range(num_shards)]
        self._requested_workers = min(workers, num_shards)
        self._shards = _ShardSet(self._points, self._bounds)
        self._executors: Optional[List[ProcessPoolExecutor]] = None
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._pool_failed = False
        #: Monotonic fan-out instrumentation, exposed via :meth:`pool_stats`:
        #: ``fanouts`` counts collective operations (each is one round trip
        #: per shard), ``shard_tasks`` the per-shard tasks they dispatched,
        #: ``plans`` the query plans executed or submitted (direct view and
        #: count queries included: each is a one-query plan),
        #: ``stolen_tasks`` the tasks the work-stealing scheduler moved off
        #: their affinity slot.  The lock guards the steal counter, which is bumped from
        #: executor callback threads while overlapping batches are in flight.
        self._stats = {"fanouts": 0, "shard_tasks": 0, "plans": 0,
                       "stolen_tasks": 0}
        self._stats_lock = threading.Lock()
        #: The parent's half of the GoodRadius profile, per target:
        #: ``target -> (thresholds tau, prefix sums of t - s_j)``, ``O(t)``
        #: each (see :meth:`_threshold_profile`).
        self._threshold_cache = ProfileCache()

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """How many contiguous shards the dataset is split into."""
        return len(self._bounds)

    @property
    def shard_bounds(self) -> List[Tuple[int, int]]:
        """The ``[low, high)`` row range of every shard."""
        return list(self._bounds)

    @property
    def parallel(self) -> bool:
        """Whether queries run on a process pool (False = serial fallback)."""
        return self._requested_workers > 1 and not self._pool_failed

    def pool_stats(self) -> dict:
        """Fan-out instrumentation and per-worker cache occupancy.

        Returns a dict with the monotonic counters ``fanouts`` (collective
        operations — each is one round trip per shard), ``shard_tasks``
        (per-shard tasks those operations dispatched) and ``plans`` (query
        plans executed/submitted — every direct view or count query counts,
        since it runs as a one-query plan; the profile's fan-outs — two
        selection rounds per target not in the parent's cache, then one
        count round per radius batch — and the ``kth_distances`` and
        streaming-histogram fan-outs do not), plus the topology and a
        ``workers`` list: one :meth:`_ShardSet.cache_stats` entry per live
        worker slot (pool mode) or the parent shard set's entry (serial
        fallback), whose ``resident_blocks`` maps each shard to the width
        of the column-sorted truncated statistic it keeps.  With routing
        affinity each shard index appears in exactly one worker's
        ``built_shards`` — the property the affinity tests pin.

        Purely diagnostic: reading it never starts the pool, but in pool
        mode it does dispatch one stats task per live worker slot.
        """
        stats = dict(self._stats)
        stats["num_shards"] = self.num_shards
        stats["requested_workers"] = self._requested_workers
        stats["parallel"] = self._executors is not None
        stats["kernel_mode"] = _kernels.KERNEL_MODE
        stats["speculation"] = self.speculation_stats()
        if self._executors is not None:
            try:
                stats["workers"] = [
                    executor.submit(_worker_cache_stats).result()
                    for executor in self._executors
                ]
            except (BrokenProcessPool, OSError):  # pragma: no cover
                stats["workers"] = []
        else:
            stats["workers"] = [self._shards.cache_stats()]
        return stats

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_executors(self) -> Optional[List[ProcessPoolExecutor]]:
        """Start the worker slots + shared-memory block lazily.

        Returns a list of ``W`` single-process executors (``None`` =
        serial).  One executor per worker slot is what implements the
        shard→worker routing *affinity*: tasks for shard ``s`` always go to
        slot ``s mod W`` (see :class:`_PoolBatch`), so each shard's
        lazy index/image caches live in exactly one worker process, never
        duplicated across workers under mixed plan/point-query load.  With
        the default topology (shards == workers) every slot receives
        exactly one task per collective operation.
        """
        if self._requested_workers <= 1 or self._pool_failed:
            return None
        if self._executors is not None:
            return self._executors
        shm = None
        executors: List[ProcessPoolExecutor] = []
        try:
            data = np.ascontiguousarray(self._points)
            shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
            view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
            view[:] = data
            import multiprocessing

            # Prefer fork: workers inherit the imported library, so no module
            # re-import cost and no dependence on PYTHONPATH in the children.
            methods = multiprocessing.get_all_start_methods()
            context = get_context("fork" if "fork" in methods else None)
            for _ in range(self._requested_workers):
                executors.append(ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=context,
                    initializer=_init_worker,
                    initargs=(shm.name, data.shape, data.dtype.str,
                              self._bounds),
                ))
        except (OSError, ValueError, ImportError) as error:
            for executor in executors:  # pragma: no cover - partial start-up
                executor.shutdown(wait=False)
            if shm is not None:  # don't leak the segment on executor failure
                try:
                    shm.close()
                    shm.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
            self._pool_failed = True
            warnings.warn(
                f"ShardedBackend could not start its worker pool ({error}); "
                "falling back to the serial in-process path (results are "
                "identical, only slower)",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        self._shm = shm
        self._executors = executors
        return executors

    def _note_stolen(self) -> None:
        """Count one stolen task (called from executor callback threads)."""
        with self._stats_lock:
            self._stats["stolen_tasks"] += 1

    def _dispatch(self, tasks: Sequence[Tuple[int, tuple]]):
        """Send a batch of ``(shard, payload)`` tasks; return its handle.

        The one transport seam: plans, the bounded heaviest-cell merge's
        rounds, the shard waves and the node server's batches all leave
        through here, and the distributed backend overrides only this (and
        :meth:`_wave_size`).  The handle's ``done()`` / ``result()`` give
        the results in task order, so merges downstream are independent of
        which slot or node ran what.  Callers count the fan-out; the
        transport counts only its own recovery.
        """
        return _PoolBatch(self, tasks)

    def _wave_size(self) -> int:
        """Shards per wave of :meth:`_shard_waves`: one per worker slot."""
        return max(1, min(self._requested_workers, self.num_shards))

    def run_shard_tasks(self, tasks: Sequence) -> list:
        """Run a coordinator's batch of ``(shard, payload)`` tasks as one
        fan-out — the node server's entry, so every task's shape is checked
        here before anything reaches a shard.  Returns the results in task
        order."""
        checked = []
        for task in tasks:
            if not isinstance(task, (tuple, list)) or len(task) != 2:
                raise ValueError("a shard task must be a (shard, payload) "
                                 "pair")
            shard, payload = int(task[0]), task[1]
            if not 0 <= shard < self.num_shards:
                raise ValueError(
                    f"shard {shard} out of range [0, {self.num_shards})"
                )
            if not isinstance(payload, (tuple, list)) or len(payload) != 3:
                raise ValueError("a shard task payload must be a (views, "
                                 "selections, queries) triple")
            checked.append((shard, payload))
        self._stats["fanouts"] += 1
        self._stats["shard_tasks"] += len(checked)
        return self._dispatch(checked).result()

    def close(self) -> None:
        """Shut down the worker slots and release the shared-memory block.

        Safe to call repeatedly; also invoked on garbage collection.  After
        closing, the next query transparently restarts the pool.  Also drops
        the serial fallback's cached view images, memoised selections,
        resident statistics and per-target profile entries (in pool mode
        those caches live in the worker processes and die with them).  The
        parent's ``O(t)`` profile state stays, for every target its cache
        holds: every count task carries the thresholds, so the fresh
        workers rebuild their share from it and a cached target still
        costs one count fan-out.
        """
        executors, self._executors = self._executors, None
        if executors is not None:
            for executor in executors:
                executor.shutdown(wait=True)
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._shards.clear_caches()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Fan-out / merge
    # ------------------------------------------------------------------ #
    def _shard_waves(self, op: str, args: tuple):
        """Run the internal plan op ``op`` on every shard as one fan-out,
        yielding the per-shard results in shard order.

        Shards are dispatched in waves of :meth:`_wave_size` tasks, so the
        parent consumes (copies or sums) each wave's results before the
        next wave's arrive.
        """
        self._stats["fanouts"] += 1
        self._stats["shard_tasks"] += self.num_shards
        payload = ([], [], [(op, None, None, args)])
        wave = self._wave_size()
        for start in range(0, self.num_shards, wave):
            shards = range(start, min(start + wave, self.num_shards))
            for part in self._dispatch([(shard, payload)
                                        for shard in shards]).result():
                yield part[0]

    # ------------------------------------------------------------------ #
    # NeighborBackend protocol
    # ------------------------------------------------------------------ #
    def query_radius_counts(self, centers, radius: float) -> np.ndarray:
        """``B_r(c, S)`` per centre: the sum of per-shard counts (a
        one-radius :meth:`count_within_many`).

        Parameters
        ----------
        centers:
            ``(q, d)`` query centres.
        radius:
            The ball radius; negative radii give all-zero counts.

        Returns
        -------
        numpy.ndarray
            ``(q,)`` ``int64`` counts.
        """
        return self.count_within_many(centers, [float(radius)])[0]

    def count_within_many(self, centers, radii) -> np.ndarray:
        """The batched count grid as a one-query plan: one request per
        shard.

        See :meth:`NeighborBackend.count_within_many`; here all ``m`` radii
        travel to each shard in a single message and each shard computes its
        distance slabs once, so the fan-out cost is paid once per shard rather
        than once per ``(shard, radius)`` pair.
        """
        centers = check_points(centers, dimension=self.dimension,
                               name="centers")
        radii = _check_1d(radii, "radii")
        if radii.size == 0:
            return np.empty((0, centers.shape[0]), dtype=np.int64)
        plan = QueryPlan()
        plan.count_within_many(centers, radii)
        return self.execute(plan)[0]

    def depth_counts(self, thresholds) -> np.ndarray:
        """The one-sided rank counts as a one-query plan: each shard counts
        its own rows and the parent sums the integer pairs (see
        :meth:`NeighborBackend.depth_counts`).  The plan validates the
        thresholds when the query is appended, before anything fans out."""
        plan = QueryPlan()
        plan.depth_counts(thresholds)
        return self.execute(plan)[0]

    def _kth_squared(self, k: int) -> np.ndarray:
        """Column ``k - 1`` of the shards' row-sorted blocks, ``n``
        values, concatenated in shard order: each shard computes its rows'
        ``k``-th smallest squared distances for the call, without building
        its block, and keeps nothing (see :meth:`_ShardSet._build`)."""
        return np.concatenate(list(self._shard_waves("kth", (k,))))

    def _top_sums(self, keys: np.ndarray, target: int) -> np.ndarray:
        """The integer top-``t`` sums at ``keys`` by the column-threshold
        identity, with the statistic ``T`` left in the shards.

        Let ``tau_j`` be the ``t``-th smallest entry of column ``j`` of
        ``T`` and ``s_j`` the number of its entries below ``tau_j``; ``tau``
        is non-decreasing in ``j`` because every row of ``T`` is sorted.  A
        column with ``tau_j <= x`` contributes ``t`` to the sum at key
        ``x``, and a column with ``tau_j > x`` its entries ``<= x``, all of
        which are below ``tau_j``.  So the sum is

            sum_{j : tau_j <= x} (t - s_j)
                + #{(i, j) : T[i, j] < tau_j and T[i, j] <= x}.

        The parent keeps ``tau`` and the prefix sums of ``t - s_j``
        (:meth:`_threshold_profile`) and reads the first term with one
        binary search; the second is a sum over rows, so each shard
        answers it with one binary search over its sorted below-threshold
        entries — one fan-out of ``m`` integers per shard per batch.
        """
        thresholds, prefix = self._threshold_profile(target)
        total = prefix[np.searchsorted(thresholds, keys, side="right")]
        for part in self._shard_waves("profile_counts",
                                      (target, thresholds, keys)):
            total += part
        return total

    def _threshold_profile(self, target: int) -> Tuple[np.ndarray,
                                                       np.ndarray]:
        """``(tau, prefix sums of t - s_j)`` for ``target``.

        An exact two-round selection over the shards' resident
        statistics, which the first round leaves column-sorted
        (:meth:`_ShardSet.columns`): round 1 reads every
        ``ceil(sqrt(t))``-th order statistic of each shard's per-column
        ``t`` smallest (:func:`_brackets` turns them into bounds around
        each ``tau_j``), round 2 binary-searches each column for the
        shard's count below the bracket and returns it with the entries
        inside it (:func:`_thresholds`).  After a shard's build, both
        rounds touch only ``O(t^1.5)`` of its entries, and
        ``O(shards * t^1.5)`` values cross the transport, instead of the
        ``(n, t)`` statistic.

        Cached per target in a :class:`~repro.neighbors.base.ProfileCache`
        (least recently used evicted while the entries exceed the 64 MiB
        memory budget, the newest kept), so a return to a cached target
        skips both selection rounds: its next batch is one count fan-out.
        """
        cached = self._threshold_cache.get(target)
        if cached is None:
            lower, upper = _brackets(
                list(self._shard_waves("profile_samples", (target,))),
                [high - low for low, high in self._bounds], target,
            )
            cached = _thresholds(
                list(self._shard_waves("profile_bracket",
                                       (target, lower, upper))),
                target, upper,
            )
            self._threshold_cache.put(target, cached)
        return cached

    def _capped_count_histograms(self, keys: np.ndarray,
                                 cap: int) -> np.ndarray:
        """Streaming partials: each shard histograms its own query rows
        against the full (shared-memory) dataset; histograms add up.  Summed
        incrementally as shards complete, so the parent holds one
        ``(chunk, cap + 1)`` accumulator instead of all shards' partials —
        preserving the bounded-memory point of the streaming walk.
        """
        total = np.zeros((np.asarray(keys).shape[0], cap + 1), dtype=np.int64)
        for part in self._shard_waves("histograms",
                                      (np.asarray(keys, float), cap)):
            total += part
        return total

    # ------------------------------------------------------------------ #
    # Grid hashing (GoodCenter's partition search)
    # ------------------------------------------------------------------ #
    def view(self, matrix=None, offset=None) -> "ProjectedView":
        """A sharded :class:`~repro.neighbors.base.ProjectedView`.

        The ``(k, d)`` projection matrix travels with each shard task (it is
        tiny) and is applied shard-side over the shared-memory block — the
        parent never materialises the ``(n, k)`` image.  Workers cache each
        shard's image per view, so repeated queries (a partition search
        probing hundreds of shifted partitions) project each shard once.
        Results are bit-identical to the in-process view because the
        projection is row-decomposable and the grid hashes are shared single
        definitions (see :func:`repro.geometry.jl.project_rows`).
        """
        return _ShardedView(self, matrix=matrix, offset=offset)

    # ------------------------------------------------------------------ #
    # Query plans (one task per shard per plan)
    # ------------------------------------------------------------------ #
    def _check_global_rows(self, rows) -> np.ndarray:
        """Validate a global row-index array (mirrors the view-side check —
        no negative wrap-around, values in ``[0, n)``)."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size and (int(rows.min()) < 0
                          or int(rows.max()) >= self.num_points):
            raise ValueError("rows must lie in [0, n)")
        return rows

    def _selection_specs(self, selection) -> List[tuple]:
        """Per-shard wire specs of a masked-query selection.

        A :class:`~repro.neighbors.base.BoxSelection` ships as its *label
        predicate* — ``(selection token, selecting view's cache token /
        matrix / offset, width, shifts, label)``, identical for every shard;
        each worker re-derives its own membership from its cached image of
        the selecting view (memoising the rows under the selection token),
        so no ``O(n)`` mask or row list ever crosses the wire (or exists in
        the parent).  Row/mask selections are normalised to ascending global
        rows and sliced so each shard receives only its own (shard-local)
        segment.
        """
        if isinstance(selection, BoxSelection):
            view = selection.view
            if view.backend is not self:
                raise ValueError(
                    "the BoxSelection was built over a different backend's "
                    "view; selections only transfer between views of the "
                    "same backend"
                )
            token = view._token if isinstance(view, _ShardedView) else None
            spec = ("box", selection.token, token, view.matrix, view.offset,
                    float(selection.width), selection.shifts, selection.label)
            return [spec] * self.num_shards
        array = np.asarray(selection)
        if array.dtype == np.bool_:
            if array.shape != (self.num_points,):
                raise ValueError(
                    f"boolean selection must have shape ({self.num_points},),"
                    f" got {array.shape}"
                )
            rows = np.flatnonzero(array)
        else:
            rows = np.sort(self._check_global_rows(array))
        # The shards are contiguous: one search over their starts and n
        # cuts the ascending rows into every shard's segment.
        starts = [low for low, _ in self._bounds]
        cuts = np.searchsorted(rows, starts + [self.num_points]).tolist()
        return [("rows", rows[cuts[shard]:cuts[shard + 1]] - low)
                for shard, low in enumerate(starts)]

    def _view_wire(self, view: ProjectedView) -> tuple:
        """A view's ``(token, matrix, offset)`` wire triple."""
        if view.backend is not self:
            raise ValueError(
                "the plan queries a view of a different backend; build the "
                "plan against the backend that executes it"
            )
        token = view._token if isinstance(view, _ShardedView) else None
        return (token, view.matrix, view.offset)

    def _compile_plan(self, plan: QueryPlan) -> _CompiledPlan:
        """Compile a :class:`~repro.neighbors.base.QueryPlan` to wire form.

        Validation (view ownership, centre dimensions, row ranges) happens
        here, in the parent, so workers only ever see well-formed payloads.
        """
        views = plan.views
        views_wire = [self._view_wire(view) for view in views]
        selection_specs = [self._selection_specs(selection)
                           for selection in plan.selections]
        bundle: List[tuple] = []
        merges: List[tuple] = []
        for query in plan.queries:
            op, view_slot, args = query.op, query.view_slot, query.args
            extra = None
            if op == "count_within_many":
                centers, radii = args
                centers = check_points(centers, dimension=self.dimension,
                                       name="centers")
                args = (None if centers is self._points else centers, radii)
            elif op == "heaviest_cell_counts":
                top_k = (int(self.HEAVIEST_CELL_TOP_K)
                         if self.HEAVIEST_CELL_TOP_K else None)
                args = (*args, top_k)
                extra = (views_wire[view_slot], *args)
            elif op in MASKED_PLAN_OPS:
                # The merge needs the image dimension of the queried view.
                extra = views[view_slot].image_dimension
            merges.append((op, extra))
            bundle.append((op, view_slot, query.selection_slot, args))
        return _CompiledPlan(views_wire, selection_specs, bundle, merges)

    def _merge_plan(self, compiled: _CompiledPlan,
                    shard_parts: List[list]) -> list:
        """Fold per-shard plan partials into per-query results (shard order,
        deterministic)."""
        results: List[object] = []
        for index, (op, extra) in enumerate(compiled.merges):
            parts = [shard[index] for shard in shard_parts]
            if op in ("count_within_many", "depth_counts"):
                results.append(np.sum(parts, axis=0, dtype=np.int64))
            elif op == "masked_sum":
                results.append(_merge_column_sums(parts, extra))
            elif op == "masked_clipped_sum":
                results.append(ClippedSum(
                    count=int(sum(part[0] for part in parts)),
                    vector_sum=_merge_column_sums(parts, extra),
                ))
            elif op == "masked_axis_histograms":
                results.append(_merge_axis_histograms(parts, extra))
            elif op == "heaviest_cell_counts":
                # extra = (view wire triple, width, shifts, top_k)
                results.append(self._heaviest_cell_merge(*extra, parts))
            elif op == "cell_histogram":
                results.append(_merge_cell_histogram(parts, self._bounds,
                                                     self.num_points))
            else:  # pragma: no cover - _compile_plan covers every op
                raise ValueError(f"unknown plan operation {op!r}")
        return results

    def execute(self, plan: QueryPlan) -> list:
        """Run a :class:`~repro.neighbors.base.QueryPlan` in **one round
        trip per shard**: the whole bundle travels to each shard as a
        single ``(shard, payload)`` task, each shard derives every
        selection's membership and every view's image at most once, and the
        parent merges the partials in shard order — bitwise what the serial
        loop produces.  (The one exception is a plan carrying a
        ``heaviest_cell_counts`` query whose bounded top-``k`` merge round
        1 cannot certify: its recount and escalation rounds add fan-outs.)
        """
        return self.submit(plan).result()

    def submit(self, plan: QueryPlan) -> PlanFuture:
        """Dispatch a plan's per-shard tasks without waiting.

        The returned future's :meth:`~repro.neighbors.base.PlanFuture.result`
        merges in shard order, so overlapped plans resolve to bitwise the
        same values as sequential :meth:`execute` calls.  Without a pool the
        tasks ran at dispatch, and the plan is merged here too, so a caller
        submitting many plans holds one plan's shard partials at a time.
        """
        compiled = self._compile_plan(plan)
        self._stats["plans"] += 1
        if not compiled.bundle:
            # An empty plan: nothing to fan out, no node touched.
            return PlanFuture([])
        self._stats["fanouts"] += 1
        self._stats["shard_tasks"] += self.num_shards
        future = _ShardedPlanFuture(self, compiled, self._dispatch([
            (shard, compiled.shard_args(shard))
            for shard in range(self.num_shards)
        ]))
        if not self.parallel:
            future.result()
        return future

    def _view_round(self, view_wire: tuple, op: str, args: tuple) -> list:
        """One single-query fan-out over ``view_wire``, returning the
        per-shard partials in shard order.  The bounded heaviest-cell
        merge's recount and escalation rounds ride it; they are rounds of
        the plan being merged, so they count as fan-outs, not as plans."""
        self._stats["fanouts"] += 1
        self._stats["shard_tasks"] += self.num_shards
        payload = ([view_wire], [], [(op, 0, None, args)])
        parts = self._dispatch([(shard, payload)
                                for shard in range(self.num_shards)])
        return [part[0] for part in parts.result()]

    def _heaviest_cell_merge(self, view_wire: tuple, width: float,
                             shifts: np.ndarray, top_k: Optional[int],
                             parts: list) -> np.ndarray:
        """The bounded heaviest-cell merge of a plan's
        ``heaviest_cell_counts`` partials.

        Each shard returns only its ``top_k`` heaviest cells plus a cap (its
        ``top_k``-th largest count, bounding every truncated cell; 0 when it
        listed every cell), so the parent's scratch is ``O(shards * top_k)``
        per attempt instead of the total occupied-box count.  Round 1's
        lists usually settle an attempt on their own: the *round-1
        certificate* (:func:`_bounded_maximum`) proves the global maximum
        from the listed counts and the caps, with no further fan-out, and
        always succeeds when no shard truncated.  An attempt it cannot
        settle is made exact by *recounting*: the union of the shards'
        candidate cells is shipped back and every shard reports its exact
        occupancy of each candidate; a candidate max ``>= sum of caps``
        certifies that no truncated cell can beat it.  Either way the
        returned maxima (and hence AboveThreshold's query stream) are
        bitwise the full merge's; only the number of fan-outs differs.
        Attempts the recount cannot certify retry with ``top_k`` escalated
        4x (reaching the untruncated merge in the worst case) and go
        through the same two rules, so termination is unconditional.
        ``parts`` are round 1's partials, which arrived inside the plan's
        own task.
        """
        maxima = np.zeros(shifts.shape[0], dtype=np.int64)
        unresolved = np.arange(shifts.shape[0])
        while True:
            recount_slots = []
            candidates = []
            bounds = []
            for slot, attempt in enumerate(unresolved):
                unique, bound, best = _bounded_maximum(
                    [part[slot] for part in parts]
                )
                if best is not None:
                    maxima[attempt] = best
                    continue
                recount_slots.append(slot)
                candidates.append(unique)
                bounds.append(bound)
            still = []
            if recount_slots:
                slots = np.asarray(recount_slots)
                exact_parts = self._view_round(
                    view_wire, "count_labels",
                    (float(width), shifts[unresolved[slots]], candidates),
                )
                for position, slot in enumerate(recount_slots):
                    exact = np.sum([part[position] for part in exact_parts],
                                   axis=0, dtype=np.int64)
                    best = int(exact.max())
                    attempt = int(unresolved[slot])
                    if best >= bounds[position]:
                        maxima[attempt] = best
                    else:
                        still.append(attempt)
            if not still:
                return maxima
            unresolved = np.asarray(still, dtype=np.int64)
            top_k = (None if top_k is None or 4 * top_k >= self.num_points
                     else 4 * top_k)
            parts = self._view_round(
                view_wire, "heaviest_cell_counts",
                (float(width), shifts[unresolved], top_k),
            )


class _ShardedView(ProjectedView):
    """The sharded backend's :class:`ProjectedView`: every query is a
    one-query :class:`~repro.neighbors.base.QueryPlan`, so grid hashes and
    masked aggregates run shard-side (over worker processes when the pool
    is up) and their partials merge exactly in the parent."""

    def __init__(self, backend: ShardedBackend, matrix=None,
                 offset=None) -> None:
        super().__init__(backend, matrix=matrix, offset=offset)
        # Identity views read the shared-memory block directly — no cache to
        # key, so no token.
        self._token = (next(_VIEW_TOKENS)
                       if self._matrix is not None or self._offset is not None
                       else None)

    @property
    def batch_size(self) -> int:
        """The cap that GoodCenter's doubling search batches reach
        (:attr:`ShardedBackend.HEAVIEST_CELL_BATCH`): once a search has run
        long, each request amortises the per-shard fan-out over this many
        attempts."""
        return int(self._backend.HEAVIEST_CELL_BATCH)

    def _one_query(self, op: str, *args):
        plan = QueryPlan()
        getattr(plan, op)(self, *args)
        return self._backend.execute(plan)[0]

    def heaviest_cell_counts(self, width: float, shifts) -> np.ndarray:
        return self._one_query("heaviest_cell_counts", width, shifts)

    def cell_histogram(self, width: float, shifts):
        return self._one_query("cell_histogram", width, shifts)

    def masked_sum(self, selection) -> np.ndarray:
        return self._one_query("masked_sum", selection)

    def masked_clipped_sum(self, selection, center,
                           clip_radius: float) -> ClippedSum:
        return self._one_query("masked_clipped_sum", selection, center,
                               clip_radius)

    def masked_axis_histograms(self, selection, width: float,
                               offset: float = 0.0) -> list:
        return self._one_query("masked_axis_histograms", selection, width,
                               offset)


__all__ = ["ShardedBackend"]
