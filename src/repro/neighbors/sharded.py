"""Sharded backend: the dataset split across worker processes.

Radius-count queries are embarrassingly parallel in the *data*: for any centre
``c``, ``B_r(c, S) = sum over shards of B_r(c, S_shard)``, and each point's
``k`` smallest distances to ``S`` are the ``k`` smallest of the union of its
per-shard ``k`` smallest.  :class:`ShardedBackend` exploits this by splitting
the point set into contiguous shards, answering each shard's sub-query with an
ordinary single-process backend (dense / chunked / tree, chosen per shard by
``auto_backend`` unless pinned), and merging:

* **counts** — summed across shards (exact, integer addition);
* **truncated squared distances** — per-shard row-sorted statistics are
  merged (concatenate, select the global ``k`` smallest, sort), which is
  exact because every global ``k``-nearest value is a ``k``-nearest value of
  its own shard;
* **streaming histograms** — the large-target ``L(r, S)`` walk shards the
  *query rows* instead, and the per-range capped-count histograms add up.

Worker topology: the parent copies the ``(n, d)`` dataset into one
``multiprocessing.shared_memory`` block at pool start-up; workers attach in
their initialiser and build per-shard inner backends lazily (cached per
process), so a query ships only its small payload (a radius, a handful of
shifts, a centre block) — never the dataset.  Tasks are routed with
shard→worker *affinity* (shard ``s`` always lands on worker slot ``s mod
W``), so each shard's lazily built index, cached view images, and memoised
selection membership live in exactly one worker.

Workers run three task methods (:data:`SHARD_TASK_METHODS`).  Every view
query and every count query is a :class:`~repro.neighbors.base.QueryPlan`
— a direct call is a one-query plan — shipped as a *single*
``execute_plan`` task per shard (one round trip per shard for a whole
plan), optionally submitted asynchronously (``submit``), with the merge
always folding shards in shard order so overlapping plans cannot perturb a
single bit.  The truncated statistic (``truncated``) and the streaming
profile histograms (``histograms``) are wave-bounded fold fan-outs.  On a
single-CPU machine, when ``num_workers=0``, or when the pool cannot start
(sandboxes without ``/dev/shm``), the same shard/merge code runs serially
in-process — results are bit-identical either way, the pool is purely a
wall-clock lever.

Everything merged here is integer counts or exact squared distances, so the
sharded backend keeps the library-wide guarantee: identical counts and
``L(r, S)`` scores for every backend, regardless of shard count or worker
count.
"""

from __future__ import annotations

import itertools
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
    DEFAULT_MEMORY_BUDGET,
    capped_count_histograms,
    row_block_size,
    truncated_squared_cross,
)
from repro.neighbors.base import (
    MASKED_PLAN_OPS,
    BoxSelection,
    ClippedSum,
    NeighborBackend,
    PlanFuture,
    ProjectedView,
    QueryPlan,
    depth_count_pairs,
)
from repro import kernels as _kernels
from repro.utils.exactsum import (
    fixed_point_column_partials,
    fixed_point_to_float,
    merge_column_partials,
)
from repro.utils.validation import check_integer, check_points

#: Monotonic ids for projected views: workers cache each shard's projected
#: image keyed by the view's token, so a view's matrix is applied to a shard
#: at most once per worker process no matter how many queries it answers.
_VIEW_TOKENS = itertools.count(1)

#: Test seam: ``(method, shard, seconds)`` sleeps that long before running the
#: matching shard sub-query.  Consulted by :meth:`_ShardSet.run` in whichever
#: process executes the task (fork-inherited by pool workers started after it
#: is set), so tests can make exactly one shard artificially slow and pin the
#: work-stealing scheduler's behaviour without touching query code.
_TASK_DELAY: Optional[Tuple[str, int, float]] = None

#: Every shard sub-query a task may name: the remote node server dispatches
#: coordinator-supplied method names, so it validates them against this
#: allowlist (a registry, not ``getattr`` over an open class surface).
SHARD_TASK_METHODS = frozenset({"execute_plan", "truncated", "histograms"})


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

    def __init__(self, points: np.ndarray, bounds: Sequence[Tuple[int, int]],
                 inner_backend: str) -> None:
        self.points = points
        self.bounds = list(bounds)
        self.inner_backend = inner_backend
        self._backends = {}
        #: Per-shard cached projected images: ``shard -> {view token: image}``
        #: with the oldest entry evicted beyond
        #: :data:`VIEW_IMAGE_CACHE_PER_SHARD`, so a long-lived worker holds a
        #: bounded number of ``(shard n, k)`` images per shard it serves.
        #: Two entries cover GoodCenter's working set (the partition-search
        #: view the selection predicate is re-derived against plus the
        #: rotated-frame view) — the old single-entry cache thrashed between
        #: them on every masked query.
        self._view_images = {}
        #: Per-shard memoised selection membership: ``shard -> (selection
        #: token, ascending shard-local rows)``.  One entry per shard (the
        #: latest selection wins): the masked queries of one ``good_center``
        #: call — and of one query plan — all reference a single selection,
        #: so each worker derives its shard's membership exactly once.
        self._selection_rows = {}

    def backend(self, shard: int) -> NeighborBackend:
        """The inner backend indexing shard ``shard`` (built on first use).

        Caches are per process.  Since shard→worker routing affinity (tasks
        for shard ``s`` always land on worker ``s mod W``), each shard's
        index is built in exactly one worker under pool mode, so this lazy
        build runs once per shard pool-wide — the old any-idle-worker routing
        could duplicate it once per (shard, worker) pair under mixed
        plan/point-query load.
        """
        if shard not in self._backends:
            from repro.neighbors import (
                BACKENDS,
                HAVE_SCIPY_TREE,
                TREE_MAX_DIMENSION,
                auto_backend,
            )

            low, high = self.bounds[shard]
            shard_points = self.points[low:high]
            name = self.inner_backend
            if name == "auto":
                name = auto_backend(high - low, shard_points.shape[1])
            if name in (ShardedBackend.name, "distributed"):
                # Never recurse into sharding (or back out over the wire);
                # fall through to the remaining single-process heuristics
                # for a shard this large.
                d = shard_points.shape[1]
                name = ("tree" if d <= TREE_MAX_DIMENSION and HAVE_SCIPY_TREE
                        else "chunked")
            self._backends[shard] = BACKENDS[name](shard_points)
        return self._backends[shard]

    def run(self, method: str, shard: int, args: tuple):
        """Dispatch one shard sub-query (the single entry point shared by
        the serial path, the pool workers, and the remote node servers —
        which is where the :data:`SHARD_TASK_METHODS` allowlist and the
        :data:`_TASK_DELAY` test seam apply uniformly)."""
        if method not in SHARD_TASK_METHODS:
            raise ValueError(f"unknown shard task method {method!r}")
        delay = _TASK_DELAY
        if (delay is not None and delay[0] == method
                and int(delay[1]) == int(shard)):
            time.sleep(float(delay[2]))
        return getattr(self, method)(shard, *args)

    def truncated(self, shard: int, k: int) -> np.ndarray:
        """Every dataset point's ``min(k, shard size)`` smallest squared
        distances to this shard's points, row-sorted.

        When the shard's inner backend is (or would be) a scipy KD-tree,
        the cross-query runs through it —
        :meth:`~repro.neighbors.tree.TreeBackend.truncated_squared_cross`
        selects neighbour indices in ``O(n k log shard)`` and recomputes the
        squared values through the shared gather kernel, so the statistic is
        bitwise the blocked brute force's (the property the truncated-parity
        suite pins) at a fraction of the distance evaluations.
        """
        low, high = self.bounds[shard]
        shard_points = self.points[low:high]
        if self._truncated_via_tree(shard):
            from repro.neighbors.tree import TreeBackend

            backend = self.backend(shard)
            if isinstance(backend, TreeBackend) and backend.uses_scipy:
                return backend.truncated_squared_cross(
                    self.points, min(int(k), high - low)
                )
        block = row_block_size(high - low, self.points.shape[1])
        return truncated_squared_cross(self.points, shard_points, k, block)

    def _truncated_via_tree(self, shard: int) -> bool:
        """Whether this shard's truncated statistic should go through a
        scipy tree: yes when the shard's inner backend is already a scipy
        tree, or when the (unbuilt) inner choice would be ``"tree"`` — the
        one case building the index just for this query pays, because the
        built backend is the same one later point queries reuse."""
        from repro.neighbors import HAVE_SCIPY_TREE, auto_backend
        from repro.neighbors.tree import TreeBackend

        if not HAVE_SCIPY_TREE:
            return False
        backend = self._backends.get(shard)
        if backend is not None:
            return isinstance(backend, TreeBackend) and backend.uses_scipy
        low, high = self.bounds[shard]
        name = self.inner_backend
        if name == "auto":
            name = auto_backend(high - low, self.points.shape[1])
        return name == "tree"

    def histograms(self, shard: int, keys: np.ndarray,
                   cap: int) -> np.ndarray:
        """Capped-count histograms over this shard's *query rows*, counted
        against the full dataset (the streaming ``L(r, S)`` partial)."""
        low, high = self.bounds[shard]
        block = row_block_size(self.points.shape[0], self.points.shape[1])
        return capped_count_histograms(self.points[low:high], self.points,
                                       keys, cap, block)

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

    def clear_view_images(self) -> None:
        """Drop every cached per-shard view image and memoised selection
        membership (see :meth:`ShardedBackend.close`)."""
        self._view_images.clear()
        self._selection_rows.clear()

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
            "pid": os.getpid(),
        }

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

        ``views`` is the plan's view table as ``(token, matrix, offset)``
        wire triples, ``selections`` its selection table in the per-shard
        spec form of :meth:`_selection_rows_local`, and ``queries`` the
        ordered ``(op, view_slot, selection_slot, args)`` bundle.  Each
        query yields this shard's mergeable partial (see :meth:`_partial`);
        the whole bundle costs *one* task dispatch, each selection's
        membership is derived at most once, and each view's image is
        projected at most once (the token-keyed image cache).
        """
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
        slice.  ``count_labels`` is internal: the exact-recount round of
        the bounded heaviest-cell merge, never a plan method.
        """
        from repro.geometry.balls import ball_membership
        from repro.geometry.boxes import box_labels, interval_labels

        if op == "count_within_many":
            centers, radii = args
            # ``None`` is the wire encoding for "the full dataset" (which
            # workers already hold in shared memory, so it is never pickled).
            return self.backend(shard).count_within_many(
                self.points if centers is None else centers, radii
            )
        if op == "depth_counts":
            low, high = self.bounds[shard]
            return depth_count_pairs(self.points[low:high, 0], *args)
        image = self.view_image(shard, *view, rows=rows)
        if op == "heaviest_cell_counts":
            # Per attempt: the shard's top_k heaviest labels with their
            # counts, plus a cap (the top_k-th largest count, an upper bound
            # on every cell the truncation dropped; 0 when nothing was).
            width, shifts, top_k = args
            results = []
            for shift in shifts:
                unique, counts = np.unique(box_labels(image, shift, width),
                                           axis=0, return_counts=True)
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
                unique, counts = np.unique(box_labels(image, shift, width),
                                           axis=0, return_counts=True)
                combined = np.concatenate([unique, queries], axis=0)
                _, inverse = np.unique(combined, axis=0, return_inverse=True)
                inverse = np.reshape(inverse, -1)
                table = np.zeros(int(inverse.max()) + 1, dtype=np.int64)
                table[inverse[:unique.shape[0]]] = counts
                results.append(table[inverse[unique.shape[0]:]])
            return results
        if op == "cell_histogram":
            # (labels, counts, first local row): the first rows let the
            # parent restore global first-occurrence cell order.
            width, shifts = args
            unique, first, counts = np.unique(
                box_labels(image, shifts, width), axis=0, return_index=True,
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
        if op == "masked_axis_histograms":
            # (local selected count, per-axis (labels, counts, first local
            # position)); the parent offsets the positions by the preceding
            # shards' selected counts to restore global first-occurrence
            # order.
            width, axis_offset = args
            labels = interval_labels(image, width, axis_offset)
            per_axis = []
            for axis in range(labels.shape[1]):
                unique, first, counts = np.unique(labels[:, axis],
                                                  return_index=True,
                                                  return_counts=True)
                per_axis.append((unique, counts, first))
            return int(rows.shape[0]), per_axis
        raise ValueError(f"unknown plan operation {op!r}")


# --------------------------------------------------------------------------- #
# Worker-process plumbing
# --------------------------------------------------------------------------- #

#: The worker's shard set, installed by :func:`_init_worker`.
_WORKER_SHARDS: Optional[_ShardSet] = None
_WORKER_SHM: Optional[shared_memory.SharedMemory] = None


def _init_worker(shm_name: str, shape: Tuple[int, int], dtype_str: str,
                 bounds: Sequence[Tuple[int, int]],
                 inner_backend: str) -> None:
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
    _WORKER_SHARDS = _ShardSet(points, bounds, inner_backend)


def _run_shard_task(method: str, shard: int, args: tuple):
    """Dispatch one shard sub-query inside a worker process."""
    return _WORKER_SHARDS.run(method, shard, args)


def _worker_cache_stats() -> dict:
    """Report this worker's cache/index occupancy (for ``pool_stats``)."""
    return _WORKER_SHARDS.cache_stats()


class _StealingBatch:
    """Parent-side work-stealing scheduler for one batch of shard tasks.

    With the default topology (shards == worker slots) every slot receives
    exactly one task and this degenerates to the plain affinity dispatch.
    When shards outnumber workers, eager per-slot submission would make the
    batch's wall clock the *slowest slot's queue*, not the slowest task: one
    slow shard serialises every other shard that hashes to its slot.  So
    tasks are queued parent-side (per affinity slot, in task order) and
    submitted one at a time; a slot that drains its own queue *steals* from
    the tail of the longest remaining queue (deterministic victim: longest
    queue, smallest slot on ties).  Stealing moves only the *computation* —
    a stolen task's shard index travels with it, the worker builds the
    shard's index on demand, and results resolve into per-task proxy
    futures, so callers still consume them in task order and every merge
    stays bitwise identical to the serial path.  The steal count is
    surfaced via ``pool_stats()["stolen_tasks"]``.
    """

    __slots__ = ("_backend", "_executors", "_tasks", "_lock", "_queues",
                 "proxies")

    def __init__(self, backend: "ShardedBackend",
                 executors: List[ProcessPoolExecutor],
                 tasks: Sequence[tuple]) -> None:
        self._backend = backend
        self._executors = executors
        self._tasks = list(tasks)
        self._lock = threading.Lock()
        self.proxies: List[Future] = [Future() for _ in self._tasks]
        slots = len(executors)
        self._queues = [deque() for _ in range(slots)]
        for index, (_, shard, _) in enumerate(self._tasks):
            self._queues[shard % slots].append(index)
        for slot in range(slots):
            self._start_next(slot)

    def _pick(self, slot: int):
        """The next task index for ``slot`` (own queue first, else steal).

        Caller holds the lock: the queues are shared across the executor
        manager threads that run the completion hooks.
        """
        queue = self._queues[slot]
        if queue:
            return queue.popleft(), False
        if not self._backend.WORK_STEALING:
            return None, False
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
            if index is None:
                return
            method, shard, args = self._tasks[index]
            proxy = self.proxies[index]
            try:
                future = self._executors[slot].submit(
                    _run_shard_task, method, shard, args
                )
            except BaseException as error:  # pool shut down mid-batch
                proxy.set_exception(error)
                continue
            if stolen:
                self._backend._note_stolen()
            future.add_done_callback(
                lambda f, s=slot, p=proxy: self._finish(s, p, f)
            )
            return

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
    totals = merge_column_partials(image_dimension,
                                   [part[1] for part in parts])
    return np.asarray([fixed_point_to_float(total) for total in totals],
                      dtype=float)


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
    all_labels = np.concatenate([part[0] for part in parts], axis=0)
    all_counts = np.concatenate([part[1] for part in parts])
    all_firsts = np.concatenate([
        part[2] + low for part, (low, _) in zip(parts, bounds)
    ])
    unique, group = np.unique(all_labels, axis=0, return_inverse=True)
    group = np.reshape(group, -1)      # global group of each shard-unique
    counts = np.bincount(group, weights=all_counts,
                         minlength=unique.shape[0]).astype(np.int64)
    first = np.full(unique.shape[0], num_points, dtype=np.int64)
    np.minimum.at(first, group, all_firsts)
    order = np.argsort(first, kind="stable")
    return unique[order], counts[order]


class _CompiledPlan:
    """The wire form of one :class:`~repro.neighbors.base.QueryPlan`.

    ``views_wire`` is the plan's view table as ``(token, matrix, offset)``
    triples; ``selection_specs[j][s]`` shard ``s``'s spec for selection
    ``j``; ``bundle`` the ordered shard-side queries (``args`` is either a
    tuple shared by every shard or a per-shard list); ``merges`` one entry
    per *plan* query — ``(op, bundle_index, extra)``, with ``bundle_index``
    ``None`` for coordinator operations evaluated parent-side.
    """

    __slots__ = ("views_wire", "selection_specs", "bundle", "merges")

    def __init__(self, views_wire, selection_specs, bundle, merges) -> None:
        self.views_wire = views_wire
        self.selection_specs = selection_specs
        self.bundle = bundle
        self.merges = merges

    def shard_args(self, shard: int) -> tuple:
        """The ``execute_plan`` payload for one shard."""
        selections = [specs[shard] for specs in self.selection_specs]
        queries = [
            (op, view_slot, sel_slot,
             args if isinstance(args, tuple) else args[shard])
            for op, view_slot, sel_slot, args in self.bundle
        ]
        return (self.views_wire, selections, queries)


class _ShardedPlanFuture(PlanFuture):
    """An in-flight plan: one dispatched task per shard.

    :meth:`result` collects the per-shard futures **in shard order** and
    folds them through the deterministic merges, so the values — and the
    releases derived from them — are independent of worker scheduling and of
    how many plans are overlapped.  A broken pool degrades to the serial
    path (recomputing the whole plan in-process), matching the point-query
    fallback semantics.
    """

    def __init__(self, backend: "ShardedBackend", compiled: _CompiledPlan,
                 futures: list) -> None:
        self._backend = backend
        self._compiled = compiled
        self._futures = futures
        self._resolved: Optional[list] = None

    def done(self) -> bool:
        """Whether every shard task has finished (merging still happens on
        the first :meth:`result` call)."""
        return (self._resolved is not None
                or all(future.done() for future in self._futures))

    def result(self) -> list:
        """Block for the per-shard tasks, merge in shard order, and return
        the per-query results (memoised across calls)."""
        if self._resolved is None:
            try:
                shard_parts = [future.result() for future in self._futures]
            except (BrokenProcessPool, OSError) as error:  # pragma: no cover
                backend = self._backend
                backend._pool_failed = True
                backend.close()
                warnings.warn(
                    f"ShardedBackend worker pool died ({error}); recomputing "
                    "the submitted plan on the serial in-process path",
                    RuntimeWarning,
                    stacklevel=2,
                )
                shard_parts = [
                    backend._shards.execute_plan(
                        shard, *self._compiled.shard_args(shard)
                    )
                    for shard in range(backend.num_shards)
                ]
            self._resolved = self._backend._merge_plan(self._compiled,
                                                       shard_parts)
            self._futures = []
        return self._resolved


class ShardedBackend(NeighborBackend):
    """Dataset sharded across processes; per-shard answers merged exactly.

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
    inner_backend:
        The single-process strategy each shard answers with: a registry name
        or ``"auto"`` (default; per-shard size-based choice, never recursing
        into ``"sharded"``).
    """

    name = "sharded"

    #: Plans submitted here run genuinely in flight (pool mode), so
    #: GoodCenter's noise-gate predictor speculates through this strategy;
    #: the serial fallback still opts in — the speculative plan is the same
    #: shard/merge work either way, which keeps the regression tests
    #: deterministic without a pool.
    supports_speculation: ClassVar[bool] = True

    #: Partition-search attempts batched per heaviest-cell request.
    HEAVIEST_CELL_BATCH: ClassVar[int] = 8

    #: How many cells each shard returns per heaviest-cell attempt before
    #: the bounded merge falls back to an exact recount of the candidate
    #: union (see :meth:`_heaviest_cell_merge`).  Bounds the
    #: parent's merge scratch at ``O(shards * top_k)`` instead of the total
    #: number of occupied boxes.  ``None`` disables the truncation (full
    #: per-shard histograms, the pre-bounded behaviour).
    HEAVIEST_CELL_TOP_K: ClassVar[Optional[int]] = 64

    #: Whether a worker slot that drains its own affinity queue may steal
    #: queued tasks from other slots (see :class:`_StealingBatch`).  A pure
    #: wall-clock lever: results are merged in task order either way, so
    #: released values are bitwise identical with stealing on or off.
    WORK_STEALING: ClassVar[bool] = True

    def __init__(self, points, num_shards: Optional[int] = None,
                 num_workers: Optional[int] = None,
                 inner_backend: str = "auto") -> None:
        super().__init__(points)
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
        self._inner_backend = str(inner_backend)
        self._requested_workers = min(workers, num_shards)
        self._shards = _ShardSet(self._points, self._bounds,
                                 self._inner_backend)
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
        since it runs as a one-query plan; the truncated-statistic and
        streaming-histogram fan-outs do not), plus the topology and a
        ``workers`` list:
        one :meth:`_ShardSet.cache_stats` entry per live worker slot (pool
        mode) or the parent shard set's entry (serial fallback).  With
        routing affinity each shard index appears in exactly one worker's
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
        slot ``s mod W`` (see :meth:`_submit_shard_task`), so each shard's
        lazy index/image caches live in exactly one worker process —
        the single shared pool they replace let any idle worker grab any
        shard, duplicating per-shard indexes across workers under mixed
        plan/point-query load.  With the default topology (shards ==
        workers) per-fan-out parallelism is unchanged: every slot still
        receives exactly one task per collective operation.
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
                              self._bounds, self._inner_backend),
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

    def _submit_shard_task(self, executors: List[ProcessPoolExecutor],
                           method: str, shard: int, args: tuple):
        """Submit one shard sub-query to the shard's affinity slot."""
        return executors[shard % len(executors)].submit(
            _run_shard_task, method, shard, args
        )

    def _note_stolen(self) -> None:
        """Count one stolen task (called from executor callback threads)."""
        with self._stats_lock:
            self._stats["stolen_tasks"] += 1

    def _schedule_shard_tasks(self, executors: List[ProcessPoolExecutor],
                              tasks: Sequence[tuple]) -> List[Future]:
        """Dispatch a batch of ``(method, shard, args)`` tasks through the
        work-stealing scheduler; returns one proxy future per task, in task
        order."""
        return _StealingBatch(self, executors, tasks).proxies

    def _normalize_tasks(self, tasks: Sequence[tuple]) -> list:
        """Validate + normalise a batch of ``(method, shard, args)`` tasks.

        The dispatch seam shared by every transport: the local pool, the
        node server (which forwards a coordinator's batch verbatim), and
        the distributed coordinator all funnel their batches through this
        one method-allowlist / shard-range check, so a malformed task is
        rejected identically no matter which layer dispatches it.
        """
        tasks = [(str(method), int(shard), tuple(args))
                 for method, shard, args in tasks]
        for method, shard, _ in tasks:
            if method not in SHARD_TASK_METHODS:
                raise ValueError(f"unknown shard task method {method!r}")
            if not 0 <= shard < self.num_shards:
                raise ValueError(
                    f"shard {shard} out of range [0, {self.num_shards})"
                )
        return tasks

    def run_shard_tasks(self, tasks: Sequence[tuple]) -> list:
        """Run a batch of ``(method, shard, args)`` shard sub-queries.

        The batch entry point shared by the local fan-outs and the remote
        node server (which forwards a coordinator's task batch here
        verbatim): validates every method against
        :data:`SHARD_TASK_METHODS`, runs the batch on the worker pool
        through the work-stealing scheduler (serially in-process without
        one), and returns results in task order — so merges downstream are
        independent of which slot ran what.
        """
        tasks = self._normalize_tasks(tasks)
        self._stats["fanouts"] += 1
        self._stats["shard_tasks"] += len(tasks)
        executors = self._ensure_executors()
        if executors is None:
            return [self._shards.run(method, shard, args)
                    for method, shard, args in tasks]
        proxies = self._schedule_shard_tasks(executors, tasks)
        try:
            return [proxy.result() for proxy in proxies]
        except (BrokenProcessPool, OSError) as error:  # pragma: no cover
            self._pool_failed = True
            self.close()
            warnings.warn(
                f"ShardedBackend worker pool died ({error}); retrying on the "
                "serial in-process path",
                RuntimeWarning,
                stacklevel=3,
            )
            return [self._shards.run(method, shard, args)
                    for method, shard, args in tasks]

    def close(self) -> None:
        """Shut down the worker slots and release the shared-memory block.

        Safe to call repeatedly; also invoked on garbage collection.  After
        closing, the next query transparently restarts the pool.  Also drops
        the serial fallback's cached view images and memoised selections (in
        pool mode those caches live in the worker processes and die with
        them).
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
        self._shards.clear_view_images()

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Fan-out / merge
    # ------------------------------------------------------------------ #
    def _iter_shards(self, method: str, args: tuple, wave: int = None):
        """Run ``method(shard, *args)`` for every shard, yielding results one
        shard at a time, in shard order.

        Submission is bounded to waves of ``wave`` outstanding tasks
        (default: the worker count), so per-shard results whose merge is a
        fold (the truncated statistic) never all sit in parent memory at
        once — callers pick the wave from the per-result size, trading pool
        utilisation for a hard buffer bound.
        """
        self._stats["fanouts"] += 1
        self._stats["shard_tasks"] += self.num_shards
        executors = self._ensure_executors()
        if executors is None:
            for shard in range(self.num_shards):
                yield self._shards.run(method, shard, args)
            return
        if wave is None:
            wave = self._requested_workers
        wave = max(1, min(wave, self.num_shards))
        delivered = 0
        try:
            for start in range(0, self.num_shards, wave):
                futures = [
                    self._submit_shard_task(executors, method, shard, args)
                    for shard in range(start, min(start + wave,
                                                  self.num_shards))
                ]
                for future in futures:
                    result = future.result()
                    delivered += 1
                    yield result
        except (BrokenProcessPool, OSError) as error:  # pragma: no cover
            self._pool_failed = True
            self.close()
            warnings.warn(
                f"ShardedBackend worker pool died ({error}); finishing the "
                "query on the serial in-process path",
                RuntimeWarning,
                stacklevel=3,
            )
            # Results are yielded in shard order, so resume after the last
            # delivered shard (re-yielding one would corrupt fold merges).
            for shard in range(delivered, self.num_shards):
                yield self._shards.run(method, shard, args)

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
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if radii.size == 0:
            return np.empty((0, centers.shape[0]), dtype=np.int64)
        plan = QueryPlan()
        plan.count_within_many(centers, radii)
        return self.execute(plan)[0]

    def _compute_truncated_squared(self, k: int) -> np.ndarray:
        """Merge-walk of the per-shard truncated statistics.

        Each shard returns every point's ``min(k, shard size)`` smallest
        squared distances to the shard; the union of those per-shard values is
        a superset of the global ``k`` smallest, so keeping the ``k`` smallest
        while folding the shards in one at a time is exact.  The incremental
        fold bounds the scratch at ``(n, 2k)`` — concatenating all shards
        first would transiently cost up to ``(n, shards * k)``, which at the
        sizes where sharding is auto-selected is the dense matrix again —
        and the submission wave is sized so the undrained ``(n, k)`` results
        buffered in completed futures stay within a few memory budgets,
        trading pool utilisation for a hard bound when ``n * k`` is large.
        """
        k = min(k, self.num_points)
        result_bytes = max(1, 8 * self.num_points * k)
        wave = int(max(1, (4 * DEFAULT_MEMORY_BUDGET) // result_bytes))
        merged = None
        for part in self._iter_shards("truncated", (k,), wave=wave):
            if merged is None:
                merged = part
                continue
            combined = np.concatenate([merged, part], axis=1)
            if combined.shape[1] > k:
                combined = np.partition(combined, k - 1, axis=1)[:, :k]
            merged = combined
        merged = np.ascontiguousarray(merged[:, :k])
        merged.sort(axis=1)
        return merged

    def _capped_count_histograms(self, keys: np.ndarray,
                                 cap: int) -> np.ndarray:
        """Streaming partials: each shard histograms its own query rows
        against the full (shared-memory) dataset; histograms add up.  Summed
        incrementally as shards complete, so the parent holds one
        ``(chunk, cap + 1)`` accumulator instead of all shards' partials —
        preserving the bounded-memory point of the streaming walk.
        """
        total = np.zeros((np.asarray(keys).shape[0], cap + 1), dtype=np.int64)
        for part in self._iter_shards("histograms",
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
            rows = np.sort(self._check_global_rows(array), kind="stable")
        specs = []
        for low, high in self._bounds:
            lo = np.searchsorted(rows, low, side="left")
            hi = np.searchsorted(rows, high, side="left")
            specs.append(("rows", rows[lo:hi] - low))
        return specs

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
            if op == "capped_average_scores":
                merges.append((op, None, args))
                continue
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
            merges.append((op, len(bundle), extra))
            bundle.append((op, view_slot, query.selection_slot, args))
        return _CompiledPlan(views_wire, selection_specs, bundle, merges)

    def _merge_plan(self, compiled: _CompiledPlan,
                    shard_parts: List[list]) -> list:
        """Fold per-shard plan partials into per-query results (shard order,
        deterministic) and evaluate the coordinator operations."""
        results: List[object] = []
        for op, bundle_index, extra in compiled.merges:
            if op == "capped_average_scores":
                radii, target, streaming = extra
                results.append(self.capped_average_scores(
                    radii, target, streaming=streaming
                ))
                continue
            parts = [shard[bundle_index] for shard in shard_parts]
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
        single ``execute_plan`` task, each shard derives every selection's
        membership and every view's image at most once, and the parent
        merges the partials in shard order — bitwise what the serial loop
        produces.  (The one exception is a plan carrying a
        ``heaviest_cell_counts`` query whose bounded top-``k`` merge fails
        to certify: its recount and escalation rounds add fan-outs.)
        """
        return self.submit(plan).result()

    def submit(self, plan: QueryPlan) -> PlanFuture:
        """Dispatch a plan's per-shard tasks without waiting.

        The returned future's :meth:`~repro.neighbors.base.PlanFuture.result`
        merges in shard order, so overlapped plans resolve to bitwise the
        same values as sequential :meth:`execute` calls.  On the serial
        fallback the plan is evaluated eagerly (same shard/merge code, no
        transport) and a completed future is returned.
        """
        compiled = self._compile_plan(plan)
        self._stats["plans"] += 1
        if not compiled.bundle:
            # Coordinator-only plan: nothing to fan out.
            return PlanFuture(self._merge_plan(compiled, []))
        self._stats["fanouts"] += 1
        self._stats["shard_tasks"] += self.num_shards
        executors = self._ensure_executors()
        if executors is None:
            shard_parts = [
                self._shards.execute_plan(shard, *compiled.shard_args(shard))
                for shard in range(self.num_shards)
            ]
            return PlanFuture(self._merge_plan(compiled, shard_parts))
        try:
            futures = self._schedule_shard_tasks(executors, [
                ("execute_plan", shard, compiled.shard_args(shard))
                for shard in range(self.num_shards)
            ])
        except (BrokenProcessPool, OSError) as error:  # pragma: no cover
            self._pool_failed = True
            self.close()
            warnings.warn(
                f"ShardedBackend worker pool died ({error}); running the "
                "plan on the serial in-process path",
                RuntimeWarning,
                stacklevel=2,
            )
            shard_parts = [
                self._shards.execute_plan(shard, *compiled.shard_args(shard))
                for shard in range(self.num_shards)
            ]
            return PlanFuture(self._merge_plan(compiled, shard_parts))
        return _ShardedPlanFuture(self, compiled, futures)

    def _view_round(self, view_wire: tuple, op: str, args: tuple) -> list:
        """One single-query ``execute_plan`` fan-out over ``view_wire``,
        returning the per-shard partials in shard order.  The bounded
        heaviest-cell merge's recount and escalation rounds ride it; they
        are rounds of the plan being merged, so they count as fan-outs, not
        as plans."""
        payload = ([view_wire], [], [(op, 0, None, args)])
        parts = self.run_shard_tasks([("execute_plan", shard, payload)
                                      for shard in range(self.num_shards)])
        return [part[0] for part in parts]

    def _heaviest_cell_merge(self, view_wire: tuple, width: float,
                             shifts: np.ndarray, top_k: Optional[int],
                             parts: list) -> np.ndarray:
        """The bounded heaviest-cell merge of a plan's
        ``heaviest_cell_counts`` partials.

        Each shard returns only its ``top_k`` heaviest cells plus a cap (its
        ``top_k``-th largest count, bounding every truncated cell), so the
        parent's scratch is ``O(shards * top_k)`` per attempt instead of the
        total occupied-box count.  The merge is then made exact again by
        *recounting*: the union of the shards' candidate cells is shipped
        back and every shard reports its exact occupancy of each candidate,
        giving exact global counts for all candidates.  A candidate max
        ``>= sum of caps`` certifies that no truncated cell can beat it —
        the returned maxima (and hence AboveThreshold's query stream) are
        bitwise the full merge's.  Uncertified attempts retry with ``top_k``
        escalated 4x (reaching the untruncated merge in the worst case), so
        termination is unconditional.  ``parts`` are round 1's partials,
        which arrived inside the plan's own task.
        """
        maxima = np.zeros(shifts.shape[0], dtype=np.int64)
        unresolved = np.arange(shifts.shape[0])
        while True:
            recount_slots = []
            candidates = []
            bounds = []
            for slot, attempt in enumerate(unresolved):
                caps = [int(part[slot][2]) for part in parts]
                bound = sum(caps)
                labels = np.concatenate([part[slot][0] for part in parts],
                                        axis=0)
                if bound == 0:
                    # No shard truncated: the per-shard counts are complete
                    # and the summed merge is already exact.
                    counts = np.concatenate([part[slot][1] for part in parts])
                    _, inverse = np.unique(labels, axis=0,
                                           return_inverse=True)
                    merged = np.bincount(np.reshape(inverse, -1),
                                         weights=counts)
                    maxima[attempt] = int(merged.max())
                    continue
                recount_slots.append(slot)
                candidates.append(np.unique(labels, axis=0))
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
        """Partition-search attempts batched per request (amortises the
        per-shard fan-out)."""
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
