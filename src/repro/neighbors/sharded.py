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
W``), so each shard's lazily built index, cached view images, memoised
selection (its rows and their images) and latest cell tables live in
exactly one worker.

Every plan — view, count and depth queries included, a direct call being
a one-query plan — runs through the plan engine of
:mod:`repro.neighbors._engine`, which is shared with every backend: this
module supplies the topology (several shards) and the transport, and keeps
the GoodRadius profile rounds.  A task is a ``(shard, payload)`` pair whose
payload is a compiled plan bundle, run by
:meth:`_ProfileShardSet.execute_plan`: one task per shard for a whole plan,
optionally submitted asynchronously (``submit``), merged in shard order so
overlapping plans cannot perturb a single bit.  The profile's selection and
count rounds, the ``kth_distances`` column read and the streaming profile
histograms are internal ops of the same bundle form; each carries what its
shard needs to rebuild its state, so a restarted pool, a stolen task or an
adopting node answers it bitwise alike.  Every batch leaves through one
transport seam, :meth:`ShardedBackend._dispatch`; the distributed backend
overrides only that seam.  On a single-CPU machine, when
``num_workers=0``, or when the pool cannot start (sandboxes without
``/dev/shm``) or dies, the tasks run serially in-process on the same shard
set — results are bit-identical either way, the pool is purely a
wall-clock lever.

Everything merged here is integer counts or exact squared distances, so the
sharded backend keeps the library-wide guarantee: identical counts and
``L(r, S)`` scores for every backend, regardless of shard count or worker
count.
"""

from __future__ import annotations

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
)
from repro.neighbors._engine import _merge_plan, _ShardSet
from repro.neighbors.base import (
    NeighborBackend,
    PlanFuture,
    ProfileCache,
    QueryPlan,
    _check_1d,
)
from repro import kernels as _kernels
from repro.utils.validation import check_integer, check_points

#: Test seam: ``(shard, seconds)`` sleeps that long before running any task
#: for that shard.  Consulted by :meth:`_ProfileShardSet.execute_plan` in
#: whichever process executes the task (fork-inherited by pool workers
#: started after it is set), so tests can make exactly one shard
#: artificially slow and pin the work-stealing scheduler's behaviour without
#: touching query code.
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


class _ProfileShardSet(_ShardSet):
    """The sharded backend's shard executor: the plan engine's
    :class:`~repro.neighbors._engine._ShardSet` plus each shard's resident
    truncated statistic and the internal ops that read it.  One lives in
    the parent (serial fallback) and one in every worker process."""

    def __init__(self, points: np.ndarray,
                 bounds: Sequence[Tuple[int, int]]) -> None:
        super().__init__(points, bounds)
        #: The full-dataset scipy KD-tree the truncated statistic is
        #: selected with (built on first use, when :meth:`_inner_name`
        #: picks the tree at the full dataset's size and
        #: :func:`~repro.neighbors.tree.tree_selects` picks it for the
        #: statistic's ``k``).
        self._full_tree = None
        #: Per-shard resident truncated statistic, column-sorted: ``shard
        #: -> (k, rows)`` array whose row ``j`` is column ``j`` of the
        #: shard's rows' ``k`` smallest squared distances, sorted (see
        #: :meth:`columns`), the widest any profile task asked for (a
        #: narrower target reads its leading rows).
        self._blocks = {}
        #: Per-shard state of the GoodRadius profile, warm per target:
        #: ``(shard, target) -> (thresholds, sorted entries)``, the
        #: statistic's entries below their column's threshold (see
        #: :meth:`below_threshold`).  One :class:`ProfileCache` for all the
        #: shards this process serves: least recently used evicted while
        #: the entries exceed the 64 MiB memory budget, the newest kept.
        self._profiles = ProfileCache()

    def clear_caches(self) -> None:
        """Also drop the resident statistics and profile state."""
        super().clear_caches()
        self._blocks.clear()
        self._profiles.clear()

    def cache_stats(self) -> dict:
        """Cache/index occupancy of this shard set (one worker's view of the
        world under pool mode; the parent's under the serial fallback).
        Feeds :meth:`ShardedBackend.pool_stats`.  ``selection_images``
        lists, per shard, the view tokens its memoised selection's rows are
        projected under; ``cell_tables`` counts the cell tables each shard
        keeps from its latest partition-search batch, and their bytes."""
        return {
            "built_shards": sorted(self._backends),
            "cached_view_images": {
                shard: len(images)
                for shard, images in sorted(self._view_images.items())
            },
            "cached_selections": sorted(self._memberships),
            "selection_images": {
                shard: sorted(images)
                for shard, (_, _, images) in sorted(self._memberships.items())
            },
            "cell_tables": {
                shard: {"tables": len(tables), "bytes": nbytes}
                for shard, (nbytes, tables) in sorted(self._cell_tables.items())
            },
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
        dataset, computed and not kept, in one of two forms: ``"columns"``,
        :meth:`columns`' ``(k, rows)`` layout; ``"kth"``, the row-sorted
        block's last column alone.

        When :meth:`_inner_name` picks the scipy KD-tree at the full
        dataset's size and :func:`~repro.neighbors.tree.tree_selects`
        picks it for ``k``, a full-dataset tree (cached in this process)
        selects the neighbours and the shared gather kernel recomputes the
        values; otherwise the blocked slab pass of the form's kernel
        computes it and no tree is built.  Either way it is bitwise the
        blocked slab's — and the leading ``k`` columns of a wider statistic
        are bitwise the ``k``-column statistic.
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
            return block[:, k - 1].copy()
        kernel = (truncated_squared_columns if form == "columns"
                  else kth_squared_cross)
        return kernel(self.points[low:high], self.points, k,
                      row_block_size(*self.points.shape))

    def columns(self, shard: int, k: int) -> np.ndarray:
        """The shard's statistic column by column: ``(min(k, n), rows)``,
        row ``j`` holding, in ascending order, the shard's rows' ``j + 1``-th
        smallest squared distances to the full dataset; built on first use
        and kept.

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
    # Task execution
    # ------------------------------------------------------------------ #
    def execute_plan(self, shard: int, views: Sequence[tuple],
                     selections: Sequence[tuple],
                     queries: Sequence[tuple]) -> list:
        """The engine's one shard task, after the :data:`_TASK_DELAY` test
        seam: the serial path, the pool workers and the remote node servers
        all run it, so the seam applies uniformly."""
        delay = _TASK_DELAY
        if delay is not None and int(delay[0]) == int(shard):
            time.sleep(float(delay[1]))
        return super().execute_plan(shard, views, selections, queries)

    def _partial(self, shard: int, op: str, view: Optional[tuple],
                 rows: Optional[np.ndarray], args: tuple):
        """One query's partial over this shard: the engine's plan ops, plus
        ``kth`` (one column of the row-sorted statistic, never kept),
        ``histograms`` (this shard's streaming ``L(r, S)`` partial), and
        the GoodRadius profile rounds over the resident sorted
        :meth:`columns`.  Each carries everything its shard needs to
        rebuild its state, so a fresh or stealing worker, or an adopting
        node, answers it bitwise like the shard's home worker.
        """
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
            low, high = self.bounds[shard]
            return capped_count_histograms(self.points[low:high], self.points,
                                           keys, cap,
                                           row_block_size(*self.points.shape))
        return super()._partial(shard, op, view, rows, args)


# --------------------------------------------------------------------------- #
# Worker-process plumbing
# --------------------------------------------------------------------------- #

#: The worker's shard set, installed by :func:`_init_worker`.
_WORKER_SHARDS: Optional[_ProfileShardSet] = None
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
    _WORKER_SHARDS = _ProfileShardSet(points, bounds)


def _run_shard_task(shard: int, payload: tuple) -> list:
    """Run one ``(shard, payload)`` task inside a worker process."""
    return _WORKER_SHARDS.execute_plan(shard, *payload)


def _worker_cache_stats() -> dict:
    """Report this worker's cache/index occupancy (for ``pool_stats``)."""
    return _WORKER_SHARDS.cache_stats()


class _PoolBatch:
    """The local transport's handle for one batch of ``(shard, payload)``
    tasks on the worker pool (see :meth:`ShardedBackend._dispatch`).

    The tasks go through a parent-side work-stealing scheduler.  With the
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
    batch is dispatched again, now on the serial path — the one broken-pool
    fallback of every local dispatch.
    """

    __slots__ = ("_backend", "_executors", "_tasks", "_lock", "_queues",
                 "_proxies", "_results")

    def __init__(self, backend: "ShardedBackend",
                 executors: List[ProcessPoolExecutor],
                 tasks: Sequence[Tuple[int, tuple]]) -> None:
        self._backend = backend
        self._executors = executors
        self._tasks = list(tasks)
        self._results: Optional[list] = None
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
                self._results = backend._dispatch(self._tasks).result()
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
# The GoodRadius profile rounds' parent-side merges
# --------------------------------------------------------------------------- #

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


class _ShardedPlanFuture(PlanFuture):
    """An in-flight plan: ``handle`` is what
    :meth:`ShardedBackend._dispatch` returned.  :meth:`result` folds its
    per-shard partials **in shard order** through the plan engine's merges,
    so the values are independent of worker scheduling, of how many plans
    overlap, and of any recovery the transport ran (a dead local pool, a
    dead node)."""

    def __init__(self, backend: "ShardedBackend", compiled,
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
            self._resolved = _merge_plan(self._backend, self._compiled,
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
    #: :func:`repro.neighbors._engine._heaviest_cell_merge`).  Bounds the
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
        self._shards = _ProfileShardSet(self._points, self._bounds)
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
        ``workers`` list: one :meth:`_ProfileShardSet.cache_stats` entry per
        live worker slot (pool mode) or the parent shard set's entry (serial
        fallback), whose ``resident_blocks`` maps each shard to the width
        of the column-sorted truncated statistic it keeps, and whose
        ``selection_images`` and ``cell_tables`` report the plan engine's
        two per-shard memos (see :meth:`_ProfileShardSet.cache_stats`).
        With routing affinity each shard index appears in exactly one
        worker's ``built_shards`` — the property the affinity tests pin.

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
        """Send a batch of ``(shard, payload)`` tasks to the worker pool;
        return its handle (see :meth:`NeighborBackend._dispatch`).

        Plans, the bounded heaviest-cell merge's rounds, the shard waves
        and the node server's batches all leave through here, and the
        distributed backend overrides only this (and :meth:`_wave_size`).
        Without a pool (``num_workers`` below 2, or a pool that could not
        start or has died) the batch runs serially on the parent's shard
        set, as the in-process backends run theirs.  Callers count the
        fan-out (:meth:`_count_fanout`); the transport counts only its own
        recovery.
        """
        executors = self._ensure_executors()
        if executors is None:
            return super()._dispatch(tasks)
        return _PoolBatch(self, executors, tasks)

    def _count_fanout(self, tasks: int) -> None:
        """Count one collective operation of ``tasks`` shard tasks."""
        self._stats["fanouts"] += 1
        self._stats["shard_tasks"] += tasks

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
        self._count_fanout(len(checked))
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
        super().close()

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
        self._count_fanout(self.num_shards)
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
        """``B_r(c, S)`` per centre: a one-radius
        :meth:`count_within_many`, the sum of per-shard counts."""
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

    def _kth_squared(self, k: int) -> np.ndarray:
        """Column ``k - 1`` of the shards' row-sorted blocks, ``n``
        values, concatenated in shard order: each shard computes its rows'
        ``k``-th smallest squared distances for the call, without building
        its block, and keeps nothing (see :meth:`_ProfileShardSet._build`)."""
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
        (:meth:`_ProfileShardSet.columns`): round 1 reads every
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
    # Query plans (one task per shard per plan)
    # ------------------------------------------------------------------ #
    def execute(self, plan: QueryPlan) -> list:
        """Run a :class:`~repro.neighbors.base.QueryPlan` in **one round
        trip per shard** (see :meth:`NeighborBackend.execute`), bitwise what
        the in-process backends' one shard produces.  A
        ``heaviest_cell_counts`` query whose bounded merge round 1 cannot
        certify adds its recount rounds.
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
        future = _ShardedPlanFuture(self, *self._dispatch_plan(plan))
        self._stats["plans"] += 1
        if not self.parallel:
            future.result()
        return future


__all__ = ["ShardedBackend"]
