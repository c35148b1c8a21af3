"""Pluggable distance-query backends (the ``NeighborBackend`` layer).

The 1-cluster pipeline only ever asks a few questions about the geometry of
its input — per-point ball counts, ball counts around arbitrary centres
(single-radius or batched over a radius grid), and each point's ``k``
smallest distances.  None of them needs the ``(n, n)`` distance matrix.
This package hides those questions behind the
:class:`~repro.neighbors.base.NeighborBackend` protocol with two in-process
strategies and one that shards them across processes:

* :class:`~repro.neighbors.chunked.ChunkedBackend` — blocked brute force with
  a fixed memory budget; any ``n``, ``O(n * block)`` memory.
* :class:`~repro.neighbors.tree.TreeBackend` — scipy ``cKDTree`` radius
  counting and neighbour selection; the right choice for large ``n`` in low
  dimension.  It needs scipy: without it the constructor raises
  ``ImportError`` and :func:`auto_backend` picks ``chunked`` instead.
* :class:`~repro.neighbors.sharded.ShardedBackend` — the dataset sharded
  across worker processes over a shared-memory block, each shard answered by
  one of the two strategies above (picked by :func:`auto_backend`'s rule),
  per-shard results merged exactly; the right choice for very large ``n``
  on multi-core machines.

Beyond distance queries, every backend also answers *grid-hash* and *masked
aggregate* queries over an arbitrary linear image of its points through
:meth:`~repro.neighbors.base.NeighborBackend.view` (a
:class:`~repro.neighbors.base.ProjectedView`): heaviest-cell counts, box
histograms, membership masks, per-axis interval labels, and — over a
selection (a :class:`~repro.neighbors.base.BoxSelection` label predicate, a
boolean mask, or a row multiset) — counts, exact fixed-point sums, per-axis
extremes, first-occurrence-ordered interval histograms, and NoisyAVG's
clipped ``(count, sum)`` statistics.  These are the questions GoodCenter
asks about its JL-projected and rotated points (Algorithm 2, steps 3-11).
Every view query is a one-query :class:`~repro.neighbors.base.QueryPlan`,
applied shard-side, so the sharded parent never materialises the image,
the selected set, or any membership array.

Any bundle of these read-only primitives can travel as one
:class:`~repro.neighbors.base.QueryPlan`.  Every backend runs it through
the one plan engine (:mod:`repro.neighbors._engine`): the in-process
strategies as its one-shard case, the sharded ones as one worker round
trip per shard, with shard-side memoisation of selection membership and
projected images.  ``backend.submit(plan)`` dispatches it asynchronously —
shard-order merges keep every value bitwise deterministic no matter how
many plans overlap.

All strategies return *identical* integer counts, bit-identical ``L(r, S)``
values, and identical view grid hashes (see
:mod:`repro.neighbors._distance` and
:func:`repro.geometry.jl.project_rows` for why), so swapping backends
changes performance only — callers pick one per workload via
:func:`auto_backend` / the ``backend=`` argument threaded through
``one_cluster``/``good_radius``/``good_center`` and the clustering
applications.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, Optional, Union

import numpy as np

from repro.neighbors.base import (
    STREAMING_MIN_POINTS,
    STREAMING_TARGET_FRACTION,
    BackendUnavailableError,
    BoxSelection,
    ClippedSum,
    NeighborBackend,
    PlanFuture,
    PlanQuery,
    ProjectedView,
    QueryPlan,
    first_occurrence_cells,
)
from repro.neighbors.chunked import ChunkedBackend
from repro.neighbors.sharded import ShardedBackend, _available_cpus
from repro.neighbors.tree import HAVE_SCIPY_TREE, TreeBackend
from repro.utils.validation import check_points

#: Strategy registry, keyed by the names ``backend=`` arguments accept.
#: Every entry here is constructible from ``points`` alone; the
#: ``"distributed"`` strategy (:mod:`repro.neighbors.distributed`) is *not*
#: listed because it additionally needs live node servers — it is reachable
#: through :func:`resolve_backend` by name, with the node addresses
#: supplied via ``options={"nodes": [...]}``.
BACKENDS: Dict[str, Callable[..., NeighborBackend]] = {
    ChunkedBackend.name: ChunkedBackend,
    TreeBackend.name: TreeBackend,
    ShardedBackend.name: ShardedBackend,
}

#: The name :func:`resolve_backend` accepts for the coordinator-side
#: distributed strategy (imported lazily: most sessions never pay for the
#: transport module).
DISTRIBUTED_BACKEND_NAME = "distributed"

#: Everything ``backend=`` arguments accept: a strategy name (or "auto"),
#: a backend class, an already-built instance, or None (= "auto").
BackendLike = Union[None, str, NeighborBackend, type]

#: Largest n for which blocked brute force is the default choice in every
#: dimension: below it, a KD-tree's build and traversal cost more than the
#: ``(block, n)`` slabs they would prune.
CHUNKED_MAX_POINTS = 2048

#: Largest dimension for which KD-trees still beat blocked brute force.
TREE_MAX_DIMENSION = 8

#: Smallest n for which the multi-process sharded backend is the default
#: choice (given more than one CPU): below it, process start-up and
#: per-query fan-out overheads beat the parallel speedup.
SHARDED_MIN_POINTS = 100_000


def auto_backend(num_points: int, dimension: int) -> str:
    """Pick a backend name for an ``(n, d)`` workload.

    Heuristics, in order:

    * ``n >= SHARDED_MIN_POINTS`` with more than one usable CPU — shard the
      points across worker processes; each shard is answered by the
      in-process strategy the remaining rules pick for its size.
    * ``n <= CHUNKED_MAX_POINTS`` — blocked brute force, in every dimension.
    * ``d <= TREE_MAX_DIMENSION`` (scipy available) — KD-trees; higher
      dimensions degrade tree pruning to brute force with extra overhead.
    * otherwise — blocked brute force, the safe choice at any size.

    The ``"distributed"`` strategy is never auto-selected: it requires
    operator-provisioned node servers (addresses the size heuristics cannot
    invent), so it is only reachable by explicit name.

    Parameters
    ----------
    num_points:
        The dataset size ``n``.
    dimension:
        The ambient dimension ``d``.

    Returns
    -------
    str
        A :data:`BACKENDS` registry name.
    """
    if num_points >= SHARDED_MIN_POINTS and _available_cpus() > 1:
        return ShardedBackend.name
    return _in_process_backend(num_points, dimension)


def _in_process_backend(num_points: int, dimension: int) -> str:
    """:func:`auto_backend`'s choice with sharding ruled out: the strategy
    each shard of a sharded backend builds."""
    if (num_points > CHUNKED_MAX_POINTS and dimension <= TREE_MAX_DIMENSION
            and HAVE_SCIPY_TREE):
        return TreeBackend.name
    return ChunkedBackend.name


def resolve_backend(points, backend: BackendLike = None,
                    options: Optional[dict] = None) -> NeighborBackend:
    """Turn a ``backend=`` argument into a ready :class:`NeighborBackend`.

    Parameters
    ----------
    points:
        The ``(n, d)`` dataset the backend must index.
    backend:
        ``None`` / ``"auto"`` (size-based selection via
        :func:`auto_backend`; the backend's
        :meth:`~repro.neighbors.base.NeighborBackend.subset` selects again
        by the subset's size), a registry name (``"chunked"``, ``"tree"``,
        ``"sharded"``), ``"distributed"`` (which additionally requires
        ``options={"nodes": [...]}``), a backend class, or an existing
        instance (which must have been built over the same dataset).
    options:
        Optional constructor keyword arguments applied when a backend is
        *built* here from a name or class, e.g. ``{"num_workers": 4}`` for
        the sharded backend.  Rejected with ``None`` / ``"auto"`` (options
        fit one strategy, and the size picks which) and with an instance.

    Returns
    -------
    NeighborBackend
    """
    points = check_points(points)
    if backend is None:
        backend = "auto"
    if isinstance(backend, NeighborBackend):
        if options:
            raise ValueError(
                "backend options cannot be applied to an already-built "
                "instance; pass a backend name or class instead"
            )
        if backend.points.shape != points.shape or not (
            backend.points is points or np.array_equal(backend.points, points)
        ):
            raise ValueError(
                "the supplied backend instance was built over a different "
                "dataset; pass a backend name or class instead so each call "
                "indexes its own points"
            )
        return backend
    if isinstance(backend, type) and issubclass(backend, NeighborBackend):
        return backend(points, **(options or {}))
    if isinstance(backend, str):
        name = backend.lower()
        auto = name == "auto"
        if auto:
            if options:
                raise ValueError(
                    "backend options cannot be applied to 'auto', which "
                    "picks the strategy by the dataset's size; name the "
                    f"strategy instead (one of {sorted(BACKENDS)})"
                )
            name = auto_backend(points.shape[0], points.shape[1])
        if name == DISTRIBUTED_BACKEND_NAME:
            if not (options or {}).get("nodes"):
                raise ValueError(
                    "the distributed backend needs node servers; pass "
                    "options={'nodes': ['host:port', ...]} (one "
                    "`python -m repro.neighbors.serve` per entry)"
                )
            from repro.neighbors.distributed import DistributedBackend

            return DistributedBackend(points, **(options or {}))
        if name not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected 'auto', "
                f"'{DISTRIBUTED_BACKEND_NAME}', or one of {sorted(BACKENDS)}"
            )
        resolved = BACKENDS[name](points, **(options or {}))
        # Picked by size: its subsets pick again by theirs.
        resolved._auto_selected = auto
        return resolved
    raise TypeError(
        f"backend must be None, a name, a NeighborBackend class or instance; "
        f"got {type(backend).__name__}"
    )


@contextlib.contextmanager
def backend_scope(points,
                  backend: BackendLike = None) -> Iterator[NeighborBackend]:
    """:func:`resolve_backend` for the length of a ``with`` block.

    A backend built here (from ``None``, a name or a class) belongs to the
    block and is closed when it exits, normally or by an exception, so a
    sharded backend's worker pool and shared-memory segment never outlive
    the solver call that started them (a live exception's traceback would
    otherwise keep them reachable).  A caller's instance stays the
    caller's to close.
    """
    resolved = resolve_backend(points, backend)
    try:
        yield resolved
    finally:
        if resolved is not backend:
            resolved.close()


__all__ = [
    "BACKENDS",
    "BackendLike",
    "BackendUnavailableError",
    "CHUNKED_MAX_POINTS",
    "DISTRIBUTED_BACKEND_NAME",
    "SHARDED_MIN_POINTS",
    "STREAMING_MIN_POINTS",
    "STREAMING_TARGET_FRACTION",
    "TREE_MAX_DIMENSION",
    "HAVE_SCIPY_TREE",
    "BoxSelection",
    "ClippedSum",
    "NeighborBackend",
    "PlanFuture",
    "PlanQuery",
    "ProjectedView",
    "QueryPlan",
    "first_occurrence_cells",
    "ChunkedBackend",
    "TreeBackend",
    "ShardedBackend",
    "auto_backend",
    "backend_scope",
    "resolve_backend",
]
