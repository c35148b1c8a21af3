"""Tree backend: KD-tree radius counting and small-``k`` neighbour selection.

Wraps :class:`scipy.spatial.cKDTree` — batched ``query_ball_point(...,
return_length=True)`` for radius counts and ``query(k=...)`` to select each
point's ``k`` nearest neighbours for the truncated statistic — so it needs
scipy: without it the constructor raises ``ImportError``, and
:func:`~repro.neighbors.auto_backend` never picks the tree.  In low
dimension this turns the ``O(n^2)`` per-radius count into ``O(n log n)``-ish
work and a small-``k`` truncated statistic into an ``O(n k log n)``
k-nearest-neighbour query.

The KD-tree's neighbour heaps cost more per kept neighbour than the blocked
slab's ``np.partition`` once ``k`` is a few percent of ``n``, so the
truncated statistic picks its kernel per call (:func:`tree_selects`): the
tree selects below :data:`TREE_SELECT_FRACTION` of ``n``, and the blocked
slab of :mod:`repro.neighbors._distance` builds it at or above that.  Both
kernels give the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.neighbors._distance import (
    DEFAULT_MEMORY_BUDGET,
    row_block_size,
    squared_distance_gather,
    truncated_squared_cross,
)
from repro.neighbors.base import NeighborBackend
from repro.utils.validation import check_integer, check_points

try:  # pragma: no cover - exercised implicitly on scipy installs
    from scipy.spatial import cKDTree as _CKDTree
except ImportError:  # pragma: no cover - scipy-less environments
    _CKDTree = None

HAVE_SCIPY_TREE = _CKDTree is not None

#: The ``leafsize`` every :class:`TreeBackend` builds its ``cKDTree`` with.
LEAF_SIZE = 32

#: The KD-tree selects a truncated statistic's ``k`` nearest neighbours only
#: while ``k`` is below this fraction of the dataset size ``n``; at or above
#: it the blocked slab is faster (ARCHITECTURE.md, *Selection*, has the
#: measured crossover table).
TREE_SELECT_FRACTION = 1 / 32


def tree_selects(k: int, num_points: int) -> bool:
    """Whether the scipy KD-tree, rather than the blocked slab, should
    build a ``k``-column truncated statistic over ``num_points`` points:
    :class:`TreeBackend` asks this on every call, and the sharded backend's
    shards ask it before they build a full-dataset tree."""
    return k < TREE_SELECT_FRACTION * num_points


class TreeBackend(NeighborBackend):
    """scipy ``cKDTree`` radius counting, and KD-tree neighbour selection for
    small-``k`` truncated statistics.

    Raises
    ------
    ImportError
        If scipy is not installed (checked before anything is built).
    """

    name = "tree"

    def __init__(self, points) -> None:
        if _CKDTree is None:
            raise ImportError(
                "the tree backend needs scipy's cKDTree; install scipy or "
                "pick another backend (e.g. 'chunked')"
            )
        super().__init__(points)
        self._tree = _CKDTree(self._points, leafsize=LEAF_SIZE)

    def query_radius_counts(self, centers, radius: float) -> np.ndarray:
        """``B_r(c, S)`` per centre via a batched tree query.

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
        centers = check_points(centers, dimension=self.dimension,
                               name="centers")
        if radius < 0:
            return np.zeros(centers.shape[0], dtype=np.int64)
        counts = self._tree.query_ball_point(centers, radius,
                                             return_length=True, workers=-1)
        return np.asarray(counts, dtype=np.int64).reshape(-1)

    def _compute_truncated_squared(self, k: int) -> np.ndarray:
        return self.truncated_squared_cross(self._points, k)

    def truncated_squared_cross(self, queries, k: int) -> np.ndarray:
        """Each query row's ``min(k, n)`` smallest squared distances to this
        backend's points, row-sorted, with the kernel picked per call.

        With ``k`` below :data:`TREE_SELECT_FRACTION` of ``n``
        (:func:`tree_selects`), the KD-tree selects each query's ``k``
        nearest rows in ``O(m k log n)``; otherwise this returns the
        ``O(m n)`` blocked slab,
        :func:`repro.neighbors._distance.truncated_squared_cross`.  The
        sharded backend's row block of the statistic is exactly this shape
        (queries = one shard's rows, data = the full dataset).  Both kernels
        give the same bits: the tree only *selects* the neighbour indices,
        and the squared values are recomputed from those indices through
        the shared gather kernel, whose rounding matches the blocked kernel
        to the last ulp.

        Raises
        ------
        ValueError
            If ``queries`` is not a finite ``(m, d)`` array in this
            backend's dimension, or ``k`` is not an integer of at least 1.
        TypeError
            If ``k`` is a bool.
        """
        queries = np.ascontiguousarray(
            check_points(queries, dimension=self.dimension, name="queries")
        )
        k = min(check_integer(k, "k", minimum=1), self.num_points)
        if not tree_selects(k, self.num_points):
            block = row_block_size(self.num_points, self.dimension)
            return truncated_squared_cross(queries, self._points, k, block)
        _, indices = self._tree.query(queries, k=k, workers=-1)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim == 1:
            indices = indices.reshape(-1, 1)
        # The query's returned distances are sqrt-rounded; recompute the
        # squared values from the neighbour indices through the shared
        # gather kernel, whose rounding matches the blocked brute-force
        # kernel to the last ulp — so the statistic (and everything
        # derived from it, e.g. kth_distances) matches the other backends
        # bit-for-bit even on generic float data.
        m, d = queries.shape
        squared = np.empty((m, k), dtype=float)
        block = max(16, DEFAULT_MEMORY_BUDGET // max(1, 16 * k * d))
        for start in range(0, m, block):
            chunk = squared_distance_gather(
                queries[start:start + block],
                self._points[indices[start:start + block]],
            )
            chunk.sort(axis=1)
            squared[start:start + block] = chunk
        return squared


__all__ = ["HAVE_SCIPY_TREE", "TREE_SELECT_FRACTION", "TreeBackend",
           "tree_selects"]
