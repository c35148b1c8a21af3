"""Tree backend: KD-tree accelerated radius counting.

Uses :class:`scipy.spatial.cKDTree` when scipy is installed — batched
``query_ball_point(..., return_length=True)`` for radius counts and
``query(k=...)`` for the truncated nearest-neighbour distances — and falls
back to the pure-python KD-tree of :mod:`repro.neighbors._kdtree` for radius
counts (with blocked brute force for the truncated distances) when it is not.
In low dimension this turns the ``O(n^2)`` per-radius count into
``O(n log n)``-ish work and the ``L(r, S)`` sufficient statistic into an
``O(n k)`` k-nearest-neighbour query, which is what makes ``good_radius`` at
``n = 20k`` run in seconds instead of minutes.
"""

from __future__ import annotations

import numpy as np

from repro.neighbors._distance import (
    DEFAULT_MEMORY_BUDGET,
    row_block_size,
    squared_distance_gather,
    truncated_squared_bruteforce,
    truncated_squared_cross,
)
from repro.neighbors._kdtree import PyKDTree
from repro.neighbors.base import NeighborBackend
from repro.utils.validation import check_integer, check_points

try:  # pragma: no cover - exercised implicitly on scipy installs
    from scipy.spatial import cKDTree as _CKDTree
except ImportError:  # pragma: no cover - scipy-less environments
    _CKDTree = None

HAVE_SCIPY_TREE = _CKDTree is not None


class TreeBackend(NeighborBackend):
    """KD-tree (scipy ``cKDTree``, or pure-python fallback) radius counting."""

    name = "tree"

    def __init__(self, points, leaf_size: int = 32,
                 use_scipy: bool = None) -> None:
        super().__init__(points, leaf_size=leaf_size, use_scipy=use_scipy)
        leaf_size = check_integer(leaf_size, "leaf_size", minimum=1)
        if use_scipy is None:
            use_scipy = HAVE_SCIPY_TREE
        elif use_scipy and not HAVE_SCIPY_TREE:
            raise ValueError("use_scipy=True requires scipy to be installed")
        self._scipy = bool(use_scipy)
        if self._scipy:
            self._tree = _CKDTree(self._points, leafsize=leaf_size)
        else:
            self._tree = PyKDTree(self._points, leaf_size=leaf_size)

    @property
    def uses_scipy(self) -> bool:
        """Whether the scipy ``cKDTree`` (vs the pure-python tree) backs this
        instance."""
        return self._scipy

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
        if self._scipy:
            counts = self._tree.query_ball_point(centers, radius,
                                                 return_length=True,
                                                 workers=-1)
            return np.asarray(counts, dtype=np.int64).reshape(-1)
        return self._tree.count_within(centers, radius)

    def _compute_truncated_squared(self, k: int) -> np.ndarray:
        if self._scipy:
            return self.truncated_squared_cross(self._points, k)
        block = row_block_size(self.num_points, self.dimension)
        return truncated_squared_bruteforce(self._points, k, block)

    def truncated_squared_cross(self, queries, k: int) -> np.ndarray:
        """Each query row's ``min(k, n)`` smallest squared distances to this
        backend's points, row-sorted — the tree-accelerated twin of
        :func:`repro.neighbors._distance.truncated_squared_cross`.

        The sharded backend's row block of the truncated statistic is
        exactly this shape (queries = one shard's rows, data = the full
        dataset), so with a scipy tree over all points a shard answers it in
        ``O(m k log n)`` instead of the ``O(m n)`` blocked brute force.
        Bitwise parity with the brute-force kernel holds by the same recipe
        as the self-query case: the tree only *selects* the neighbour
        indices, and the squared values are recomputed from those indices
        through the shared gather kernel, whose rounding matches the blocked
        kernel to the last ulp.
        """
        queries = np.ascontiguousarray(np.asarray(queries, dtype=float))
        k = min(int(k), self.num_points)
        if not self._scipy:
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


__all__ = ["HAVE_SCIPY_TREE", "TreeBackend"]
