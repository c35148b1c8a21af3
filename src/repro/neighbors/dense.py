"""Dense backend: the full row-sorted squared-distance matrix.

The strategy the seed implementation hard-coded everywhere: materialise all
``(n, n)`` pairwise (squared) distances once, sort each row, and answer every
query with binary searches.  Unbeatable for small ``n`` when many radii are
probed (GoodRadius probes thousands), but the ``8 n^2`` bytes make it
unusable beyond ``n ~ 30k`` — that is exactly what the chunked and tree
backends exist to fix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.neighbors._distance import (
    blocked_radius_counts,
    blocked_radius_counts_many,
    row_block_size,
    squared_distance_block,
    squared_radius_keys,
)
from repro.neighbors.base import NeighborBackend
from repro.utils.validation import check_points


class DenseBackend(NeighborBackend):
    """Precomputed ``(n, n)`` row-sorted squared-distance matrix."""

    name = "dense"

    # The matrix already holds every pairwise distance; the streaming
    # large-target walk would only recompute what is cached, so this
    # strategy always takes the persisted path.
    streaming_auto = False

    def __init__(self, points) -> None:
        super().__init__(points)
        self._sorted_squared: Optional[np.ndarray] = None

    def _matrix(self) -> np.ndarray:
        """The row-sorted squared-distance matrix, built lazily on first use."""
        if self._sorted_squared is None:
            points = self._points
            n = points.shape[0]
            matrix = np.empty((n, n), dtype=float)
            block = row_block_size(n, points.shape[1])
            for start in range(0, n, block):
                matrix[start:start + block] = squared_distance_block(
                    points[start:start + block], points
                )
            matrix.sort(axis=1)
            self._sorted_squared = matrix
        return self._sorted_squared

    def query_radius_counts(self, centers, radius: float) -> np.ndarray:
        """``B_r(c, S)`` per centre; dataset-identical centres are served
        from the precomputed row-sorted matrix, arbitrary centres by a
        blocked pass.

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
        # Identity only: a same-shape overlapping *view* (e.g. points[::-1])
        # would return counts in dataset-row order, not query-row order.
        if centers is self._points:
            counts = np.count_nonzero(self._matrix() <= radius * radius, axis=1)
            return counts.astype(np.int64)
        block = row_block_size(self.num_points, self.dimension)
        return blocked_radius_counts(centers, self._points, radius, block)

    def count_within_many(self, centers, radii) -> np.ndarray:
        """Batched counts; dataset-identical centres are answered by binary
        searches over the precomputed row-sorted matrix (one search per
        ``(row, radius)``), arbitrary centres by a single blocked pass shared
        across all radii.  See :meth:`NeighborBackend.count_within_many`."""
        centers = check_points(centers, dimension=self.dimension,
                               name="centers")
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if radii.size == 0:
            return np.empty((0, centers.shape[0]), dtype=np.int64)
        if centers is not self._points:
            block = row_block_size(self.num_points, self.dimension)
            return blocked_radius_counts_many(centers, self._points, radii,
                                              block)
        keys = squared_radius_keys(radii)
        matrix = self._matrix()
        counts = np.empty((radii.shape[0], matrix.shape[0]), dtype=np.int64)
        for row_index in range(matrix.shape[0]):
            counts[:, row_index] = np.searchsorted(matrix[row_index], keys,
                                                   side="right")
        return counts

    def _compute_truncated_squared(self, k: int) -> np.ndarray:
        return self._matrix()[:, :k].copy()


__all__ = ["DenseBackend"]
