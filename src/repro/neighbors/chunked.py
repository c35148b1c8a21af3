"""Chunked backend: blocked distance computation with bounded memory.

Never materialises more than one ``(block, n)`` slab of the distance matrix;
the block size is derived from a 64 MiB memory budget, so the backend
handles any ``n`` the caller has time for — ``O(n * block)`` scratch instead
of a full matrix's ``O(n^2)``.  Capped-count queries additionally keep only
each point's ``k`` smallest distances (``O(n * k)``), which is all the score
``L(r, S)`` ever looks at.
"""

from __future__ import annotations

import numpy as np

from repro.neighbors._distance import (
    blocked_radius_counts,
    blocked_radius_counts_many,
    row_block_size,
    truncated_squared_cross,
)
from repro.neighbors.base import NeighborBackend, _check_1d
from repro.utils.validation import check_integer, check_points


class ChunkedBackend(NeighborBackend):
    """Blocked brute-force distance queries with a fixed memory budget."""

    name = "chunked"

    def __init__(self, points, block_size: int = None) -> None:
        super().__init__(points, block_size=block_size)
        if block_size is None:
            block_size = row_block_size(self.num_points, self.dimension)
        self._block = check_integer(block_size, "block_size", minimum=1)

    @property
    def block_size(self) -> int:
        """How many query rows each blocked pass processes at once."""
        return self._block

    def query_radius_counts(self, centers, radius: float) -> np.ndarray:
        """``B_r(c, S)`` per centre, one blocked brute-force pass.

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
        return blocked_radius_counts(centers, self._points, radius, self._block)

    def count_within_many(self, centers, radii) -> np.ndarray:
        """Batched counts with the distance slabs computed once for all radii
        (``m`` radii cost one blocked pass, not ``m``); see
        :meth:`NeighborBackend.count_within_many`."""
        centers = check_points(centers, dimension=self.dimension,
                               name="centers")
        radii = _check_1d(radii, "radii")
        if radii.size == 0:
            return np.empty((0, centers.shape[0]), dtype=np.int64)
        return blocked_radius_counts_many(centers, self._points, radii,
                                          self._block)

    def _compute_truncated_squared(self, k: int) -> np.ndarray:
        return truncated_squared_cross(self._points, self._points, k,
                                       self._block)


__all__ = ["ChunkedBackend"]
