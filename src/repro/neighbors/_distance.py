"""Exact blocked squared-distance computation.

Every backend measures proximity in *squared* Euclidean space: a point is
within radius ``r`` iff ``sum((x - y)^2) <= r*r``.  Two reasons:

* **Cross-backend parity.**  scipy's ``cKDTree`` compares squared distances
  against ``r^2`` internally, so any backend comparing ``sqrt(d2) <= r`` can
  disagree with the tree at radii within one ulp of an actual pairwise
  distance (e.g. ``r = sqrt(3)`` for points at the corners of a unit cube).
  Working in squared space everywhere makes counts identical by construction.
* **Accuracy.**  The squared sum is computed by direct differencing, which is
  exact to the last ulp — unlike the Gram-matrix shortcut
  ``|x|^2 + |y|^2 - 2 x.y``, whose catastrophic cancellation puts duplicate
  points at distance ~1e-8 instead of 0 (breaking counts at radius 0).  It
  also skips ``n^2`` square roots.
"""

from __future__ import annotations

import numpy as np

from repro import kernels as _kernels

try:  # pragma: no cover - exercised implicitly on scipy installs
    from scipy.spatial.distance import cdist as _cdist
except ImportError:  # pragma: no cover - scipy-less environments
    _cdist = None

#: Default cap, in bytes, on the scratch memory a blocked pass may hold.
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024


def squared_radius_keys(radii: np.ndarray) -> np.ndarray:
    """Map radii to squared-space search keys; negative radii match nothing.

    The single definition of the "negative radius means an empty ball"
    convention (the paper's ``B_r = 0`` for ``r < 0``): every count/score
    path compares exact squared distances (all ``>= 0``) against these keys,
    so sharing the mapping is part of the cross-backend parity contract.
    """
    radii = np.asarray(radii, dtype=float)
    return np.where(radii < 0, -1.0, radii * radii)


def squared_distance_block(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Exact ``(q, n)`` squared Euclidean distances, by direct differencing.

    Dispatches to the active kernel set (:mod:`repro.kernels`): scipy
    ``cdist`` / einsum in python mode, the numba slab — bitwise identical
    by its fixed left-to-right accumulation order — in native mode.
    """
    return _kernels.squared_distance_slab(queries, data)


def squared_distance_gather(queries: np.ndarray,
                            neighbors: np.ndarray) -> np.ndarray:
    """Squared distances from each query to its own gathered candidate set.

    ``neighbors`` is ``(q, k, d)``: row ``i`` holds ``k`` candidate points
    for query ``i`` (e.g. KD-tree nearest-neighbour results).  Returns the
    ``(q, k)`` squared distances **bitwise identical** to the corresponding
    entries of :func:`squared_distance_block` — which matters because scipy's
    ``cdist`` and numpy's einsum round the per-pair sum differently in the
    last ulp, and mixing the two kernels across backends would break the
    exact-parity contract (the tree backend's truncated statistic would
    disagree with chunked on generic float data).  On the scipy path
    the pairs are translated to the origin — ``||x - y||^2`` equals
    ``||(y - x) - 0||^2`` term for term, the inner subtraction being the same
    single rounding — and pushed through the same ``cdist`` kernel in one
    call; the scipy-less path shares the einsum formula with the blocked
    fallback.
    """
    queries = np.asarray(queries, dtype=float)
    neighbors = np.asarray(neighbors, dtype=float)
    return _kernels.squared_distance_gather(queries, neighbors)


def row_block_size(num_points: int, dimension: int) -> int:
    """How many query rows a blocked distance pass may process at once.

    Sized so one block's scratch (the ``(block, n)`` distance slab, or the
    ``(block, n, d)`` difference tensor on the scipy-less path) stays within
    :data:`DEFAULT_MEMORY_BUDGET`; clamped to ``[16, 4096]`` so huge
    datasets still make progress and tiny ones do not defeat the cache.
    """
    per_row_elements = num_points * (dimension + 2 if _cdist is None else 2)
    block = DEFAULT_MEMORY_BUDGET // max(1, 8 * per_row_elements)
    return int(min(4096, max(16, block)))


def blocked_radius_counts(queries: np.ndarray, data: np.ndarray,
                          radius: float, block_size: int) -> np.ndarray:
    """How many of ``data`` lie within ``radius`` of each query, blockwise."""
    counts = np.empty(queries.shape[0], dtype=np.int64)
    threshold = radius * radius
    for start in range(0, queries.shape[0], block_size):
        squared = squared_distance_block(queries[start:start + block_size], data)
        counts[start:start + block_size] = np.count_nonzero(
            squared <= threshold, axis=1
        )
    return counts


def blocked_radius_counts_many(queries: np.ndarray, data: np.ndarray,
                               radii: np.ndarray,
                               block_size: int) -> np.ndarray:
    """Counts of ``data`` within each of several ``radii`` of every query.

    The fused form of :func:`blocked_radius_counts`: each ``(block, n)``
    distance slab is computed once and compared against every squared radius,
    so ``m`` radii cost one distance pass instead of ``m``.

    Parameters
    ----------
    queries:
        ``(q, d)`` query centres.
    data:
        ``(n, d)`` dataset.
    radii:
        ``(m,)`` radii; negative entries yield all-zero counts.
    block_size:
        How many query rows each blocked pass processes.

    Returns
    -------
    numpy.ndarray
        ``(m, q)`` ``int64`` counts; row ``j`` holds the counts at
        ``radii[j]``.
    """
    keys = squared_radius_keys(radii)
    counts = np.empty((keys.shape[0], queries.shape[0]), dtype=np.int64)
    for start in range(0, queries.shape[0], block_size):
        squared = squared_distance_block(queries[start:start + block_size], data)
        for slot, key in enumerate(keys):
            counts[slot, start:start + squared.shape[0]] = np.count_nonzero(
                squared <= key, axis=1
            )
    return counts


def truncated_squared_cross(queries: np.ndarray, data: np.ndarray, k: int,
                            block_size: int) -> np.ndarray:
    """Each query's ``k`` smallest squared distances to ``data``, row-sorted.

    One blocked pass over the rows of the (never materialised) distance
    matrix: ``O(q * block)`` scratch, ``(q, k)`` output.  With
    ``queries is data`` it is the in-process truncated statistic (each row
    starts with the self-distance 0); the sharded backend passes one
    shard's rows as the queries, for that shard's rows of the statistic.

    Parameters
    ----------
    queries:
        ``(q, d)`` query points.
    data:
        ``(n, d)`` dataset the distances are measured against.
    k:
        How many smallest squared distances to keep per query (capped at
        ``n``).
    block_size:
        How many query rows each blocked pass processes.

    Returns
    -------
    numpy.ndarray
        ``(q, min(k, n))`` row-sorted squared distances.
    """
    n = data.shape[0]
    k = min(k, n)
    out = np.empty((queries.shape[0], k), dtype=float)
    for start in range(0, queries.shape[0], block_size):
        squared = squared_distance_block(queries[start:start + block_size], data)
        if k < n:
            squared = np.partition(squared, k - 1, axis=1)[:, :k]
        squared.sort(axis=1)
        out[start:start + block_size] = squared[:, :k]
    return out


def capped_count_histograms(queries: np.ndarray, data: np.ndarray,
                            keys: np.ndarray, cap: int,
                            block_size: int) -> np.ndarray:
    """Histogram of capped counts ``min(|{y : d2(q, y) <= key}|, cap)``.

    The streaming primitive behind the large-target ``L(r, S)`` walk: for
    every squared-radius search key it histograms, over the query points, the
    capped number of dataset points within that key — without ever persisting
    a per-point truncated-distance statistic.  Memory is ``O(block * n)`` for
    the distance slab plus ``O(len(keys) * cap)`` for the histograms; callers
    chunk the keys to bound the latter.

    Parameters
    ----------
    queries:
        ``(q, d)`` query points (a row range of the dataset, for the score).
    data:
        ``(n, d)`` dataset the counts are measured against.
    keys:
        ``(m,)`` squared-radius search keys (negative keys match nothing);
        need not be sorted — each key's histogram is independent.
    cap:
        The count cap ``t``.
    block_size:
        How many query rows each blocked pass processes.

    Returns
    -------
    numpy.ndarray
        ``(m, cap + 1)`` ``int64``: entry ``[j, v]`` is how many queries have
        capped count exactly ``v`` at ``keys[j]``.
    """
    keys = np.asarray(keys, dtype=float)
    histograms = np.zeros((keys.shape[0], cap + 1), dtype=np.int64)
    slots = np.arange(keys.shape[0])
    for start in range(0, queries.shape[0], block_size):
        squared = squared_distance_block(queries[start:start + block_size], data)
        squared.sort(axis=1)
        for row in squared:
            # One binary search per (row, key); rows are sorted, so the count
            # of entries <= key is the right-insertion position of the key.
            row_counts = np.searchsorted(row, keys, side="right")
            np.minimum(row_counts, cap, out=row_counts)
            histograms[slots, row_counts] += 1
    return histograms


__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "blocked_radius_counts",
    "blocked_radius_counts_many",
    "capped_count_histograms",
    "squared_distance_block",
    "squared_radius_keys",
    "row_block_size",
    "truncated_squared_cross",
]
