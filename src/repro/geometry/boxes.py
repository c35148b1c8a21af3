"""Randomly shifted box partitions and axis-interval partitions.

GoodCenter partitions the projected space ``R^k`` into axis-aligned boxes of a
fixed side length with a uniformly random shift per axis (Algorithm 2,
steps 3–4): if the target cluster has diameter at most a third of the side
length, each axis "splits" the cluster with probability at most 1/3-ish, so
with probability ``~ c^k`` no axis splits it and some box contains the whole
cluster.  The same building block, one axis at a time, is used for the
rotated-axis refinement (step 9).

Boxes are identified by integer index vectors; :class:`ShiftedBoxPartition`
maps points to those labels, which is exactly the input the stability-based
histogram mechanism needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro import kernels as _kernels
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_points, check_positive


def box_labels(points: np.ndarray, shifts: np.ndarray,
               width: float) -> np.ndarray:
    """Integer box-index vectors of every point under a shifted partition.

    The single definition of the grid hash ``floor((x - shift) / width)``.
    Both :meth:`ShiftedBoxPartition.label_array` and the sharded backend's
    distributed heaviest-cell counting call this helper, so the two code
    paths are bit-identical by construction — which is what lets GoodCenter's
    backend-batched partition search promise the exact same AboveThreshold
    queries as the serial loop.

    Parameters
    ----------
    points:
        ``(n, k)`` points.
    shifts:
        ``(k,)`` per-axis shift vector.
    width:
        The box side length.

    Returns
    -------
    numpy.ndarray
        ``(n, k)`` ``int64`` per-axis box indices.
    """
    points = np.asarray(points, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    return _kernels.fused_box_labels(points, shifts, width)


#: Packed row keys must stay below this bound to fit a signed int64.
_KEY_LIMIT = 2 ** 63

#: Packed keys spanning at most this many values fit a ``uint16``, which
#: numpy's stable sort orders by radix.
_RADIX_LIMIT = 2 ** 16


def _dense_rank(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """``values`` replaced by their rank among the distinct values, with
    the number of distinct values (an order-preserving compaction)."""
    distinct, rank = np.unique(values, return_inverse=True)
    return rank.astype(np.int64, copy=False), int(distinct.shape[0])


def unique_rows(labels: np.ndarray, return_index: bool = False,
                return_inverse: bool = False, return_counts: bool = False):
    """``np.unique(labels, axis=0, ...)`` for integer label rows, fast.

    ``np.unique`` with ``axis=0`` views every row as a structured record and
    sorts with a generic field-by-field comparison.  This helper packs each
    row into one ``int64`` mixed-radix key instead — column ``j`` contributes
    the digit ``labels[:, j] - min_j`` in base ``max_j - min_j + 1`` — and
    runs a 1-d unique on the keys.  The packing is strictly monotone in the
    signed lexicographic row order that ``np.unique(axis=0)`` sorts by, so
    equal rows get equal keys and the sorted keys list the unique rows in
    exactly that function's order.  When the digits would overflow 63 bits,
    the key so far (and, if still needed, the column) is first replaced by
    its dense rank, which preserves order and keeps the radix below the row
    count.  The grid hashes' label matrices need far fewer bits, so that
    branch only serves adversarial inputs.

    When the packed keys span at most ``2**16`` values, so that every key
    fits a ``uint16``, they are sorted as ``uint16`` with
    ``kind="stable"``, which numpy runs as an ``O(m)`` radix sort; wider
    spans take the unstable comparison sort (``np.unique`` with
    ``return_index`` forces a stable one).  Either
    order serves: equal keys are equal rows, so any member of a group
    stands for it, the first occurrences are the groups' smallest row
    indices (one ``np.minimum.reduceat``, only when asked for), and the
    inverse and counts follow from where the groups start.

    Parameters
    ----------
    labels:
        ``(m, k)`` integer label rows.
    return_index, return_inverse, return_counts:
        As for :func:`numpy.unique`; the index is each unique row's first
        occurrence and the inverse is 1-d.

    Returns
    -------
    numpy.ndarray or tuple
        Exactly what ``np.unique(labels, axis=0, ...)`` returns: the
        ``(u, k)`` sorted unique rows, followed by the requested arrays.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2 or not np.issubdtype(labels.dtype, np.signedinteger):
        raise ValueError(
            f"labels must be a 2-d signed-integer array, got shape "
            f"{labels.shape} and dtype {labels.dtype}"
        )
    keys = np.zeros(labels.shape[0], dtype=np.int64)
    span = 1
    # Zero rows have no column extremes; their empty key set is final.
    for column in labels.T if labels.shape[0] else ():
        column = column.astype(np.int64, copy=False)
        low, high = int(column.min()), int(column.max())
        size = high - low + 1
        if span * size >= _KEY_LIMIT:
            keys, span = _dense_rank(keys)
            if span * size >= _KEY_LIMIT:
                column, size = _dense_rank(column)
                low = 0
        keys = keys * size + (column - low)
        span *= size
    if span <= _RADIX_LIMIT:
        order = np.argsort(keys.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(keys)
    ordered = keys[order]
    is_start = np.empty(keys.shape[0], dtype=bool)
    is_start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    extras = []
    if return_index:
        extras.append(np.minimum.reduceat(order, starts))
    if return_inverse:
        inverse = np.empty(keys.shape[0], dtype=np.intp)
        inverse[order] = np.cumsum(is_start) - 1
        extras.append(inverse)
    if return_counts:
        extras.append(np.diff(starts, append=keys.shape[0]))
    unique = labels[order[starts]]
    return (unique, *extras) if extras else unique


def interval_labels(values: np.ndarray, width: float,
                    offset: float = 0.0) -> np.ndarray:
    """Integer interval indices ``floor((v - offset) / width)``, elementwise.

    The one-dimensional sibling of :func:`box_labels` and, like it, the
    *single* definition of the hash: :class:`AxisIntervalPartition` and the
    backend view layer's batched per-axis labelling both call this helper, so
    the rotated-axis interval stage of GoodCenter produces bit-identical
    labels whether the axes are labelled serially in the parent or in one
    batched (possibly shard-side) pass.

    Parameters
    ----------
    values:
        Scalar values of any shape; labelled elementwise.
    width:
        The interval length.
    offset:
        The partition's origin (0 in the paper).

    Returns
    -------
    numpy.ndarray
        ``int64`` interval indices, same shape as ``values``.
    """
    values = np.asarray(values, dtype=float)
    return _kernels.fused_interval_labels(values, width, offset)


@dataclass(frozen=True)
class Box:
    """An axis-aligned box given by per-axis lower and upper bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float).reshape(-1)
        upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if np.any(upper < lower):
            raise ValueError("upper must be at least lower on every axis")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        """The number of axes."""
        return int(self.lower.shape[0])

    @property
    def side_lengths(self) -> np.ndarray:
        """Per-axis side lengths."""
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        """The box centre."""
        return (self.lower + self.upper) / 2.0

    @property
    def diameter(self) -> float:
        """Euclidean diameter (norm of the side-length vector)."""
        return float(np.linalg.norm(self.side_lengths))

    def contains(self, points) -> np.ndarray:
        """Boolean mask of points inside the (half-open) box."""
        points = check_points(points, dimension=self.dimension)
        above = np.all(points >= self.lower[None, :], axis=1)
        below = np.all(points < self.upper[None, :], axis=1)
        return above & below

    def expanded(self, margin: float) -> "Box":
        """The box enlarged by ``margin`` on every side (paper's ``I_hat``)."""
        check_positive(margin, "margin", strict=False)
        return Box(lower=self.lower - margin, upper=self.upper + margin)


class ShiftedBoxPartition:
    """A partition of ``R^k`` into boxes of side ``width`` with random shifts.

    Parameters
    ----------
    dimension:
        The number of axes ``k``.
    width:
        The side length of every box.
    rng:
        Seed or generator used to draw the per-axis shifts in ``[0, width)``.
    """

    def __init__(self, dimension: int, width: float, rng: RngLike = None) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        check_positive(width, "width")
        self.dimension = int(dimension)
        self.width = float(width)
        generator = as_generator(rng)
        self.shifts = generator.uniform(0.0, self.width, size=self.dimension)

    def label_array(self, points) -> np.ndarray:
        """The ``(n, k)`` integer index vectors of every point's box."""
        points = check_points(points, dimension=self.dimension)
        return box_labels(points, self.shifts, self.width)

    def labels(self, points) -> list:
        """The box label (a tuple of per-axis indices) of every point."""
        return [tuple(row) for row in self.label_array(points)]

    def heaviest_cell_count(self, points) -> int:
        """The maximum number of points falling into one box.

        This is the sensitivity-1 query GoodCenter feeds to AboveThreshold
        (Algorithm 2, step 5).
        """
        indices = self.label_array(points)
        _, counts = np.unique(indices, axis=0, return_counts=True)
        return int(counts.max())

    def box_for_label(self, label: Tuple[int, ...]) -> Box:
        """The geometric box corresponding to an integer label."""
        label_array = np.asarray(label, dtype=float)
        if label_array.shape[0] != self.dimension:
            raise ValueError(
                f"label has {label_array.shape[0]} axes, expected {self.dimension}"
            )
        lower = self.shifts + label_array * self.width
        upper = lower + self.width
        return Box(lower=lower, upper=upper)

    def cluster_capture_probability(self, cluster_diameter: float) -> float:
        """Lower bound on the probability that one box contains a set of the
        given diameter: ``(1 - diameter/width)^k`` (0 if diameter > width)."""
        if cluster_diameter < 0:
            raise ValueError("cluster_diameter must be non-negative")
        per_axis = max(0.0, 1.0 - cluster_diameter / self.width)
        return float(per_axis ** self.dimension)


class AxisIntervalPartition:
    """A partition of one axis into intervals ``[j*width + offset, (j+1)*width + offset)``.

    Used on every rotated axis in GoodCenter step 9.  The offset is 0 in the
    paper (the intervals need not be randomly shifted there because the target
    set's spread is at most the interval length and the interval is extended
    by one length on each side afterwards).
    """

    def __init__(self, width: float, offset: float = 0.0) -> None:
        check_positive(width, "width")
        self.width = float(width)
        self.offset = float(offset)

    def labels(self, values: np.ndarray) -> np.ndarray:
        """Integer interval index of every scalar value (the shared
        :func:`interval_labels` hash over the flattened input)."""
        values = np.asarray(values, dtype=float).reshape(-1)
        return interval_labels(values, self.width, self.offset)

    def interval(self, label: int) -> Tuple[float, float]:
        """The ``[low, high)`` endpoints of the interval with the given index."""
        low = self.offset + label * self.width
        return low, low + self.width

    def extended_interval(self, label: int, margin: float = None) -> Tuple[float, float]:
        """The interval extended by ``margin`` (default: one width) per side.

        This is the paper's ``I_hat`` (Figure 2): extending a heavy interval
        by the full cluster spread guarantees it contains the whole cluster.
        """
        if margin is None:
            margin = self.width
        low, high = self.interval(label)
        return low - margin, high + margin


__all__ = ["Box", "ShiftedBoxPartition", "AxisIntervalPartition", "box_labels",
           "interval_labels", "unique_rows"]
