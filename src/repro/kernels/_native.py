"""Numba ``@njit`` hot kernels — bitwise-parity natives.

Importing this module requires numba; :mod:`repro.kernels` gates the import
and falls back to :mod:`repro.kernels._reference` when it is unavailable.

Every kernel reproduces its reference counterpart bit for bit:

* the distance kernels accumulate each pair's squared terms **left-to-right
  in axis order** — exactly scipy ``cdist``'s scalar loop (compiled without
  fastmath, so LLVM cannot reassociate, vectorise-with-reordering, or
  contract the multiply-add);
* the label kernels apply the identical scalar sequence per coordinate —
  subtract, divide, floor, cast to int64 — as the numpy expressions;
* the fixed-point kernel emits ``(limb, shift)`` integer partials whose
  exact integer merge equals :func:`repro.utils.exactsum.fixed_point_sum`'s
  canonical total (the decomposition differs from the reference's, the
  merged integer cannot).

``tests/test_kernels.py`` asserts all of this against the reference on an
adversarial zoo whenever numba is installed.
"""

from __future__ import annotations

import math

import numpy as np
from numba import njit

# The fixed-point constants shared with the reference kernel; _SEGMENT is
# also the accumulator's flush threshold (``512 * 2**53 < 2**63``).
from repro.kernels._reference import _MANTISSA_SCALE, _SEGMENT, SCALE_BITS

#: frexp exponents span ``[-1073, 1024]`` for finite nonzero float64, so
#: shifts ``e + (1074 - 53)`` span ``[-52, 2045]``; the accumulator table is
#: indexed by ``shift + _SHIFT_FLOOR``.
_SHIFT_FLOOR = 52
_SHIFT_TABLE = 2100


@njit(cache=True)
def _slab(queries, data):  # pragma: no cover - requires numba
    q, d = queries.shape
    n = data.shape[0]
    out = np.empty((q, n), dtype=np.float64)
    for i in range(q):
        for j in range(n):
            acc = 0.0
            for a in range(d):
                diff = queries[i, a] - data[j, a]
                acc += diff * diff
            out[i, j] = acc
    return out


@njit(cache=True)
def _gather(queries, neighbors):  # pragma: no cover - requires numba
    q, k, d = neighbors.shape
    out = np.empty((q, k), dtype=np.float64)
    for i in range(q):
        for j in range(k):
            acc = 0.0
            for a in range(d):
                # Translate-to-origin: the inner subtraction is the same
                # single rounding as the reference's difference tensor.
                diff = neighbors[i, j, a] - queries[i, a]
                acc += diff * diff
            out[i, j] = acc
    return out


@njit(cache=True)
def _box_labels(points, shifts, width):  # pragma: no cover - requires numba
    n, k = points.shape
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        for a in range(k):
            out[i, a] = np.int64(math.floor((points[i, a] - shifts[a]) / width))
    return out


@njit(cache=True)
def _interval_labels(values, width, offset):  # pragma: no cover - requires numba
    n = values.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        out[i] = np.int64(math.floor((values[i] - offset) / width))
    return out


@njit(cache=True)
def _column_partials(matrix):  # pragma: no cover - requires numba
    q, k = matrix.shape
    # Each emitted entry absorbs at least one element, so q*k bounds the
    # entry count.
    capacity = q * k
    limbs = np.empty(capacity, dtype=np.int64)
    shifts = np.empty(capacity, dtype=np.int64)
    columns = np.empty(capacity, dtype=np.int64)
    acc = np.zeros(_SHIFT_TABLE, dtype=np.int64)
    count = np.zeros(_SHIFT_TABLE, dtype=np.int64)
    out = 0
    for column in range(k):
        for row in range(q):
            mantissa, exponent = math.frexp(matrix[row, column])
            limb = np.int64(mantissa * _MANTISSA_SCALE)
            shift = exponent + (SCALE_BITS - 53)
            slot = shift + _SHIFT_FLOOR
            acc[slot] += limb
            count[slot] += 1
            if count[slot] >= _SEGMENT:
                limbs[out] = acc[slot]
                shifts[out] = shift
                columns[out] = column
                out += 1
                acc[slot] = 0
                count[slot] = 0
        for slot in range(_SHIFT_TABLE):
            if count[slot] != 0:
                limbs[out] = acc[slot]
                shifts[out] = slot - _SHIFT_FLOOR
                columns[out] = column
                out += 1
                acc[slot] = 0
                count[slot] = 0
    return limbs[:out], shifts[:out], columns[:out]


def squared_distance_slab(queries: np.ndarray,
                          data: np.ndarray) -> np.ndarray:
    """Native ``(q, n)`` squared-distance slab (cdist accumulation order)."""
    return _slab(np.ascontiguousarray(queries, dtype=np.float64),
                 np.ascontiguousarray(data, dtype=np.float64))


def squared_distance_gather(queries: np.ndarray,
                            neighbors: np.ndarray) -> np.ndarray:
    """Native translate-to-origin gather kernel."""
    return _gather(np.ascontiguousarray(queries, dtype=np.float64),
                   np.ascontiguousarray(neighbors, dtype=np.float64))


def fused_box_labels(points: np.ndarray, shifts: np.ndarray,
                     width: float) -> np.ndarray:
    """Native fused grid hash (one pass, no float temporaries)."""
    return _box_labels(np.ascontiguousarray(points, dtype=np.float64),
                       np.ascontiguousarray(shifts, dtype=np.float64),
                       float(width))


def fused_interval_labels(values: np.ndarray, width: float,
                          offset: float = 0.0) -> np.ndarray:
    """Native elementwise interval hash (any input shape)."""
    values = np.asarray(values, dtype=np.float64)
    flat = np.ascontiguousarray(values).reshape(-1)
    return _interval_labels(flat, float(width),
                            float(offset)).reshape(values.shape)


def fixed_point_column_partials(matrix: np.ndarray):
    """Native fixed-point column partials (see the reference docstring)."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return _column_partials(matrix)
