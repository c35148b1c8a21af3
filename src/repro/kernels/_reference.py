"""Pure-python (numpy/scipy) hot kernels — the defining implementations.

Every function here is the bit-level *specification* its native counterpart
in :mod:`repro.kernels._native` must reproduce.  The distance and label
bodies are the exact numpy expressions the library used before kernel
dispatch existed, moved here so both kernel sets live behind one import seam
(:mod:`repro.kernels`).  The fixed-point column kernel is specified by its
merged totals, not its bytes (see its docstring).

This module must not import anything from :mod:`repro` outside the kernels
package: the modules it accelerates (``repro.neighbors._distance``,
``repro.geometry.boxes``, ``repro.utils.exactsum``) import *it*.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

try:  # pragma: no cover - exercised implicitly on scipy installs
    from scipy.spatial.distance import cdist as _cdist
except ImportError:  # pragma: no cover - scipy-less environments
    _cdist = None

#: Whether scipy's ``cdist`` (the distance-slab reference kernel) is
#: available.  The native slab is pinned to cdist's left-to-right
#: accumulation order, so native mode requires it.
HAVE_SCIPY_CDIST = _cdist is not None

#: Every finite float64 is an integer multiple of ``2**-SCALE_BITS``.  The
#: fixed-point constants are defined here, in the lowest layer;
#: :mod:`repro.utils.exactsum` and the native kernels import them.
SCALE_BITS = 1074

#: ``2**53`` — scaling a frexp mantissa (``0.5 <= |m| < 1``) by this yields
#: an exact integer with at most 53 bits (the frexp-based
#: :func:`repro.utils.exactsum.fixed_point_sum` and native kernel use it).
_MANTISSA_SCALE = float(1 << 53)

#: Longest summation segment: ``512 * 2**53 < 2**63`` guarantees the int64
#: segment sums cannot overflow.
_SEGMENT = 512

#: The float64 bit fields the column kernel reads: 52 fraction bits below an
#: 11-bit biased exponent field.
_FRACTION_BITS = 52
_FRACTION_MASK = (1 << _FRACTION_BITS) - 1
_EXPONENT_MASK = 0x7FF

#: Shifts a fixed-point limb may carry.  frexp-style (native) subnormal
#: limbs go down to ``-52``; this module's column kernel emits ``0 ..
#: 2045``, and ``2045`` is the largest finite float64's (the all-ones
#: exponent field is inf/nan).
_MIN_SHIFT = -52
_MAX_SHIFT = 2045

#: Floor of the column kernel's scratch-table bound (entries).
_MIN_TABLE = 1 << 16


def squared_distance_slab(queries: np.ndarray,
                          data: np.ndarray) -> np.ndarray:
    """Exact ``(q, n)`` squared Euclidean distances, by direct differencing.

    scipy's ``cdist`` accumulates ``(x_a - y_a)^2`` left-to-right over the
    axes — the order the native kernel replicates term for term.
    """
    if _cdist is not None:
        return _cdist(queries, data, metric="sqeuclidean")
    difference = queries[:, None, :] - data[None, :, :]
    return np.einsum("qnd,qnd->qn", difference, difference)


def squared_distance_gather(queries: np.ndarray,
                            neighbors: np.ndarray) -> np.ndarray:
    """Squared distances from each query to its own ``(q, k, d)`` candidate
    set, translate-to-origin (see
    :func:`repro.neighbors._distance.squared_distance_gather` for why this
    is bitwise the slab kernel's value)."""
    difference = neighbors - queries[:, None, :]
    if _cdist is not None:
        q, k, d = difference.shape
        flat = np.ascontiguousarray(difference.reshape(q * k, d))
        return _cdist(flat, np.zeros((1, d)),
                      metric="sqeuclidean").reshape(q, k)
    return np.einsum("qkd,qkd->qk", difference, difference)


def fused_box_labels(points: np.ndarray, shifts: np.ndarray,
                     width: float) -> np.ndarray:
    """The grid hash ``floor((x - shift) / width)`` as ``(n, k)`` int64.

    One scalar sequence per coordinate — subtract, divide, floor, cast —
    which is what the native kernel fuses into a single pass (no
    intermediate ``(n, k)`` float temporaries).
    """
    return np.floor((points - shifts[None, :]) / width).astype(np.int64)


def fused_interval_labels(values: np.ndarray, width: float,
                          offset: float = 0.0) -> np.ndarray:
    """Elementwise interval hash ``floor((v - offset) / width)`` (any shape)."""
    return np.floor((values - offset) / width).astype(np.int64)


def fixed_point_column_partials(
    matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact fixed-point partial sums of a ``(q, k)`` float matrix, as
    integer arrays.

    Decomposes every column's exact sum (in ``2**-SCALE_BITS`` units, see
    :mod:`repro.utils.exactsum`) into ``(limb, shift)`` pairs: entry ``i``
    contributes ``limbs[i] * 2**shifts[i]`` to column ``columns[i]``'s
    total.  The partial is plain fixed-width integers, picklable without
    arbitrary-precision payloads and producible by a compiled kernel.

    No float operation, sort or per-element Python loop: the sign, the
    biased exponent field ``E`` and the 52-bit fraction ``F`` are read from
    the float64 bits, and in ``2**-SCALE_BITS`` units each value is
    ``±(2**52 * [E > 0] + F) * 2**(E - [E > 0])``.  The distinct shifts
    present are ranked, and each (``_SEGMENT``-row chunk, shift, column)
    bucket is summed by one ``np.add.at`` into an int64 table:
    ``_SEGMENT * 2**53 < 2**63``, so no bucket can overflow.  Columns are
    processed in slabs whose table stays within ``max(q * k, 2**16)``
    entries, so a matrix spanning all 2046 exponents needs no more scratch
    than a few copies of its input.

    The decomposition itself is *not* canonical (the native kernel emits a
    different but equivalent one); the **merged total** per column —
    ``sum(limbs[i] << shifts[i])`` over the column's entries, exact integer
    arithmetic — is canonical, and equals
    :func:`repro.utils.exactsum.fixed_point_sum` of the column bit for bit.

    Returns
    -------
    (limbs, shifts, columns):
        Equal-length ``int64`` arrays (empty for an empty matrix).
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    q, k = matrix.shape
    empty = np.empty(0, dtype=np.int64)
    if q == 0 or k == 0:
        return empty, empty, empty
    bits = matrix.view(np.int64)
    # E, then the shift E - [E > 0]; the integer 2**52 * [E > 0] + F.
    element_shifts = bits >> _FRACTION_BITS
    element_shifts &= _EXPONENT_MASK
    normal = element_shifts != 0
    integers = bits & _FRACTION_MASK
    integers |= np.left_shift(normal, _FRACTION_BITS, dtype=np.int64)
    element_shifts -= normal
    del normal
    # The sign bit as 0 / -1: (magnitude ^ sign) - sign is the signed value.
    signs = bits >> 63
    integers ^= signs
    integers -= signs
    del signs
    present = np.zeros(_MAX_SHIFT + 1, dtype=bool)
    present[element_shifts] = True
    distinct = np.flatnonzero(present)
    ranks = (np.cumsum(present) - 1)[element_shifts]
    del element_shifts
    num_shifts = distinct.shape[0]
    chunk_of_row = np.arange(q) // _SEGMENT
    chunks = int(chunk_of_row[-1]) + 1
    width = max(1, max(q * k, _MIN_TABLE) // (chunks * num_shifts))
    limbs, shifts, columns = [], [], []
    for start in range(0, k, width):
        stop = min(start + width, k)
        span = stop - start
        # Bucket (chunk, shift rank, column) of each element in the slab.
        buckets = ranks[:, start:stop] * span
        buckets += np.arange(span)
        buckets += (chunk_of_row * (num_shifts * span))[:, None]
        table = np.zeros(chunks * num_shifts * span, dtype=np.int64)
        np.add.at(table, buckets.ravel(), integers[:, start:stop].ravel())
        del buckets
        hits = np.flatnonzero(table)
        limbs.append(table[hits])
        shifts.append(distinct[hits // span % num_shifts])
        columns.append(hits % span + start)
    return (np.concatenate(limbs), np.concatenate(shifts),
            np.concatenate(columns))
