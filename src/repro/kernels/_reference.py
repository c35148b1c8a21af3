"""Pure-python (numpy/scipy) hot kernels — the defining implementations.

Every function here is the bit-level *specification* its native counterpart
in :mod:`repro.kernels._native` must reproduce.  The distance and label
bodies are the exact numpy expressions the library used before kernel
dispatch existed, moved here so both kernel sets live behind one import seam
(:mod:`repro.kernels`).  The fixed-point column kernel is specified by its
merged totals, not its bytes: it splits each row block with ``np.frexp``,
the same decomposition the native kernel makes per element, and either
sums each column in int64 after aligning the block to its smallest
exponent (a block spanning few binades) or sums the mantissa integers per
(exponent, column) bucket (see its docstring).

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
#: an exact integer with at most 53 bits (every fixed-point kernel uses it).
_MANTISSA_SCALE = float(1 << 53)

#: Longest summation segment: ``512 * 2**53 < 2**63`` guarantees the int64
#: segment sums cannot overflow.  The column kernel's row block.
_SEGMENT = 512

#: Shifts a fixed-point limb may carry: a frexp exponent ``e`` of a finite
#: float64 lies in ``[-1073, 1024]``, and its shift ``e + 1021`` in ``[-52,
#: 2045]``.  Both column kernels emit the whole range; negative shifts are
#: subnormals'.
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

    No sort and no per-element Python loop.  The rows are taken in blocks
    of at most ``_SEGMENT``, and one ``np.frexp`` splits each block into
    mantissas ``m`` (``0.5 <= |m| < 1``, or 0) and exponents ``e``: the
    value is ``(m * 2**53) * 2**(e - 53)``, where ``m * 2**53`` and its
    int64 cast are exact.  Each block then takes one of two paths, chosen
    from the spread ``s = max(e) - min(e) + 1`` of its exponents (the
    binades it spans; a zero's exponent is 0):

    * **Dense**, when ``s + (rows - 1).bit_length() <= 63 - 52``.  With
      ``low = min(e)``, every value is an integer multiple of
      ``2**(low - 53)`` whose multiplier is below ``2**(52 + s)`` in
      magnitude, so ``np.ldexp(block, 53 - low)`` and its int64 cast are
      exact, and a column's sum of at most ``2**bit_length(rows - 1)``
      such integers stays below ``2**63``.  One int64 sum per column is
      the whole partial: one ``(limb, low + SCALE_BITS - 53, column)``
      entry per nonzero column, with no bucket table.  Narrow data, such
      as sample-and-aggregate block means over values of one scale, takes
      this path.
    * **Bucketed**, otherwise: in ``2**-SCALE_BITS`` units the shift of
      ``m * 2**53`` is ``e + 1021``, and each (exponent minus the block's
      smallest exponent, column) bucket is summed by one ``np.add.at``
      into an int64 table; a bucket holds at most ``_SEGMENT`` integers
      below ``2**53``, so it cannot overflow.  Columns are processed in
      slabs whose table stays within ``max(rows * k, 2**16)`` entries, so
      a block spanning all exponents needs no more scratch than a few
      copies of the block, and no scratch array outgrows one block.
      Blocks of wide spread (NoisyAVG's deltas, mixed scales, zeros among
      tiny values) need this path: one int64 per column would overflow.

    Either way a shift lies in ``[-52, 2045]`` and is negative only for a
    block reaching the subnormals (``min(e) < -1021``), whose values are
    all multiples of ``2**-SCALE_BITS``, so every limb with a negative
    shift is divisible by ``2**-shift``.

    The decomposition itself is *not* canonical (the native kernel flushes
    its accumulators at other points); the **merged total** per column —
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
    limbs, shifts, columns = [], [], []
    for top in range(0, q, _SEGMENT):
        block = matrix[top:top + _SEGMENT]
        integers, exponents = np.frexp(block)
        low = int(exponents.min())
        spread = int(exponents.max()) - low + 1
        if spread + (block.shape[0] - 1).bit_length() <= 63 - 52:
            # Dense: align every value to 2**(low - 53) in the mantissas'
            # buffer and sum each column in int64.
            sums = np.ldexp(block, 53 - low, out=integers.view(np.int64),
                            casting="unsafe").sum(axis=0)
            hits = np.flatnonzero(sums)
            limbs.append(sums[hits])
            shifts.append(np.full(hits.size, low + SCALE_BITS - 53,
                                  dtype=np.int64))
            columns.append(hits)
            continue
        # Scale the mantissas and cast them to int64 in their own buffer.
        integers = np.multiply(integers, _MANTISSA_SCALE,
                               out=integers.view(np.int64), casting="unsafe")
        width = max(1, max(integers.size, _MIN_TABLE) // spread)
        for start in range(0, k, width):
            stop = min(start + width, k)
            span = stop - start
            # Bucket (exponent - low, column) of each element in the slab.
            buckets = np.multiply(exponents[:, start:stop], span,
                                  dtype=np.intp)
            buckets += np.arange(-low * span, (1 - low) * span)
            table = np.zeros(spread * span, dtype=np.int64)
            np.add.at(table, buckets.ravel(), integers[:, start:stop].ravel())
            del buckets
            hits = np.flatnonzero(table)
            limbs.append(table[hits])
            shifts.append(hits // span + (low + SCALE_BITS - 53))
            columns.append(hits % span + start)
    return (np.concatenate(limbs), np.concatenate(shifts),
            np.concatenate(columns))
