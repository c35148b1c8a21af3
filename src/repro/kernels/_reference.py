"""Pure-python (numpy/scipy) hot kernels — the defining implementations.

Every function here is the bit-level *specification* its native counterpart
in :mod:`repro.kernels._native` must reproduce.  The bodies are the exact
numpy expressions the library used before kernel dispatch existed, moved
here so both kernel sets live behind one import seam
(:mod:`repro.kernels`).

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
#: an exact integer with at most 53 bits.
_MANTISSA_SCALE = float(1 << 53)

#: Longest summation segment: ``512 * 2**53 < 2**63`` guarantees the int64
#: segment sums cannot overflow.
_SEGMENT = 512


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
    total.  Each limb is a sum of at most ``_SEGMENT`` 53-bit mantissa
    integers sharing one exponent, so it fits int64 with headroom — the
    whole partial is plain fixed-width integers, picklable without
    arbitrary-precision payloads and producible by a compiled kernel.

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
    matrix = np.asarray(matrix, dtype=float)
    q, k = matrix.shape
    empty = np.empty(0, dtype=np.int64)
    if q == 0 or k == 0:
        return empty, empty, empty
    mantissas, exponents = np.frexp(matrix)
    integers = (mantissas * _MANTISSA_SCALE).astype(np.int64)
    shifts = exponents.astype(np.int64) + (SCALE_BITS - 53)
    flat_integers = np.ascontiguousarray(integers.T).reshape(-1)
    flat_shifts = np.ascontiguousarray(shifts.T).reshape(-1)
    flat_columns = np.repeat(np.arange(k, dtype=np.int64), q)
    # Group by (column, shift): primary key last in lexsort.
    order = np.lexsort((flat_shifts, flat_columns))
    flat_integers = flat_integers[order]
    flat_shifts = flat_shifts[order]
    flat_columns = flat_columns[order]
    change = (np.diff(flat_shifts) != 0) | (np.diff(flat_columns) != 0)
    group_starts = np.concatenate(
        [[0], np.flatnonzero(change) + 1, [flat_shifts.shape[0]]]
    )
    starts = []
    for index in range(group_starts.shape[0] - 1):
        starts.extend(range(int(group_starts[index]),
                            int(group_starts[index + 1]), _SEGMENT))
    starts = np.asarray(starts, dtype=np.int64)
    limbs = np.add.reduceat(flat_integers, starts).astype(np.int64)
    return limbs, flat_shifts[starts], flat_columns[starts]
