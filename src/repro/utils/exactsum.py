"""Exact, partition-independent summation of float64 values.

The library's central invariant — the neighbor-backend choice never moves a
byte of any release — extends to *floating-point aggregates*: GoodCenter's
NoisyAVG stage and the sample-and-aggregate block means consume masked sums
that shards computed independently.  Plain float addition cannot keep that
promise: it is not associative, so a sum split across 2 shards and the same
sum split across 7 shards round differently in the last ulp.  This module
solves it by summing in **exact fixed-point integers**:

* every finite ``float64`` is an integer multiple of ``2**-1074`` (the
  smallest subnormal), so ``x * 2**1074`` is an exact Python integer of at
  most ~2100 bits;
* integer addition is exact and associative, so per-shard partial sums merge
  into the same total no matter how the rows were partitioned or in which
  order the partials arrive;
* the single final conversion back to ``float64`` (``int / int`` true
  division, correctly rounded in CPython) yields the correctly-rounded sum —
  a *canonical* value every code path reproduces bit-for-bit.

:func:`fixed_point_sum` is the one-dimensional definition: ``np.frexp``
splits all values at once, mantissas sharing an exponent are summed with
``np.add.reduceat`` in segments short enough that the ``int64`` partials
cannot overflow (``512 * 2**53 < 2**63``), and the per-segment fold runs in
Python.  The masked sums take the vectorised two-stage route instead, with
no sort and no per-element or per-entry Python loop.  The column kernel
(:func:`repro.kernels.fixed_point_column_partials`) splits each block of at
most 512 rows with one ``np.frexp`` and emits fixed-width ``(limb, shift,
column)`` triples by one of two paths, picked per block from the spread
``s`` of its exponents (the binades it spans):

* when ``s + (rows - 1).bit_length() <= 63 - 52``, every value is an
  integer multiple of ``2**(min exponent - 53)`` whose multiplier is below
  ``2**(52 + s)``, so the block is aligned with one exact ``np.ldexp`` and
  each column summed in int64 without overflow: one triple per column;
* otherwise the exact mantissa integers are summed per (exponent, column)
  bucket with one ``np.add.at`` (a small superaccumulator per column and
  block).  Blocks that span many binades, such as NoisyAVG's deltas around
  a centre or mixed-scale data, need it: one int64 per column would
  overflow.

:func:`merge_column_partials` sums the triples as base-``2**32`` digits in
an int64 table and builds one big integer per column, and
:func:`fixed_point_to_floats` rounds each total once.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro import kernels
# The fixed-point constants: the scale (every finite float64 is an integer
# multiple of ``2**-SCALE_BITS``), the exact mantissa scaling, the longest
# ``np.add.reduceat`` segment whose int64 sums cannot overflow, and the
# range of shifts a partial may carry.
from repro.kernels._reference import (
    _MANTISSA_SCALE,
    _MAX_SHIFT,
    _MIN_SHIFT,
    _SEGMENT,
    SCALE_BITS,
)

#: The fixed-point unit's reciprocal, ``2**SCALE_BITS``: a total divided by
#: it is the float it stands for.
_SCALE = 1 << SCALE_BITS

#: The merge adds this to every shift so digit positions are non-negative.
_SHIFT_BIAS = 64

#: One base-``2**32`` digit.
_DIGIT_MASK = (1 << 32) - 1

#: Each merge-table slot receives at most one digit below ``2**33`` per
#: entry, so fewer than ``2**29`` entries keep every slot (and the carries
#: into it) below ``2**63``.
_MAX_ENTRIES = 1 << 29


def fixed_point_sum(values) -> int:
    """The exact sum of float64 ``values`` in units of ``2**-SCALE_BITS``.

    Parameters
    ----------
    values:
        Array-like of finite floats (any shape; summed over all elements).

    Returns
    -------
    int
        ``sum(values) * 2**SCALE_BITS`` as an exact (arbitrary-precision)
        integer.  Partials from disjoint subsets merge by plain integer
        addition — exactly, in any order or grouping.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return 0
    if not np.all(np.isfinite(values)):
        raise ValueError("exact summation requires finite values")
    mantissas, exponents = np.frexp(values)
    integers = (mantissas * _MANTISSA_SCALE).astype(np.int64)
    # value = integer * 2**(exponent - 53), so in 2**-1074 units the shift is
    # exponent - 53 + 1074.  Subnormals give shifts as low as -52; their
    # mantissa integers are divisible by the deficit, so the right-shift
    # below is exact.
    shifts = exponents.astype(np.int64) + (SCALE_BITS - 53)
    order = np.argsort(shifts, kind="stable")
    integers = integers[order]
    shifts = shifts[order]
    group_starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(shifts)) + 1, [shifts.shape[0]]]
    )
    starts: List[int] = []
    for index in range(group_starts.shape[0] - 1):
        starts.extend(range(int(group_starts[index]),
                            int(group_starts[index + 1]), _SEGMENT))
    segment_sums = np.add.reduceat(integers, np.asarray(starts, dtype=np.int64))
    total = 0
    for start, segment in zip(starts, segment_sums):
        shift = int(shifts[start])
        value = int(segment)
        total += value << shift if shift >= 0 else value >> -shift
    return total


def fixed_point_column_partials(
    matrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column exact fixed-point partials as ``(limb, shift, column)``
    int64 arrays.

    Entry ``i`` contributes ``limbs[i] * 2**shifts[i]`` (in
    ``2**-SCALE_BITS`` units) to column ``columns[i]``'s total; folding a
    column's entries with exact integer arithmetic
    (:func:`merge_column_partials`) yields the identical canonical total as
    :func:`fixed_point_sum` of that column.  Unlike the big-int partials,
    these are fixed-width integer arrays — cheap to pickle across the
    sharded backend's process boundary and producible by the compiled
    kernel (:func:`repro.kernels.fixed_point_column_partials`, to which
    this validated wrapper dispatches).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise ValueError("exact summation requires finite values")
    return kernels.fixed_point_column_partials(matrix)


def merge_column_partials(num_columns: int, partials: Iterable) -> List[int]:
    """Fold ``(limbs, shifts, columns)`` partials into per-column exact
    big-int totals.

    Integer addition is exact and associative, so the totals are independent
    of how the rows were partitioned across partials, of each partial's
    internal decomposition (reference and native kernels emit different but
    equivalent ones), and of the fold order.

    The fold is vectorised.  Every shift is biased by ``+64`` (subnormal
    limbs carry shifts down to ``-52``), and each limb is split at
    bit position ``shift`` into three base-``2**32`` digits, each far below
    ``2**63``.  One ``np.add.at`` per digit sums them into a
    ``(digit, column)`` int64 table, one vectorised carry pass normalises
    it, and each column's total is read back with one ``int.from_bytes`` —
    Python work is O(columns), not O(entries).  A negative shift must come
    with a limb divisible by ``2**-shift`` (a subnormal's mantissa integer is
    divisible by its deficit), so every entry is an exact integer.

    The partials may come over the wire from remote nodes, so they are
    checked: ``ValueError`` unless each partial is three 1-d integer arrays
    of equal length with ``0 <= column < num_columns`` and
    ``-52 <= shift <= 2045``.
    """
    num_columns = int(num_columns)
    limbs, shifts, columns = _checked_partials(num_columns, partials)
    if limbs.size == 0:
        return [0] * num_columns
    biased = shifts + _SHIFT_BIAS
    words = biased >> 5
    offsets = biased & 31
    low = (limbs & _DIGIT_MASK) << offsets
    high = (limbs >> 32) << offsets
    first = int(words.min())
    width = int(words.max()) - first + 3
    slots = (words - first) * num_columns + columns
    table = np.zeros(width * num_columns, dtype=np.int64)
    np.add.at(table, slots, low & _DIGIT_MASK)
    slots += num_columns
    np.add.at(table, slots, (low >> 32) + (high & _DIGIT_MASK))
    slots += num_columns
    np.add.at(table, slots, high >> 32)
    table = table.reshape(width, num_columns)
    for digit in range(width - 1):
        table[digit + 1] += table[digit] >> 32
        table[digit] &= _DIGIT_MASK
    # Digits below the top one are now in [0, 2**32); the top one is signed.
    low_bytes = np.ascontiguousarray(table[:-1].T, dtype="<u4").tobytes()
    size = 4 * (width - 1)
    top_shift = 32 * (width - 1)
    scale = 32 * first - _SHIFT_BIAS
    totals = []
    for column, top in enumerate(table[-1].tolist()):
        total = (int.from_bytes(low_bytes[column * size:(column + 1) * size],
                                "little") + (top << top_shift))
        totals.append(total << scale if scale >= 0 else total >> -scale)
    return totals


def _checked_partials(num_columns: int, partials: Iterable):
    """Concatenate and validate ``(limbs, shifts, columns)`` partials (see
    :func:`merge_column_partials`)."""
    if num_columns < 0:
        raise ValueError(f"num_columns must be >= 0, got {num_columns}")
    collected = ([], [], [])
    for partial in partials:
        arrays = [np.asarray(part) for part in partial]
        if len(arrays) != 3 or any(
            array.ndim != 1 or array.dtype.kind not in "iu"
            or not np.can_cast(array.dtype, np.int64) for array in arrays
        ):
            raise ValueError("a column partial is three 1-d integer arrays "
                             "(limbs, shifts, columns) that fit int64")
        if not arrays[0].shape == arrays[1].shape == arrays[2].shape:
            raise ValueError("column partial arrays have unequal lengths")
        for pieces, array in zip(collected, arrays):
            pieces.append(array)
    limbs, shifts, columns = (
        np.concatenate(pieces).astype(np.int64, copy=False) if pieces
        else np.empty(0, dtype=np.int64)
        for pieces in collected
    )
    if limbs.size == 0:
        return limbs, shifts, columns
    if columns.min() < 0 or columns.max() >= num_columns:
        raise ValueError(
            f"column partial indexes a column outside [0, {num_columns})"
        )
    if shifts.min() < _MIN_SHIFT or shifts.max() > _MAX_SHIFT:
        raise ValueError(
            f"column partial shift outside [{_MIN_SHIFT}, {_MAX_SHIFT}]"
        )
    negative = shifts < 0
    if np.any(limbs[negative] & ((1 << -shifts[negative]) - 1)):
        raise ValueError(
            "column partial limb with a negative shift is not divisible by "
            "2**-shift"
        )
    if limbs.size >= _MAX_ENTRIES:
        raise ValueError(
            f"cannot merge {limbs.size} partial entries at once (limit "
            f"{_MAX_ENTRIES})"
        )
    return limbs, shifts, columns


def fixed_point_column_sums(matrix) -> List[int]:
    """Per-column :func:`fixed_point_sum` of a ``(q, k)`` matrix.

    Empty inputs give ``k`` zeros (``(0, k)``) — the identity partial an
    empty shard contributes.  Routed through the dispatched partials kernel
    (:func:`fixed_point_column_partials`); the fold reconstructs the same
    canonical per-column totals as summing each column directly.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    return merge_column_partials(
        matrix.shape[1], [fixed_point_column_partials(matrix)]
    )


def fixed_point_to_float(total: int) -> float:
    """The correctly-rounded ``float64`` value of a fixed-point total.

    ``int / int`` true division is correctly rounded in CPython, so this is
    the canonical (partition-independent) rounding of the exact sum.
    """
    try:
        return total / _SCALE
    except OverflowError:  # pragma: no cover - astronomically large sums
        return float("inf") if total > 0 else float("-inf")


def fixed_point_to_floats(totals: Iterable[int]) -> np.ndarray:
    """:func:`fixed_point_to_float` of each total, as a float array: the
    one conversion from merged column totals to a sum vector."""
    return np.asarray([fixed_point_to_float(total) for total in totals],
                      dtype=float)


def exact_column_sums(matrix) -> np.ndarray:
    """Correctly-rounded per-column sums of a ``(q, k)`` float matrix.

    The convenience composition of :func:`fixed_point_column_sums` and
    :func:`fixed_point_to_floats`: the value every backend's masked-sum
    query returns, and the value
    :func:`repro.mechanisms.noisy_average.noisy_average` feeds its
    selected-average — one definition, so the in-parent and shard-merged
    paths cannot drift apart.
    """
    return fixed_point_to_floats(fixed_point_column_sums(matrix))


__all__ = [
    "SCALE_BITS",
    "exact_column_sums",
    "fixed_point_column_partials",
    "fixed_point_column_sums",
    "fixed_point_sum",
    "fixed_point_to_float",
    "fixed_point_to_floats",
    "merge_column_partials",
]
