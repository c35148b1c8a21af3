"""Exact, partition-independent summation of float64 values.

The library's central invariant — the neighbor-backend choice never moves a
byte of any release — extends in this PR to *floating-point aggregates*:
GoodCenter's NoisyAVG stage now consumes masked sums that shards computed
independently.  Plain float addition cannot keep that promise: it is not
associative, so a sum split across 2 shards and the same sum split across 7
shards round differently in the last ulp.  This module solves it by summing
in **exact fixed-point integers**:

* every finite ``float64`` is an integer multiple of ``2**-1074`` (the
  smallest subnormal), so ``x * 2**1074`` is an exact Python integer of at
  most ~2100 bits;
* integer addition is exact and associative, so per-shard partial sums merge
  into the same total no matter how the rows were partitioned or in which
  order the partials arrive;
* the single final conversion back to ``float64`` (``int / int`` true
  division, correctly rounded in CPython) yields the correctly-rounded sum —
  a *canonical* value every code path reproduces bit-for-bit.

The kernel is vectorised: ``np.frexp`` splits all values at once, mantissas
sharing an exponent are grouped and summed with ``np.add.reduceat`` in
segments short enough that the ``int64`` partials cannot overflow
(``512 * 2**53 < 2**63``), and only the per-segment fold runs in Python — a
few thousand big-int operations for a million inputs.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro import kernels
# The fixed-point constants: the scale (every finite float64 is an integer
# multiple of ``2**-SCALE_BITS``), the exact mantissa scaling, and the
# longest ``np.add.reduceat`` segment whose int64 sums cannot overflow.
from repro.kernels._reference import _MANTISSA_SCALE, _SEGMENT, SCALE_BITS


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
    equivalent ones), and of the fold order.  Negative shifts only arise
    from subnormal limbs, whose mantissa integers are divisible by the
    deficit — the right-shift is exact (same argument as
    :func:`fixed_point_sum`).
    """
    totals = [0] * int(num_columns)
    for limbs, shifts, columns in partials:
        for limb, shift, column in zip(np.asarray(limbs).tolist(),
                                       np.asarray(shifts).tolist(),
                                       np.asarray(columns).tolist()):
            totals[column] += limb << shift if shift >= 0 else limb >> -shift
    return totals


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


def merge_fixed_point(partials: Iterable) -> List[int]:
    """Fold per-shard column partials (iterables of ints) by exact integer
    addition.  Associative and order-independent by construction; the sharded
    backend still folds in deterministic shard order so the merge is easy to
    audit."""
    totals: List[int] = []
    for partial in partials:
        if not totals:
            totals = [int(value) for value in partial]
            continue
        if len(partial) != len(totals):
            raise ValueError("column partials have mismatched widths")
        totals = [total + int(value) for total, value in zip(totals, partial)]
    return totals


def fixed_point_to_float(total: int) -> float:
    """The correctly-rounded ``float64`` value of a fixed-point total.

    ``int / int`` true division is correctly rounded in CPython, so this is
    the canonical (partition-independent) rounding of the exact sum.
    """
    try:
        return total / (1 << SCALE_BITS)
    except OverflowError:  # pragma: no cover - astronomically large sums
        return float("inf") if total > 0 else float("-inf")


def exact_column_sums(matrix) -> np.ndarray:
    """Correctly-rounded per-column sums of a ``(q, k)`` float matrix.

    The convenience composition of :func:`fixed_point_column_sums` and
    :func:`fixed_point_to_float`: the value every backend's masked-sum query
    returns, and the value :func:`repro.mechanisms.noisy_average.noisy_average`
    feeds its selected-average — one definition, so the in-parent and
    shard-merged paths cannot drift apart.
    """
    return np.asarray([
        fixed_point_to_float(total)
        for total in fixed_point_column_sums(matrix)
    ], dtype=float)


__all__ = [
    "SCALE_BITS",
    "exact_column_sums",
    "fixed_point_column_partials",
    "fixed_point_column_sums",
    "fixed_point_sum",
    "fixed_point_to_float",
    "merge_column_partials",
    "merge_fixed_point",
]
