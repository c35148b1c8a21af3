"""The kernel dispatch layer: bitwise parity, exactness, import-time modes.

Three contracts are pinned here:

* **Bitwise parity.**  The native (numba) kernels must reproduce the
  pure-python reference kernels *bit for bit* on an adversarial zoo —
  duplicates, colinear points, denormals, signed zeros, huge/mixed scales,
  empty and singleton slabs — because every released value of the library is
  defined by the reference and ``REPRO_KERNELS`` must never move a byte.
  (Skipped when numba is not installed; CI runs it under the ``native``
  extra.)
* **Exact partials.**  ``fixed_point_column_partials`` is allowed to choose
  *any* decomposition into integer ``(limb, shift, column)`` triples, but the
  merged integer total per column must equal the canonical
  ``fixed_point_sum`` of that column — for any split of the rows, in any
  merge order, on inputs short and tall enough to cross the kernel's
  512-row blocks.  An earlier lexsort / ``np.add.reduceat`` kernel and its
  per-entry big-int fold are kept below as test-local oracles.  Every
  kernel splits with frexp, so subnormal shifts are negative (down to
  -52) and the merge must take them.  The reference kernel sums a block
  that spans few binades as one aligned int64 per column: the cases at
  its int64 bound, one binade past it, in the subnormals and with zeros
  among tiny values (which widen the spread) pin where that path may run.
  The reference kernel's scratch memory is bounded by one row block, not
  by the input.  Malformed partials (they can arrive from remote nodes)
  must raise, never mis-merge.
* **Import-time selection.**  ``REPRO_KERNELS=python`` forces the reference
  set, ``=native`` falls back (with a warning) when numba or scipy is
  missing, an invalid value raises, and the default is silent
  auto-detection.  These run in subprocesses: the choice is made once at
  import.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.kernels as kernels
from repro.kernels import _reference
from repro.utils.exactsum import (
    fixed_point_column_partials,
    fixed_point_column_sums,
    fixed_point_sum,
    fixed_point_to_float,
    merge_column_partials,
)

try:  # pragma: no cover - environment probe
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - environment probe
    HAVE_NUMBA = False

needs_native = pytest.mark.skipif(
    not kernels.HAVE_NATIVE,
    reason="native kernels unavailable (numba or scipy missing)",
)


def zoo_cases():
    """(name, queries, data) pairs built to break sloppy float kernels."""
    rng = np.random.default_rng(11)
    tiny = 5e-324                                   # smallest subnormal
    cases = [
        ("generic", rng.normal(size=(7, 3)), rng.normal(size=(5, 3))),
        ("high-dim", rng.normal(size=(3, 17)), rng.normal(size=(4, 17))),
        ("duplicates",
         np.repeat(rng.normal(size=(1, 4)), 6, axis=0),
         np.repeat(rng.normal(size=(1, 4)), 3, axis=0)),
        ("colinear",
         np.outer(np.arange(8.0), np.array([1.0, 2.0, -0.5])),
         np.outer(np.arange(5.0) - 2.0, np.array([1.0, 2.0, -0.5]))),
        ("denormal",
         np.array([[tiny, -tiny, 1e-310], [0.0, 2.2e-308, -1e-320]]),
         np.array([[0.0, 0.0, 0.0], [1e-310, -tiny, tiny]])),
        ("signed-zero",
         np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]),
         np.array([[-0.0, -0.0], [0.0, 0.0]])),
        ("mixed-scale",
         np.array([[1e150, 1e-150, 1.0], [-1e150, 3.0, 1e-300]]),
         np.array([[1e150, 0.0, -1.0], [7.0, -1e-150, 0.5]])),
        ("empty-queries", np.empty((0, 3)), rng.normal(size=(4, 3))),
        ("empty-data", rng.normal(size=(4, 3)), np.empty((0, 3))),
        ("singleton", rng.normal(size=(1, 5)), rng.normal(size=(1, 5))),
    ]
    return cases


def assert_bitwise(got, expected, label):
    got = np.asarray(got)
    expected = np.asarray(expected)
    assert got.shape == expected.shape, label
    assert got.dtype == expected.dtype, label
    assert got.tobytes() == expected.tobytes(), label


def oracle_column_partials(matrix):
    """A sorting column kernel: frexp mantissas lexsorted by (column,
    shift) and summed in ``np.add.reduceat`` segments of at most
    ``_SEGMENT`` entries.  Subnormals get negative shifts (down to -52)."""
    matrix = np.asarray(matrix, dtype=float)
    q, k = matrix.shape
    empty = np.empty(0, dtype=np.int64)
    if q == 0 or k == 0:
        return empty, empty, empty
    mantissas, exponents = np.frexp(matrix)
    integers = (mantissas * _reference._MANTISSA_SCALE).astype(np.int64)
    shifts = exponents.astype(np.int64) + (_reference.SCALE_BITS - 53)
    flat_integers = np.ascontiguousarray(integers.T).reshape(-1)
    flat_shifts = np.ascontiguousarray(shifts.T).reshape(-1)
    flat_columns = np.repeat(np.arange(k, dtype=np.int64), q)
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
                            int(group_starts[index + 1]), _reference._SEGMENT))
    starts = np.asarray(starts, dtype=np.int64)
    limbs = np.add.reduceat(flat_integers, starts).astype(np.int64)
    return limbs, flat_shifts[starts], flat_columns[starts]


def oracle_fold(num_columns, partials):
    """The merge before the digit table: one big-int fold per entry."""
    totals = [0] * num_columns
    for limbs, shifts, columns in partials:
        for limb, shift, column in zip(np.asarray(limbs).tolist(),
                                       np.asarray(shifts).tolist(),
                                       np.asarray(columns).tolist()):
            totals[column] += limb << shift if shift >= 0 else limb >> -shift
    return totals


DBL_MAX = np.finfo(float).max
MAX_BELOW_TWO = np.nextafter(2.0, 0.0)          # mantissa 2**53 - 1


def all_exponents_row():
    """One row, one column per shift: every biased exponent 1..2046, random
    fractions and signs."""
    rng = np.random.default_rng(17)
    bits = ((np.arange(1, 2047, dtype=np.int64) << 52)
            | rng.integers(0, 1 << 52, size=2046))
    signs = np.where(rng.random(2046) < 0.5, -1.0, 1.0)
    return (bits.view(np.float64) * signs)[None, :]


def exponent_spread():
    """1500 x 600 with magnitudes over +-300 decades: nearly every (column,
    exponent) group holds one value."""
    rng = np.random.default_rng(19)
    return rng.normal(size=(1500, 600)) * 10.0 ** rng.integers(
        -300, 300, size=(1500, 600))


def across_blocks():
    """1100 rows, three 512-row blocks: signed zeros (frexp exponent 0)
    among subnormals, and +-DBL_MAX among +-nextafter(2, 0)."""
    rng = np.random.default_rng(23)
    tiny = 5e-324
    small = rng.choice([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -3e-320],
                       size=1100)
    large = rng.choice([DBL_MAX, -DBL_MAX, MAX_BELOW_TWO, -MAX_BELOW_TWO],
                       size=1100)
    return np.column_stack([small, large])


def tall_narrow():
    """25,000 x 64 near 0.5: few exponents, 49 row blocks."""
    return np.random.default_rng(29).normal(0.5, 0.05, size=(25_000, 64))


def dense_limit_block():
    """512 rows spanning two binades with the largest mantissas of both
    signs: aligned to 0.5's exponent, columns 0 and 1 sum to
    ``+-(2**63 - 1024)``, int64's limit for the dense path; columns 2 and
    3 mix both binades."""
    matrix = np.tile([MAX_BELOW_TWO, -MAX_BELOW_TWO, MAX_BELOW_TWO,
                      -MAX_BELOW_TWO], (512, 1))
    matrix[::2, 2:] = [0.5, -0.5]
    return matrix


def dense_limit_plus_quarter():
    """The limit block with one 0.25: three binades, one past the dense
    bound, where one aligned column sum would overflow int64."""
    matrix = dense_limit_block()
    matrix[7, 2] = 0.25
    return matrix


def narrow_subnormals():
    """40 x 3 subnormals of 21 or 22 significant bits: two binades below
    the normals, so an aligned sum carries a negative shift."""
    rng = np.random.default_rng(31)
    units = rng.integers(1 << 20, 1 << 22, size=(40, 3))
    return units * 5e-324 * np.where(rng.random((40, 3)) < 0.5, -1.0, 1.0)


def zeros_among_tiny():
    """Zeros (frexp exponent 0) among values near 1e-300: a wide spread."""
    rng = np.random.default_rng(37)
    tiny = rng.uniform(1e-300, 2e-300, size=(60, 3))
    return np.where(rng.random((60, 3)) < 0.3, 0.0, tiny)


def exactness_cases():
    """(name, builder) pairs of the matrices the reference partials must
    sum exactly."""
    rng = np.random.default_rng(5)
    tiny = 5e-324
    return [
        ("generic", lambda: rng.normal(size=(37, 4))),
        ("duplicates",
         lambda: np.repeat(rng.normal(size=(1, 3)), 20, axis=0)),
        ("denormal", lambda: np.array([[tiny, -tiny], [1e-310, 0.0],
                                       [-0.0, 3e-320]])),
        ("mixed-scale", lambda: rng.normal(size=(600, 2)) *
         10.0 ** rng.integers(-200, 200, size=(600, 2))),
        ("cancellation", lambda: np.array([[1e16, 1.0], [-1e16, -1.0],
                                           [1.0, 1e-8]])),
        ("single-row", lambda: rng.normal(size=(1, 6))),
        ("empty", lambda: np.empty((0, 3))),
        # 1537 = 3 * 512 + 1 rows of the largest mantissa in one (column,
        # shift) group: an unchunked int64 bucket sum would overflow.
        ("max-mantissa", lambda: np.tile(
            [MAX_BELOW_TWO, -MAX_BELOW_TWO, DBL_MAX, -DBL_MAX], (1537, 1))),
        ("all-exponents", all_exponents_row),
        ("exponent-spread", exponent_spread),
        ("across-blocks", across_blocks),
        ("dense-limit", dense_limit_block),
        ("dense-limit-plus-quarter", dense_limit_plus_quarter),
        ("narrow-subnormals", narrow_subnormals),
        ("zeros-among-tiny", zeros_among_tiny),
    ]


@st.composite
def mixed_matrices(draw, max_rows=80):
    """Mixed magnitudes, subnormals, signed zeros and heavy duplication,
    or a narrow band (uniform on [1, 2) times one power of two, both signs)
    that the column kernel sums densely unless specials widen it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = draw(st.integers(0, max_rows))
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        signs = np.where(rng.random((q, k)) < 0.5, -1.0, 1.0)
        matrix = signs * rng.uniform(1.0, 2.0, size=(q, k)) * 2.0 ** draw(
            st.integers(-1070, 1022))
    else:
        matrix = rng.normal(size=(q, k)) * 10.0 ** rng.integers(
            -300, 300, size=(q, k))
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320,
                         2.2e-308, 1.0, -1.0, MAX_BELOW_TWO, DBL_MAX,
                         -DBL_MAX])
    special = rng.random((q, k)) < draw(st.floats(0.0, 1.0))
    matrix[special] = rng.choice(specials, size=int(special.sum()))
    if q and draw(st.booleans()):
        matrix = matrix[rng.integers(0, min(q, 3), size=q)]
    return matrix


def cut_rows(matrix, data):
    """``matrix`` cut into row blocks at up to four drawn rows."""
    q = matrix.shape[0]
    cuts = sorted(data.draw(st.lists(st.integers(0, q), max_size=4)))
    bounds = [0, *cuts, q]
    return [matrix[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class TestReferenceExactness:
    """The reference partials against the canonical big-int column sums."""

    @pytest.mark.parametrize("case", range(len(exactness_cases())))
    def test_partials_merge_to_canonical_sums(self, case):
        name, build = exactness_cases()[case]
        matrix = build()
        limbs, shifts, columns = fixed_point_column_partials(matrix)
        assert limbs.dtype == shifts.dtype == columns.dtype == np.int64
        totals = merge_column_partials(matrix.shape[1],
                                       [(limbs, shifts, columns)])
        expected = [fixed_point_sum(matrix[:, j])
                    for j in range(matrix.shape[1])]
        assert totals == expected, name
        assert fixed_point_column_sums(matrix) == expected, name

    @pytest.mark.parametrize("splits", [1, 2, 3, 7])
    def test_any_row_split_merges_identically(self, splits):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(101, 3)) * 10.0 ** rng.integers(
            -100, 100, size=(101, 3)
        )
        whole = merge_column_partials(3, [fixed_point_column_partials(matrix)])
        bounds = np.linspace(0, matrix.shape[0], splits + 1).astype(int)
        parts = [fixed_point_column_partials(matrix[a:b])
                 for a, b in zip(bounds[:-1], bounds[1:])]
        assert merge_column_partials(3, parts) == whole
        assert merge_column_partials(3, parts[::-1]) == whole

    def test_merged_totals_round_trip_to_float(self):
        matrix = np.array([[0.1, 1e-300], [0.2, 5e-324], [0.3, -1e-310]])
        totals = merge_column_partials(2, [fixed_point_column_partials(matrix)])
        for j in range(2):
            assert fixed_point_to_float(totals[j]) == math.fsum(matrix[:, j])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fixed_point_column_partials(np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError, match="finite"):
            fixed_point_column_partials(np.array([[np.nan, 0.0]]))

    @settings(max_examples=60, deadline=None)
    @given(matrix=mixed_matrices(), data=st.data())
    def test_kernel_and_merge_match_the_oracles(self, matrix, data):
        k = matrix.shape[1]
        blocks = cut_rows(matrix, data)
        expected = [fixed_point_sum(matrix[:, j]) for j in range(k)]
        new = [_reference.fixed_point_column_partials(block)
               for block in blocks]
        old = [oracle_column_partials(block) for block in blocks]
        assert merge_column_partials(k, new[::-1]) == expected
        assert oracle_fold(k, old) == expected
        assert oracle_fold(k, new) == expected
        # The sorting oracle's partials (one entry per 512 values of a
        # (column, shift) group, as the native kernel flushes) through the
        # digit-table merge.
        assert merge_column_partials(k, old[::-1]) == expected

    @pytest.mark.slow
    @settings(max_examples=40, deadline=None)
    @given(matrix=mixed_matrices(max_rows=1600), data=st.data())
    def test_tall_matrices_merge_to_the_canonical_sums(self, matrix, data):
        """The twin above over several 512-row blocks, for the reference
        and the dispatched kernel."""
        k = matrix.shape[1]
        blocks = cut_rows(matrix, data)
        expected = [fixed_point_sum(matrix[:, j]) for j in range(k)]
        for kernel in (_reference.fixed_point_column_partials,
                       kernels.fixed_point_column_partials):
            parts = [kernel(block) for block in blocks]
            assert merge_column_partials(k, parts[::-1]) == expected

    def test_merge_takes_negative_subnormal_shifts(self):
        tiny = 5e-324
        matrix = np.array([[tiny, -3 * tiny, 1e-310],
                           [2.2e-308, tiny, -1e-320],
                           [-tiny, 7 * tiny, 1.0]])
        for kernel in (oracle_column_partials,
                       _reference.fixed_point_column_partials):
            partials = kernel(matrix)
            assert partials[1].min() == -52, kernel.__name__
            assert merge_column_partials(3, [partials]) == [
                fixed_point_sum(matrix[:, j]) for j in range(3)]

    def test_narrow_block_gives_one_limb_per_column(self):
        """A shard's 98-row block of N(0.5, 0.05) spans two binades: one
        aligned int64 sum per column, not one limb per (column,
        exponent)."""
        block = np.random.default_rng(41).normal(0.5, 0.05, size=(98, 512))
        limbs, shifts, columns = _reference.fixed_point_column_partials(block)
        assert np.unique(columns).size == columns.size
        assert merge_column_partials(512, [(limbs, shifts, columns)]) == [
            fixed_point_sum(block[:, j]) for j in range(512)]

    def test_dense_path_runs_up_to_the_int64_bound(self):
        """Two binades over 512 rows still take one limb per column; a
        third binade sends the block back to the exponent buckets, one
        limb per (column, exponent)."""
        _, _, columns = _reference.fixed_point_column_partials(
            dense_limit_block())
        assert np.bincount(columns).tolist() == [1, 1, 1, 1]
        _, _, columns = _reference.fixed_point_column_partials(
            dense_limit_plus_quarter())
        assert np.bincount(columns).tolist() == [1, 1, 3, 2]

    @pytest.mark.parametrize("build, factor, slack", [
        pytest.param(all_exponents_row, 16, 1 << 20, id="all_exponents_row"),
        pytest.param(exponent_spread, 16, 1 << 20, id="exponent_spread"),
        pytest.param(tall_narrow, 0.25, 0, id="tall_narrow"),
    ])
    def test_scratch_memory_is_bounded(self, build, factor, slack):
        """Column slabs keep the bucket table near a row block's size, even
        when every column spans all exponents, and no scratch array
        outgrows one 512-row block, so a tall input needs a fraction of
        its own size."""
        matrix = build()
        tracemalloc.start()
        try:
            _reference.fixed_point_column_partials(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= factor * matrix.nbytes + slack


class TestMergeValidation:
    """Partials cross the wire from remote nodes: malformed ones raise."""

    @pytest.mark.parametrize("partial", [
        ([5], [0], [-1]),                  # used to land in the last column
        ([5, 7], [0], [0, 1]),             # used to be cut short by zip
        ([5], [0], [2]),                   # column >= num_columns
        ([5], [-53], [0]),                 # below the subnormal floor
        ([5], [2046], [0]),                # above the largest exponent
        ([3], [-1], [0]),                  # inexact subnormal limb
        ([5.0], [0], [0]),                 # float limbs
        ([[5]], [[0]], [[0]]),             # not 1-d
        (np.array([5], dtype=np.uint64), [0], [0]),
        ([5], [0]),                        # not a triple
    ])
    def test_malformed_partials_raise(self, partial):
        with pytest.raises(ValueError):
            merge_column_partials(2, [partial])

    def test_entry_limit_guards_the_digit_table(self, monkeypatch):
        from repro.utils import exactsum

        monkeypatch.setattr(exactsum, "_MAX_ENTRIES", 2)
        assert merge_column_partials(1, [([1], [0], [0])]) == [1]
        with pytest.raises(ValueError, match="entries"):
            merge_column_partials(1, [([1, 2], [0, 0], [0, 0])])

    def test_well_formed_edges(self):
        assert merge_column_partials(2, []) == [0, 0]
        assert merge_column_partials(2, [([4], [-2], [1])]) == [0, 1]
        limb = (1 << 63) - 1
        assert merge_column_partials(1, [
            (np.array([limb, -limb - 1]), np.array([2045, 0]),
             np.array([0, 0])),
        ]) == [(limb << 2045) - (1 << 63)]


@needs_native
class TestNativeBitwiseParity:
    """Native kernels == reference kernels, byte for byte, on the zoo."""

    @pytest.mark.parametrize("case", range(len(zoo_cases())))
    def test_distance_slab(self, case):
        from repro.kernels import _native

        name, queries, data = zoo_cases()[case]
        got = _native.squared_distance_slab(queries, data)
        expected = _reference.squared_distance_slab(queries, data)
        assert_bitwise(got, expected, name)

    @pytest.mark.parametrize("case", range(len(zoo_cases())))
    def test_distance_gather(self, case):
        from repro.kernels import _native

        name, queries, data = zoo_cases()[case]
        if queries.shape[0] == 0 or data.shape[0] == 0:
            neighbors = np.empty((queries.shape[0], 0, queries.shape[1]))
        else:
            take = np.resize(np.arange(data.shape[0]),
                             (queries.shape[0], min(3, data.shape[0])))
            neighbors = data[take]
        got = _native.squared_distance_gather(queries, neighbors)
        expected = _reference.squared_distance_gather(queries, neighbors)
        assert_bitwise(got, expected, name)

    def test_boundary_radii_thresholding(self):
        """Counts at radii equal to *exact* pairwise distances cannot differ:
        the slab values themselves are bitwise equal."""
        from repro.kernels import _native

        rng = np.random.default_rng(23)
        queries, data = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        expected = _reference.squared_distance_slab(queries, data)
        got = _native.squared_distance_slab(queries, data)
        assert_bitwise(got, expected, "slab")
        for key in expected.ravel()[:: 7]:
            assert np.array_equal(
                np.count_nonzero(got <= key, axis=1),
                np.count_nonzero(expected <= key, axis=1),
            )

    @pytest.mark.parametrize("case", range(len(zoo_cases())))
    def test_box_labels(self, case):
        from repro.kernels import _native

        name, points, _ = zoo_cases()[case]
        rng = np.random.default_rng(case)
        for width in (0.7, 1e-3, 1e6):
            shifts = rng.uniform(-width, width, size=points.shape[1])
            got = _native.fused_box_labels(points, shifts, width)
            expected = _reference.fused_box_labels(points, shifts, width)
            assert_bitwise(got, expected, f"{name}/width={width}")

    def test_interval_labels_arbitrary_shape(self):
        from repro.kernels import _native

        rng = np.random.default_rng(2)
        values = rng.normal(size=(5, 4)) * 10.0
        for offset in (0.0, -0.3, 2.5):
            got = _native.fused_interval_labels(values, 0.9, offset)
            expected = _reference.fused_interval_labels(values, 0.9, offset)
            assert_bitwise(got, expected, f"offset={offset}")

    @pytest.mark.parametrize("case", range(len(zoo_cases())))
    def test_column_partials_merge_equal(self, case):
        """The decompositions may differ; the merged totals may not."""
        from repro.kernels import _native

        name, matrix, _ = zoo_cases()[case]
        native = _native.fixed_point_column_partials(matrix)
        reference = _reference.fixed_point_column_partials(matrix)
        assert all(np.asarray(part).dtype == np.int64 for part in native)
        k = matrix.shape[1]
        assert (merge_column_partials(k, [native])
                == merge_column_partials(k, [reference])), name

    def test_column_partials_segment_overflow_guard(self):
        """Columns long enough to force multiple 512-entry limb flushes."""
        from repro.kernels import _native

        rng = np.random.default_rng(31)
        matrix = np.full((2000, 2), (2.0 - 2.0 ** -52))    # max mantissas
        matrix[:, 1] = rng.normal(size=2000)
        native = _native.fixed_point_column_partials(matrix)
        reference = _reference.fixed_point_column_partials(matrix)
        assert (merge_column_partials(2, [native])
                == merge_column_partials(2, [reference]))


def run_probe(code, mode=None):
    """Import repro.kernels in a subprocess under a given REPRO_KERNELS."""
    env = dict(os.environ)
    env.pop(kernels.KERNEL_ENV_VAR, None)
    if mode is not None:
        env[kernels.KERNEL_ENV_VAR] = mode
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


PROBE = """
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro.kernels as kernels
relevant = [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "kernels" in str(w.message)]
print(kernels.KERNEL_MODE, kernels.kernel_info()["requested"], len(relevant))
"""


class TestImportTimeSelection:
    """REPRO_KERNELS is honoured (or rejected) once, at import."""

    def test_python_mode_forced(self):
        probe = run_probe(PROBE, mode="python")
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.split() == ["python", "python", "0"]

    def test_native_mode_requires_numba(self):
        probe = run_probe(PROBE, mode="native")
        assert probe.returncode == 0, probe.stderr
        mode, requested, warned = probe.stdout.split()
        assert requested == "native"
        if HAVE_NUMBA:
            assert (mode, warned) == ("native", "0")
        else:
            # The import-time fallback: a RuntimeWarning, then the
            # reference kernels.
            assert (mode, warned) == ("python", "1")

    def test_auto_mode_is_silent(self):
        probe = run_probe(PROBE)
        assert probe.returncode == 0, probe.stderr
        mode, requested, warned = probe.stdout.split()
        assert requested == "auto"
        assert warned == "0"
        assert mode == ("native" if HAVE_NUMBA else "python")

    def test_invalid_mode_rejected(self):
        probe = run_probe("import repro.kernels", mode="fortran")
        assert probe.returncode != 0
        assert "not a valid kernel mode" in probe.stderr

    def test_dispatch_surface(self):
        assert kernels.KERNEL_MODE in kernels.KERNEL_MODES
        info = kernels.kernel_info()
        assert set(info) == {"mode", "requested", "have_scipy_cdist"}
        assert info["mode"] == kernels.KERNEL_MODE
        if not kernels.HAVE_NATIVE:
            assert (kernels.squared_distance_slab
                    is _reference.squared_distance_slab)
            assert (kernels.fixed_point_column_partials
                    is _reference.fixed_point_column_partials)
