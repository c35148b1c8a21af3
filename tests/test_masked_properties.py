"""Property-based parity suite for the masked aggregate queries.

The PR-4 extension of the ``test_parity_properties.py`` harness: the same
seeded dataset generators (duplicates, colinear, degenerate, integer grids)
sweep the *masked* view queries — ``masked_sum`` /
``masked_clipped_sum`` / ``masked_axis_histograms`` — over a zoo of selections (empty, full, singleton, duplicate row multisets,
boolean masks, box-label predicates) and boundary clip radii (exact
point-to-centre distances, so the sphere mask hits representable values dead
on), asserting the library-wide contract *bitwise* on every draw: chunked,
tree, and sharded (any shard count) backends — on identity and
projected views alike — return identical counts, identical correctly-rounded
exact sums, and identical first-occurrence-ordered histograms.

The float sums are the novel part: they are exact fixed-point reductions
(:mod:`repro.utils.exactsum`), so the reference below recomputes them
independently with ``fractions.Fraction`` arithmetic — not with numpy — and
the sweep doubles as a proof that every backend implements the *canonical*
(partition-independent) value, not merely the same accident of rounding.

Hypothesis runs derandomised and the sweep classes are marked ``slow`` (the
dedicated parity/property CI job); the plain validation tests at the bottom
stay in tier-1.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_parity_properties import SETTINGS, build_points, datasets, make_backends

from repro.geometry.balls import ball_membership
from repro.geometry.boxes import box_labels, interval_labels
from repro.geometry.jl import project_rows
from repro.neighbors import (
    ChunkedBackend,
    QueryPlan,
    ShardedBackend,
    TreeBackend,
)
from repro.neighbors.base import first_occurrence_cells


def exact_reference_sums(matrix: np.ndarray) -> np.ndarray:
    """Correctly-rounded per-column sums via ``Fraction`` arithmetic — an
    implementation entirely independent of :mod:`repro.utils.exactsum`."""
    columns = []
    for column in range(matrix.shape[1]):
        exact = sum((Fraction(float(v)) for v in matrix[:, column]),
                    Fraction(0))
        columns.append(float(exact))
    return np.asarray(columns, dtype=float)


def make_selections(view_factory, image: np.ndarray, seed: int) -> list:
    """The selection zoo, each entry ``(name, per-view selection factory)``.

    A factory takes the view it will be queried through and returns the
    selection object — row arrays and masks are view-independent, while a
    BoxSelection must be built from a view of the *queried* backend.
    """
    rng = np.random.default_rng(seed)
    n, k = image.shape
    width = float(rng.uniform(0.3, 1.5))
    shifts = rng.uniform(0.0, width, size=k)
    labels = box_labels(image, shifts, width)
    unique, counts = np.unique(labels, axis=0, return_counts=True)
    chosen = unique[int(np.argmax(counts))]
    box_mask = np.all(labels == chosen[None, :], axis=1)

    duplicated = rng.integers(0, n, size=min(2 * n, 64))
    singleton = np.asarray([int(rng.integers(0, n))], dtype=np.int64)
    random_mask = rng.uniform(size=n) < 0.4
    selections = [
        ("empty-rows", lambda view: np.empty(0, dtype=np.int64)),
        ("empty-mask", lambda view: np.zeros(n, dtype=bool)),
        ("full", lambda view: np.arange(n, dtype=np.int64)),
        ("singleton", lambda view: singleton.copy()),
        ("duplicate-rows", lambda view: duplicated.copy()),
        ("mask", lambda view: random_mask.copy()),
        ("box-mask", lambda view: box_mask.copy()),
        ("box-predicate",
         lambda view: view.box_selection(width, shifts, chosen)),
    ]
    return selections


def selection_reference_rows(selection, image, view) -> np.ndarray:
    from repro.neighbors.base import BoxSelection

    if isinstance(selection, BoxSelection):
        labels = box_labels(image, selection.shifts, selection.width)
        return np.flatnonzero(
            np.all(labels == selection.label[None, :], axis=1)
        )
    array = np.asarray(selection)
    if array.dtype == np.bool_:
        return np.flatnonzero(array)
    return np.sort(array, kind="stable")


@pytest.mark.slow
class TestMaskedAggregateParity:
    @SETTINGS
    @given(case=datasets, image_dim=st.integers(min_value=1, max_value=4),
           identity=st.booleans())
    def test_masked_aggregates_bitwise_equal(self, case, image_dim, identity):
        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        rng = np.random.default_rng(seed + 6)
        if identity:
            matrix = None
            image = points
            k = d
        else:
            matrix = rng.normal(size=(image_dim, d))
            image = project_rows(points, matrix)
            k = image_dim
        hist_width = float(rng.uniform(0.1, 1.0))
        backends = make_backends(points, shards)

        for name, factory in make_selections(None, image, seed + 7):
            # In-parent reference, independent of the backend layer.
            reference_view = backends["chunked"].view(matrix)
            rows = selection_reference_rows(factory(reference_view), image,
                                            reference_view)
            selected = image[rows]
            ref_count = int(rows.shape[0])
            ref_sum = exact_reference_sums(selected)
            # Clip at an *exact* point-to-centre distance so the sphere
            # boundary is hit dead on (<= must include it).
            center = (selected[0].copy() if ref_count
                      else np.zeros(k))
            if ref_count:
                distances = np.linalg.norm(selected - center[None, :],
                                           axis=1)
                positive = np.sort(distances[distances > 0])
                clip = float(positive[len(positive) // 2]) if positive.size \
                    else 0.0
            else:
                clip = 1.0
            inside = ball_membership(selected, center, clip)
            ref_clip_count = int(np.count_nonzero(inside))
            ref_clip_sum = exact_reference_sums(
                selected[inside] - center[None, :]
            )
            labels = interval_labels(selected, hist_width)
            ref_hists = [first_occurrence_cells(labels[:, axis])
                         for axis in range(k)]

            for backend_name, backend in backends.items():
                view = backend.view(matrix)
                selection = factory(view)
                context = (backend_name, scenario, name)
                assert np.array_equal(view.masked_sum(selection),
                                      ref_sum), context
                clipped = view.masked_clipped_sum(selection, center, clip)
                assert clipped.count == ref_clip_count, context
                assert np.array_equal(clipped.vector_sum,
                                      ref_clip_sum), context
                hists = view.masked_axis_histograms(selection, hist_width)
                assert len(hists) == k, context
                assert int(hists[0][1].sum()) == ref_count, context
                for axis in range(k):
                    assert np.array_equal(hists[axis][0],
                                          ref_hists[axis][0]), context
                    assert np.array_equal(hists[axis][1],
                                          ref_hists[axis][1]), context

    @SETTINGS
    @given(case=datasets)
    def test_cross_view_box_predicate(self, case):
        """A BoxSelection built over one view (the partition-search image)
        selects the same rows when evaluated through *another* view of the
        same backend (the rotated frame) — the shape GoodCenter steps 8-11
        rely on."""
        scenario, n, d, seed, shards = case
        points = build_points(scenario, n, d, seed)
        rng = np.random.default_rng(seed + 8)
        search_matrix = rng.normal(size=(min(3, d), d))
        basis = rng.normal(size=(d, d))
        search_image = project_rows(points, search_matrix)
        width = float(rng.uniform(0.3, 1.5))
        shifts = rng.uniform(0.0, width, size=search_image.shape[1])
        labels = box_labels(search_image, shifts, width)
        unique, counts = np.unique(labels, axis=0, return_counts=True)
        chosen = unique[int(np.argmax(counts))]
        rows = np.flatnonzero(np.all(labels == chosen[None, :], axis=1))
        rotated = project_rows(points, basis)[rows]
        ref_sum = exact_reference_sums(rotated)

        for name, backend in make_backends(points, shards).items():
            selection = backend.view(search_matrix).box_selection(
                width, shifts, chosen
            )
            rotated_view = backend.view(basis)
            hists = rotated_view.masked_axis_histograms(selection, 1.0)
            assert int(hists[0][1].sum()) == rows.shape[0], name
            assert np.array_equal(rotated_view.masked_sum(selection),
                                  ref_sum), name


class TestMaskedValidation:
    def test_bool_mask_shape_rejected(self):
        for backend in (ChunkedBackend(np.zeros((6, 2))),
                        ShardedBackend(np.zeros((6, 2)), num_shards=2,
                                       num_workers=0)):
            view = backend.view()
            with pytest.raises(ValueError):
                view.masked_sum(np.zeros(4, dtype=bool))

    def test_rows_out_of_range_rejected(self):
        for backend in (ChunkedBackend(np.zeros((6, 2))),
                        ShardedBackend(np.zeros((6, 2)), num_shards=2,
                                       num_workers=0)):
            view = backend.view()
            with pytest.raises(ValueError):
                view.masked_sum(np.asarray([0, 6]))
            with pytest.raises(ValueError):
                view.masked_sum(np.asarray([-1]))

    def test_foreign_box_selection_rejected(self):
        points = np.arange(12.0).reshape(6, 2)
        selection = ChunkedBackend(points).view().box_selection(
            1.0, np.zeros(2), np.zeros(2, dtype=np.int64)
        )
        for backend in (ChunkedBackend(points),
                        ShardedBackend(points, num_shards=2, num_workers=0)):
            with pytest.raises(ValueError):
                backend.view().masked_sum(selection)

    def test_clip_center_dimension_rejected(self):
        backend = ChunkedBackend(np.zeros((6, 3)))
        view = backend.view(np.ones((2, 3)))
        with pytest.raises(ValueError):
            view.masked_clipped_sum(np.arange(6), np.zeros(3), 1.0)

    def test_bad_label_shape_rejected(self):
        backend = ChunkedBackend(np.zeros((6, 3)))
        view = backend.view(np.ones((2, 3)))
        with pytest.raises(ValueError):
            view.box_selection(1.0, np.zeros(2), np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("build", [
        pytest.param(ChunkedBackend, id="chunked"),
        pytest.param(TreeBackend, id="tree", marks=pytest.mark.needs_scipy),
        pytest.param(lambda points: ShardedBackend(
            points, num_shards=3, num_workers=0), id="sharded-serial"),
        pytest.param(lambda points: ShardedBackend(
            points, num_shards=2, num_workers=2), id="sharded-pool",
            marks=pytest.mark.slow),
    ])
    def test_non_finite_image_rejected(self, build):
        """An offset view's image holds inf: the exact sum's error reaches
        the caller of a masked-sum plan, from the parent or a worker."""
        with build(np.arange(12.0).reshape(6, 2)) as backend:
            plan = QueryPlan()
            plan.masked_sum(backend.view(offset=[np.inf, 0.0]), np.arange(6))
            with pytest.raises(ValueError,
                               match="exact summation requires finite"):
                backend.execute(plan)

    def test_empty_selection_identities(self):
        for backend in (ChunkedBackend(np.arange(12.0).reshape(6, 2)),
                        ShardedBackend(np.arange(12.0).reshape(6, 2),
                                       num_shards=3, num_workers=0)):
            view = backend.view()
            empty = np.zeros(6, dtype=bool)
            assert np.array_equal(view.masked_sum(empty), np.zeros(2))
            clipped = view.masked_clipped_sum(empty, np.zeros(2), 1.0)
            assert clipped.count == 0
            assert np.array_equal(clipped.vector_sum, np.zeros(2))
            hists = view.masked_axis_histograms(empty, 0.5)
            assert all(labels.size == 0 and counts.size == 0
                       for labels, counts in hists)
