"""Kernel layer — the grid hashes' row unique.

Times :func:`repro.geometry.boxes.unique_rows`, which groups a shifted
partition's box labels into cells for the ``heaviest_cell_counts`` and
``cell_histogram`` shard partials, on 10,000 x 4 label rows (a shard's
search image on perfbench's center-plans), with the index, inverse and
counts a cell table asks for.  One case on each side of the ``2**16``
packed-key span:

* ``span-65536``: four columns of 16 labels each pack into 65,536 keys,
  which sort as ``uint16`` by numpy's radix sort;
* ``span-83521``: four columns of 17 labels each pack into 83,521 keys,
  which take the comparison sort.

Each case asserts that the result is ``np.unique(labels, axis=0, ...)``.
The helper takes no backend, so ``--backend`` and ``--workers`` change
nothing here::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_grid_hash.py
"""

import numpy as np
import pytest

from repro.geometry.boxes import unique_rows


@pytest.mark.parametrize("labels_per_axis, span", [(16, 65_536),
                                                   (17, 83_521)],
                         ids=["span-65536", "span-83521"])
def test_unique_rows(benchmark, labels_per_axis, span):
    rng = np.random.default_rng(labels_per_axis)
    labels = rng.integers(-(labels_per_axis // 2),
                          labels_per_axis - labels_per_axis // 2,
                          size=(10_000, 4))
    assert int(np.prod(np.ptp(labels, axis=0) + 1)) == span
    got = benchmark(unique_rows, labels, True, True, True)
    expected = np.unique(labels, axis=0, return_index=True,
                         return_inverse=True, return_counts=True)
    for got_part, expected_part in zip(got, expected):
        assert np.array_equal(got_part, expected_part)
