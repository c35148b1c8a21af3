"""Kernel layer — exact fixed-point column sums.

Times the dispatched column kernel
(:func:`repro.kernels.fixed_point_column_partials`) on one row block: the
98 x 512 block a shard sums for one sample-and-aggregate block mean on
perfbench's sa-wide, and a full 512 x 512 block.  Three draws cross both of
the reference kernel's paths:

* N(0.5, 0.05) spans two binades, so each block is one aligned int64 sum
  per column;
* U[0, 1) reaches far below 0.5, and mixed-scale values span hundreds of
  binades, so both take the (exponent, column) buckets.

Each case asserts that the partials merge to the per-column
``fixed_point_sum``.  The kernel takes no backend, so ``--backend`` and
``--workers`` change nothing here::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_exact_sum.py
"""

import numpy as np
import pytest

from repro import kernels
from repro.utils.exactsum import fixed_point_sum, merge_column_partials

DRAWS = {
    "normal": lambda rng, shape: rng.normal(0.5, 0.05, size=shape),
    "uniform": lambda rng, shape: rng.random(shape),
    "mixed-scale": lambda rng, shape: rng.normal(size=shape) * 10.0 ** (
        rng.integers(-150, 150, size=shape)),
}


@pytest.mark.parametrize("rows", [98, 512])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_column_partials(benchmark, draw, rows):
    matrix = DRAWS[draw](np.random.default_rng(rows), (rows, 512))
    partials = benchmark(kernels.fixed_point_column_partials, matrix)
    assert merge_column_partials(512, [partials]) == [
        fixed_point_sum(matrix[:, j]) for j in range(512)]
