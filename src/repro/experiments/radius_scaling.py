"""Experiment E2 — radius approximation factor versus n (Theorem 3.2).

Theorem 3.2 promises ``w = O(sqrt(log n))``: the released ball's radius grows
only with the square root of the logarithm of the database size, not with the
dimension.  The experiment plants a fixed-radius cluster, sweeps ``n`` (with
the target ``t`` a fixed fraction of ``n``), and records the measured radius
ratio; the expected shape is a slowly growing (roughly sqrt-log) curve,
contrasted with the ``sqrt(d)``-scaling of the private-aggregation baseline
measured in E4.

The sweep can additionally compare neighbor backends (``backends=``, e.g.
``("chunked", "tree", "sharded")``): every backend returns identical scores, so
the per-``n`` rows differ only in the ``seconds`` column — which is exactly
the backend speedup the refactor is after.  A name builds its strategy with
default arguments; to pin the sharded worker count, hand ``one_cluster`` an
instance such as ``ShardedBackend(points, num_workers=2)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.accounting.params import PrivacyParams
from repro.baselines.nonprivate import nonprivate_one_cluster
from repro.core.one_cluster import one_cluster
from repro.core.params import radius_approximation_factor
from repro.datasets.synthetic import planted_cluster
from repro.experiments.harness import evaluate_result, timed
from repro.utils.rng import as_generator, spawn_generators


def run_radius_scaling(sizes: Sequence[int] = (500, 1000, 2000, 4000),
                       dimension: int = 4, cluster_fraction: float = 0.35,
                       epsilon: float = 2.0, delta: float = 1e-6,
                       cluster_radius: float = 0.05,
                       backends: Sequence[str] = ("auto",),
                       rng=None) -> List[Dict[str, object]]:
    """Sweep ``n`` (and optionally neighbor backends) and measure the
    empirical radius approximation factor and wall-clock time."""
    generator = as_generator(rng)
    params = PrivacyParams(epsilon, delta)
    rows: List[Dict[str, object]] = []
    for n in sizes:
        data_rng, solver_rng = spawn_generators(generator, 2)
        data = planted_cluster(n=n, d=dimension,
                               cluster_size=int(cluster_fraction * n),
                               cluster_radius=cluster_radius, rng=data_rng)
        target = int(0.8 * cluster_fraction * n)
        solver_seed = solver_rng.integers(0, 2 ** 63)
        reference = nonprivate_one_cluster(data.points, target,
                                           backend=backends[0])
        for backend in backends:
            # Same seed per backend: identical scores mean identical output,
            # so the sweep isolates the wall-clock difference.
            result, seconds = timed(one_cluster, data.points, target, params,
                                    rng=int(solver_seed), backend=backend)
            record = evaluate_result("this_work", data.points, target, result,
                                     seconds, reference=reference)
            row = {"n": n, "d": dimension, "t": target, "backend": backend,
                   "theory_w": radius_approximation_factor(n)}
            row.update(record.as_dict())
            rows.append(row)
    return rows


__all__ = ["run_radius_scaling"]
