"""Experiment E5 — the k-clustering heuristic (Observation 3.5).

Iterating the 1-cluster algorithm ``k`` times (removing covered points in
between) should cover most of a dataset made of ``k`` well-separated blobs.
The experiment generates ``k`` Gaussian blobs, runs the heuristic, and records
the fraction of points covered and how many blob centres were recovered (a
blob counts as recovered when some released ball's centre lies within three
blob standard deviations of it).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.accounting.params import PrivacyParams
from repro.clustering.k_cluster import k_cluster
from repro.datasets.synthetic import gaussian_blobs
from repro.experiments.harness import timed
from repro.neighbors import BackendLike
from repro.utils.rng import as_generator, spawn_generators


def run_k_clustering(k_values=(2, 3, 4), n: int = 3000, dimension: int = 2,
                     spread: float = 0.03, epsilon: float = 4.0,
                     delta: float = 1e-6, rng=None,
                     backend: BackendLike = "auto") -> List[Dict[str, object]]:
    """Sweep the number of blobs/balls and measure coverage and recovery.

    ``backend`` is the selection each trial's
    :func:`~repro.clustering.k_cluster.k_cluster` call resolves
    (release-neutral; ``"auto"`` picks by size through
    :func:`repro.neighbors.auto_backend`).  ``max_ball_count`` is the
    largest of the per-ball coverage counts ``k_cluster`` itself reports
    (``ball_coverages``), 0 when no ball was released."""
    generator = as_generator(rng)
    rows: List[Dict[str, object]] = []
    for k in k_values:
        data_rng, solver_rng = spawn_generators(generator, 2)
        points, labels, centers = gaussian_blobs(n=n, d=dimension, k=k,
                                                 spread=spread, rng=data_rng)
        params = PrivacyParams(epsilon, delta)
        result, seconds = timed(k_cluster, points, k, params,
                                target=max(1, n // (2 * k)), rng=solver_rng,
                                backend=backend)
        recovered = 0
        for center in centers:
            distances = [float(np.linalg.norm(ball.center - center))
                         for ball in result.balls]
            if distances and (min(distances)
                              <= 3.0 * spread * np.sqrt(dimension)):
                recovered += 1
        rows.append({
            "k": k, "n": n, "d": dimension, "epsilon": epsilon,
            "balls_found": result.num_found,
            "covered_fraction": result.covered_fraction,
            "centers_recovered": recovered,
            "seconds": seconds,
            "max_ball_count": max(result.ball_coverages, default=0),
        })
    return rows


__all__ = ["run_k_clustering"]
