"""Experiment harness: one module per analogue of a paper table or figure.

Every experiment exposes a ``run_*`` function returning a list of plain-dict
rows plus a ``format_table`` helper, so the pytest-benchmark targets under
``benchmarks/`` and direct calls share one code path.
"""

from repro.experiments.harness import (
    EvaluationRecord,
    PipelinedRuns,
    evaluate_result,
    format_table,
)
from repro.experiments.table1 import run_table1
from repro.experiments.radius_scaling import run_radius_scaling
from repro.experiments.delta_vs_epsilon import run_delta_vs_epsilon
from repro.experiments.dimension_scaling import run_dimension_scaling
from repro.experiments.k_clustering import run_k_clustering
from repro.experiments.sample_aggregate import run_sample_aggregate
from repro.experiments.lower_bound import run_lower_bound
from repro.experiments.outliers import run_outliers
from repro.experiments.good_radius import run_good_radius
from repro.experiments.good_center import run_good_center
from repro.experiments.figures import run_figure_configs

__all__ = [
    "EvaluationRecord",
    "PipelinedRuns",
    "evaluate_result",
    "format_table",
    "run_table1",
    "run_radius_scaling",
    "run_delta_vs_epsilon",
    "run_dimension_scaling",
    "run_k_clustering",
    "run_sample_aggregate",
    "run_lower_bound",
    "run_outliers",
    "run_good_radius",
    "run_good_center",
    "run_figure_configs",
]
