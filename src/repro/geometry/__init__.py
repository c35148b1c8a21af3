"""Geometric substrate: grid domains, ball counting, projections, boxes."""

from repro.geometry.grid import GridDomain
from repro.geometry.balls import (
    Ball,
    count_in_ball,
    counts_around_points,
    capped_counts_around_points,
    capped_average_score,
    capped_average_score_profile,
)
from repro.geometry.minimal_ball import (
    smallest_ball_two_approx,
    smallest_interval_1d,
    smallest_ball_exact_1d,
    optimal_radius_lower_bound,
)
from repro.geometry.jl import JohnsonLindenstrauss, jl_target_dimension
from repro.geometry.rotation import random_orthonormal_basis, project_onto_basis
from repro.geometry.boxes import ShiftedBoxPartition, AxisIntervalPartition, Box

__all__ = [
    "GridDomain",
    "Ball",
    "count_in_ball",
    "counts_around_points",
    "capped_counts_around_points",
    "capped_average_score",
    "capped_average_score_profile",
    "smallest_ball_two_approx",
    "smallest_interval_1d",
    "smallest_ball_exact_1d",
    "optimal_radius_lower_bound",
    "JohnsonLindenstrauss",
    "jl_target_dimension",
    "random_orthonormal_basis",
    "project_onto_basis",
    "ShiftedBoxPartition",
    "AxisIntervalPartition",
    "Box",
]
