"""Argument-validation helpers shared across the library.

All public entry points validate their inputs eagerly and raise ``ValueError``
or ``TypeError`` with actionable messages; internal code can then assume
well-formed arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def check_points(points, *, dimension: Optional[int] = None,
                 name: str = "points") -> np.ndarray:
    """Coerce ``points`` to a 2-d float array of shape ``(n, d)``.

    A 1-d array of length ``n`` is interpreted as ``n`` points in ``R^1``.

    Parameters
    ----------
    points:
        Array-like collection of points.
    dimension:
        If given, the required dimensionality ``d``.
    name:
        Name used in error messages.
    """
    array = np.asarray(points, dtype=float)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise ValueError(
            f"{name} must be a 2-d array of shape (n, d); got ndim={array.ndim}"
        )
    if array.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one point")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must contain only finite values")
    if dimension is not None and array.shape[1] != dimension:
        raise ValueError(
            f"{name} must have dimension {dimension}, got {array.shape[1]}"
        )
    return array


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative if not strict).

    NaN is rejected in both modes (every comparison with it is false).
    """
    value = float(value)
    if strict and not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_probability(value: float, name: str, *,
                      allow_zero: bool = False,
                      allow_one: bool = False) -> float:
    """Validate that ``value`` lies in the (open or half-open) unit interval."""
    value = float(value)
    lower_ok = value > 0 or (allow_zero and value == 0)
    upper_ok = value < 1 or (allow_one and value == 1)
    if not (lower_ok and upper_ok):
        raise ValueError(f"{name} must lie in the unit interval, got {value}")
    return value


def check_in_range(value: float, name: str, low: float, high: float) -> float:
    """Validate ``low <= value <= high``."""
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def check_integer(value, name: str, *, minimum: Optional[int] = None) -> int:
    """Validate that ``value`` is an integer (or integral float)."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


__all__ = [
    "check_points",
    "check_positive",
    "check_probability",
    "check_in_range",
    "check_integer",
]
