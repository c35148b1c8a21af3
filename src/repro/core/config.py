"""Configuration objects for GoodCenter and the combined solver.

The paper's analysis uses large worst-case constants (boxes of side ``300 r``,
JL dimension ``46 log(2n/beta)``, bounding spheres of radius
``2700 r sqrt(k ln(dn/beta))``, ...).  Running with those constants is
supported (:meth:`GoodCenterConfig.paper`) but produces astronomically
conservative radii at laptop scale, so the default configuration
(:meth:`GoodCenterConfig.practical`) keeps the identical algorithmic structure
while choosing the multipliers adaptively (e.g. the box width is sized so that
one randomly-shifted partition captures the projected cluster with a fixed
target probability, instead of the fixed factor 300).  "Departures from the
paper" in ARCHITECTURE.md documents this substitution; the experiments
report results under the practical configuration and verify that the
*shape* of the guarantees (``w = O(sqrt(log n))``,
``Delta = O(log n / epsilon)``) holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class GoodCenterConfig:
    """Tunable constants of Algorithm GoodCenter.

    Attributes
    ----------
    jl_constant:
        ``k = ceil(jl_constant * ln(2 n / beta))`` is the JL target dimension
        (Algorithm 2, step 1 uses 46); always capped at the ambient dimension,
        and when the cap binds the projection becomes the identity.
    box_width_factor:
        Boxes in the projected space have side ``box_width_factor * r``
        (step 3a uses 300).  ``None`` (the practical default) sizes the boxes
        adaptively from ``capture_probability_target``.
    capture_probability_target:
        When ``box_width_factor is None``, the box side is chosen so that a
        single randomly-shifted partition captures the projected cluster in
        one box with at least this probability.
    projected_radius_factor:
        Upper bound, in units of ``r``, on the radius of the projected
        cluster under a non-trivial JL projection (the paper uses 3: a factor
        ``1 +/- 1/2`` distortion of a radius-``r`` ball).  When the projection
        is the identity the factor 1 is used instead.
    max_attempt_factor:
        The partition loop runs for at most
        ``max_attempt_factor * n * log(1/beta) / beta`` iterations (step 6
        uses 2).
    rotation_spread_constant:
        Multiplier on the Lemma 4.9 spread bound used for the rotated-axis
        interval length (the paper folds this into the 900 constant).
    threshold_slack_constant:
        AboveThreshold is instantiated with threshold
        ``t - threshold_slack_constant / epsilon * log(2 n / beta)`` (step 2
        uses 100).
    budget_split:
        Fractions of the GoodCenter epsilon given to (AboveThreshold, box
        choice, per-axis interval choices, NoisyAVG).  The paper splits
        evenly; the practical default weights the final noisy average most
        heavily because its noise dominates the centre error.
    """

    jl_constant: float = 4.0
    box_width_factor: Optional[float] = None
    capture_probability_target: float = 0.01
    projected_radius_factor: float = 3.0
    max_attempt_factor: float = 2.0
    rotation_spread_constant: float = 2.0
    threshold_slack_constant: float = 8.0
    budget_split: tuple = (0.15, 0.15, 0.2, 0.5)

    def __post_init__(self) -> None:
        for name in ("jl_constant", "capture_probability_target",
                     "projected_radius_factor", "max_attempt_factor",
                     "rotation_spread_constant", "threshold_slack_constant"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.capture_probability_target >= 1:
            raise ValueError("capture_probability_target must be below 1")
        if self.box_width_factor is not None:
            if self.box_width_factor <= 2 * self.projected_radius_factor:
                raise ValueError(
                    "box_width_factor must exceed twice projected_radius_factor, "
                    "otherwise no box can capture the projected cluster"
                )
        if len(self.budget_split) != 4 or any(f <= 0 for f in self.budget_split):
            raise ValueError(
                "budget_split must contain four positive fractions "
                "(AboveThreshold, box choice, per-axis choices, NoisyAVG)"
            )
        if sum(self.budget_split) > 1.0 + 1e-9:
            raise ValueError("budget_split fractions must sum to at most 1")

    @classmethod
    def paper(cls) -> "GoodCenterConfig":
        """The constants written in Algorithm 2 of the paper."""
        return cls(
            jl_constant=46.0,
            box_width_factor=300.0,
            projected_radius_factor=3.0,
            max_attempt_factor=2.0,
            rotation_spread_constant=2.0,
            threshold_slack_constant=100.0,
            budget_split=(0.25, 0.25, 0.25, 0.25),
        )

    @classmethod
    def practical(cls) -> "GoodCenterConfig":
        """Defaults suitable for laptop-scale experiments (n ~ 10^3 - 10^4)."""
        return cls()

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def projection_dimension(self, num_points: int, beta: float,
                             ambient_dimension: int = None) -> int:
        """The JL target dimension ``k`` of Algorithm 2, step 1.

        Parameters
        ----------
        num_points:
            The database size ``n``.
        beta:
            The failure probability the projection must survive.
        ambient_dimension:
            When given, ``k`` is capped at it (a square random projection
            gains nothing, so the cap binding means "use the identity").

        Returns
        -------
        int
            ``k = max(1, ceil(jl_constant * ln(2 n / beta)))``, capped.
        """
        k = max(1, int(math.ceil(self.jl_constant * math.log(2.0 * num_points / beta))))
        if ambient_dimension is not None:
            k = min(k, max(1, ambient_dimension))
        return k

    def effective_projected_radius_factor(self, identity_projection: bool) -> float:
        """The projected-cluster radius bound in units of ``r``: 1 under the
        identity map, ``projected_radius_factor`` under a real JL projection."""
        return 1.0 if identity_projection else self.projected_radius_factor

    def box_width(self, radius: float, k: int,
                  identity_projection: bool = False) -> float:
        """The side length of the randomly shifted boxes.

        With an explicit ``box_width_factor`` the paper's fixed multiple of
        ``r`` is used.  Otherwise the width is sized so that the per-axis
        survival probability ``q = 1 - diam/width`` satisfies
        ``q^k >= capture_probability_target``.
        """
        diameter = 2.0 * self.effective_projected_radius_factor(identity_projection) * radius
        if self.box_width_factor is not None:
            return self.box_width_factor * radius
        per_axis = self.capture_probability_target ** (1.0 / max(k, 1))
        return diameter / max(1.0 - per_axis, 1e-9)

    def per_axis_capture_probability(self, radius: float, k: int,
                                     identity_projection: bool = False) -> float:
        """Probability that no axis of the shifted partition splits the
        projected cluster."""
        width = self.box_width(radius, k, identity_projection)
        diameter = 2.0 * self.effective_projected_radius_factor(identity_projection) * radius
        per_axis = max(0.0, 1.0 - diameter / width)
        return per_axis ** k

    def max_attempts(self, num_points: int, beta: float) -> int:
        """The cap on partition attempts (Algorithm 2, step 6).

        Parameters
        ----------
        num_points:
            The database size ``n``.
        beta:
            The per-call failure probability.

        Returns
        -------
        int
            ``ceil(max_attempt_factor * n * log(1/beta) / beta)``, at least 1.
        """
        return max(1, int(math.ceil(
            self.max_attempt_factor * num_points * math.log(1.0 / beta) / beta
        )))

    def selected_set_diameter(self, radius: float, k: int,
                              identity_projection: bool = False) -> float:
        """Deterministic bound on the diameter (in ``R^d``) of the point set
        mapped into one chosen projected box.

        The box has diameter ``width * sqrt(k)`` in the projected space; under
        the identity map that is already a bound in ``R^d``, while a
        ``(1 - 1/2)`` JL lower distortion on squared distances inflates it by
        ``sqrt(2)``.
        """
        width = self.box_width(radius, k, identity_projection)
        factor = 1.0 if identity_projection else math.sqrt(2.0)
        return factor * width * math.sqrt(k)

    def rotated_interval_length(self, radius: float, k: int, dimension: int,
                                num_points: int, beta: float,
                                identity_projection: bool = False) -> float:
        """The per-axis interval length ``p`` of step 9a.

        Lemma 4.9: the projection of a set of diameter ``D`` onto a random
        axis has spread at most ``2 sqrt(ln(d n / beta) / d) * D`` w.h.p.; the
        spread also never exceeds ``D`` deterministically, so the smaller of
        the two is used.
        """
        diameter = self.selected_set_diameter(radius, k, identity_projection)
        relative_spread = min(
            2.0 * math.sqrt(math.log(max(2.0, dimension * num_points / beta)) / dimension),
            1.0,
        )
        return self.rotation_spread_constant * relative_spread * diameter

    def bounding_sphere_radius(self, interval_length: float, dimension: int) -> float:
        """Radius of the ball ``C`` circumscribing the box whose per-axis
        extent is ``3 * interval_length`` (step 10)."""
        return 1.5 * interval_length * math.sqrt(dimension)


@dataclass(frozen=True)
class OneClusterConfig:
    """Configuration of the combined 1-cluster solver.

    Attributes
    ----------
    center:
        The GoodCenter constants.
    radius_method:
        ``"recconcave"`` (default) or ``"binary_search"``.
    paper_constants:
        When true, use the paper's Γ promise in GoodRadius; when false
        (default), use the practical search-error based promise.
    radius_budget_fraction:
        Fraction of the privacy budget given to GoodRadius (the rest goes to
        GoodCenter).  The paper splits evenly; the practical default gives
        GoodCenter the larger share because its final noisy average dominates
        the overall error.
    grid_side:
        The ``|X|`` used when no explicit :class:`~repro.geometry.grid.GridDomain`
        is supplied (the data's bounding box is quantised with this many grid
        points per axis).
    """

    center: GoodCenterConfig = field(default_factory=GoodCenterConfig.practical)
    radius_method: str = "recconcave"
    paper_constants: bool = False
    radius_budget_fraction: float = 0.35
    grid_side: int = 1025

    def __post_init__(self) -> None:
        if self.radius_method not in ("recconcave", "binary_search"):
            raise ValueError(
                "radius_method must be 'recconcave' or 'binary_search', got "
                f"{self.radius_method!r}"
            )
        if not (0 < self.radius_budget_fraction < 1):
            raise ValueError("radius_budget_fraction must lie in (0, 1)")
        if self.grid_side < 2:
            raise ValueError("grid_side must be at least 2")

    @classmethod
    def paper(cls) -> "OneClusterConfig":
        """Paper-faithful constants everywhere."""
        return cls(center=GoodCenterConfig.paper(), paper_constants=True,
                   radius_budget_fraction=0.5)

    def with_center(self, **overrides) -> "OneClusterConfig":
        """A copy with some GoodCenter constants replaced."""
        return replace(self, center=replace(self.center, **overrides))


__all__ = ["GoodCenterConfig", "OneClusterConfig"]
