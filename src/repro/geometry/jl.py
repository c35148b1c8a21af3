"""Johnson–Lindenstrauss random projection (paper Lemma 4.10).

GoodCenter projects the input points into ``R^k`` with
``k = O(log(n/beta))`` so that the randomly-shifted-box argument — which pays
a ``2^{-k}``-ish success probability per repetition — only needs
``poly(n, 1/beta)`` repetitions, while point distances are preserved up to a
constant factor.

The projection is the classical dense Gaussian map
``f(x) = (1/sqrt(k)) A x`` with ``A`` having i.i.d. ``N(0,1)`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_points


def project_rows(points: np.ndarray, matrix: np.ndarray,
                 offset: np.ndarray = None) -> np.ndarray:
    """The linear image ``Y = X A^T (+ b)``, computed row-decomposably.

    This is the single definition of "apply a projection matrix to points"
    used by the JL map, the random-rotation step, and the neighbor-backend
    :class:`~repro.neighbors.base.ProjectedView` layer.  It deliberately
    avoids BLAS matrix multiplication: ``np.einsum`` (non-optimised) computes
    every output element with the same fixed-order scalar summation over the
    ``d`` axis, independently of how many rows are in the batch, so

    ``project_rows(X, A)[rows] == project_rows(X[rows], A)``  *bitwise*,

    for any row subset.  BLAS GEMM does not guarantee this (its reduction
    order can depend on the operand shapes), and the library's exact-parity
    contract — backend choice never changes a released value — requires a
    sharded backend projecting only its own rows to reproduce the parent's
    projection to the last ulp.  Determinism is bought with real (bounded)
    speed: single-threaded einsum runs a small-constant-factor slower than
    BLAS (~2x at ``n = 100k, d = k = 64`` on one core, more on many-core
    machines), and while the JL map has only ``k = O(log n)`` output
    columns, the rotation matrix is a full ``(d, d)``.  The projections are
    a vanishing share of the pipelines that use them (one pass per release,
    vs. hundreds of grid hashes), so parity wins the trade.

    Parameters
    ----------
    points:
        ``(n, d)`` rows to project.
    matrix:
        ``(k, d)`` projection matrix.
    offset:
        Optional ``(k,)`` translation added to every projected row.

    Returns
    -------
    numpy.ndarray
        ``(n, k)`` projected rows.
    """
    points = np.asarray(points, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    image = np.einsum("nd,kd->nk", points, matrix)
    if offset is not None:
        image = image + np.asarray(offset, dtype=float)[None, :]
    return image


def apply_linear_image(points: np.ndarray, matrix: np.ndarray = None,
                       offset: np.ndarray = None) -> np.ndarray:
    """``Y = X A^T (+ b)`` with identity conventions, row-decomposably.

    The single definition of "a view's linear image", applied shard-side
    by the plan engine (:meth:`repro.neighbors._engine._ShardSet.view_image`)
    on every backend, so no two paths can drift apart and break the bitwise
    parity contract.  ``matrix=None`` means
    the identity (the input is returned as-is when ``offset`` is also
    ``None``); a bare ``offset`` translates; otherwise defers to
    :func:`project_rows` (which is what makes any row subset's image bitwise
    equal to slicing the full image).
    """
    if matrix is None and offset is None:
        return points
    if matrix is None:
        return (np.asarray(points, dtype=float)
                + np.asarray(offset, dtype=float)[None, :])
    return project_rows(points, matrix, offset)


def jl_target_dimension(num_points: int, beta: float = 0.1,
                        constant: float = 46.0) -> int:
    """The projection dimension ``k`` used by GoodCenter.

    Algorithm 2 sets ``k = 46 * log(2 n / beta)``; the ``constant`` parameter
    exposes that 46 so that practical configurations can shrink it (the JL
    guarantee with distortion 1/2 needs roughly ``k >= 8/eta^2 * ln(n^2/beta)
    = 32 ln(...)``; anything proportional to ``log n`` preserves the
    algorithm's structure).
    """
    if num_points < 1:
        raise ValueError(f"num_points must be at least 1, got {num_points}")
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if constant <= 0:
        raise ValueError(f"constant must be positive, got {constant}")
    return max(1, int(math.ceil(constant * math.log(2.0 * num_points / beta))))


@dataclass
class JohnsonLindenstrauss:
    """A fixed JL projection ``f(x) = (1/sqrt(k)) A x``.

    Parameters
    ----------
    input_dimension:
        The ambient dimension ``d``.
    output_dimension:
        The target dimension ``k``.
    rng:
        Seed or generator used to draw the projection matrix once.
    """

    input_dimension: int
    output_dimension: int
    rng: RngLike = None

    def __post_init__(self) -> None:
        if self.input_dimension < 1:
            raise ValueError("input_dimension must be at least 1")
        if self.output_dimension < 1:
            raise ValueError("output_dimension must be at least 1")
        generator = as_generator(self.rng)
        matrix = generator.standard_normal((self.output_dimension, self.input_dimension))
        self._matrix = matrix / math.sqrt(self.output_dimension)

    @property
    def matrix(self) -> np.ndarray:
        """The ``(k, d)`` projection matrix (already scaled by ``1/sqrt(k)``)."""
        return self._matrix

    def project(self, points) -> np.ndarray:
        """Project ``(n, d)`` points to ``(n, k)``.

        Delegates to :func:`project_rows`, so projecting any subset of the
        rows gives bitwise the same values as projecting all rows and
        slicing — the property the backend view layer relies on.
        """
        points = check_points(points, dimension=self.input_dimension)
        return project_rows(points, self._matrix)

    def __call__(self, points) -> np.ndarray:
        return self.project(points)

    @classmethod
    def for_points(cls, points: np.ndarray, beta: float = 0.1,
                   constant: float = 46.0, rng: RngLike = None) -> "JohnsonLindenstrauss":
        """Build a projection sized for ``points`` per Algorithm 2, step 1."""
        points = check_points(points)
        k = jl_target_dimension(points.shape[0], beta=beta, constant=constant)
        # Projecting to a dimension above the ambient dimension is pointless;
        # the identity-like behaviour is preserved by capping at d.
        k = min(k, points.shape[1]) if points.shape[1] > 1 else 1
        return cls(input_dimension=points.shape[1], output_dimension=k, rng=rng)


def jl_distortion_failure_probability(num_points: int, output_dimension: int,
                                      eta: float = 0.5) -> float:
    """Upper bound on the probability that some pairwise distance is distorted
    by more than a ``(1 +/- eta)`` factor (paper Lemma 4.10):
    ``2 n^2 exp(-eta^2 k / 8)``."""
    if not (0 < eta < 1):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    return 2.0 * num_points ** 2 * math.exp(-eta ** 2 * output_dimension / 8.0)


__all__ = [
    "JohnsonLindenstrauss",
    "apply_linear_image",
    "jl_target_dimension",
    "jl_distortion_failure_probability",
    "project_rows",
]
