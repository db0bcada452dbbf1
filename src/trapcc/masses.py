"""Closed-form masses for the trapezoid and their sign analysis.

With the bottom side at unit length and the multiplier normalised to 1,
requiring the two reduced balance equations

    2*M - m*(alpha - 1)/a + m*(alpha + 1)/b = 1        (outer pair)
    (m + M) * (1/a + 1/b) = 1                          (pair sums)

to hold simultaneously determines the masses in closed form:

    m = a*b*f1 / ((a + b) * f3)
    M = a*b*alpha*f2 / ((a + b) * f3)

where f1 = a + b - 2ab, f2 = a - b and f3 = f1 + alpha*f2.  The signs of
f1 and f3 decide where the masses are positive (f2 is negative on the
whole domain), and f3 = 0 is the degenerate curve on which the closed
forms blow up.

Substituting the closed forms back gives m + M = a*b/(a + b), so both
equations hold with multiplier exactly 1; this is what pins lambda = 1
throughout the package.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ._numpy import np
from .geometry import TrapezoidParams, distance_cubes_values

DEGENERACY_TOL = 1e-12


class DegenerateConfigurationError(ValueError):
    """Raised on (or numerically too close to) the f3 = 0 curve, where the
    closed-form masses are unbounded and the linear system is singular."""


class RegionLabel(Enum):
    """Classification of a parameter point by the signs of the two masses."""

    BOTH_POSITIVE = "BothPositive"
    ONLY_M_LOWER_POSITIVE = "OnlyMLowerPositive"  # M > 0, m <= 0
    ONLY_M_UPPER_POSITIVE = "OnlyMUpperPositive"  # m > 0, M <= 0
    NONE_POSITIVE = "NonePositive"
    DEGENERATE = "Degenerate"


# the labels in enum order: a region code is a position in this tuple
REGION_LABELS = tuple(RegionLabel)


class MassSolution(NamedTuple):
    """Masses of the two pairs and the numbers they are solved from.

    ``m`` belongs to the upper pair (bodies 2, 3), ``M`` to the lower pair
    (bodies 1, 4); ``a``, ``b`` are the cubed distances and ``f1``, ``f2``,
    ``f3`` the sign functions.  Either mass may be negative; positivity is
    the caller's concern (see :func:`classify`).
    """

    m: float
    M: float
    a: float
    b: float
    f1: float
    f2: float
    f3: float


def sign_values(a, b, alpha):
    """f1, f2, f3 from the cubed distances; works on scalars or arrays."""
    f1 = a + b - 2.0 * a * b
    f2 = a - b
    f3 = f1 + alpha * f2
    return f1, f2, f3


def mass_values(a, b, alpha):
    """Closed-form ``(m, M, f1, f2, f3)``; array friendly.

    No degeneracy guard: near f3 = 0 the quotients overflow or lose
    precision, which callers handling grids mask themselves.
    """
    f1, f2, f3 = sign_values(a, b, alpha)
    denom = (a + b) * f3
    with np.errstate(divide="ignore", invalid="ignore"):
        m = a * b * f1 / denom
        M = a * b * alpha * f2 / denom
    return m, M, f1, f2, f3


def is_degenerate(f3, a, b):
    """The degeneracy test shared by every solver path and the raster:
    |f3| measured relative to a + b, the natural scale of the sign
    functions; scalars or arrays."""
    return abs(f3) < DEGENERACY_TOL * (a + b)


def solve_masses(params: TrapezoidParams) -> MassSolution:
    """Evaluate the closed-form masses at a parameter point.

    Raises
    ------
    DegenerateConfigurationError
        When |f3| < DEGENERACY_TOL * (a + b); the masses are unbounded there.
    """
    alpha = params.alpha
    a, b = map(float, distance_cubes_values(alpha, params.beta))
    f1, f2, f3 = map(float, sign_values(a, b, alpha))
    if is_degenerate(f3, a, b):
        raise DegenerateConfigurationError(
            f"f3 = {f3:.3e} is within {DEGENERACY_TOL:.1e} * (a + b) of the "
            f"degenerate curve at (alpha={alpha}, beta={params.beta})"
        )
    scale = a * b / ((a + b) * f3)
    return MassSolution(m=f1 * scale, M=alpha * f2 * scale, a=a, b=b, f1=f1, f2=f2, f3=f3)


def solve_masses_linear(params: TrapezoidParams) -> tuple[float, float]:
    """Solve the two balance equations as a 2x2 linear system.

    This route never touches the closed forms: the coefficient matrix is
    assembled from the equations themselves and handed to a generic linear
    solver.  It is the independent cross-check for :func:`solve_masses`.

    Raises
    ------
    DegenerateConfigurationError
        When the system is singular, which happens exactly on the f3 = 0
        curve (the determinant equals (a + b) * f3 / (a*b)^2).
    """
    alpha = params.alpha
    a, b = map(float, distance_cubes_values(alpha, params.beta))
    pair_sum = 1.0 / a + 1.0 / b
    matrix = np.array(
        [
            [-(alpha - 1.0) / a + (alpha + 1.0) / b, 2.0],
            [pair_sum, pair_sum],
        ]
    )
    det = float(np.linalg.det(matrix))
    # rescale the determinant to the f3 scale so this gate coincides with
    # the closed-form degeneracy test
    f3_equivalent = det * (a * b) ** 2 / (a + b)
    if is_degenerate(f3_equivalent, a, b):
        raise DegenerateConfigurationError(
            f"singular balance system at (alpha={params.alpha}, beta={params.beta}); "
            f"determinant corresponds to f3 = {f3_equivalent:.3e}"
        )
    m, M = np.linalg.solve(matrix, np.array([1.0, 1.0]))
    return float(m), float(M)


def region_code(m, M):
    """The region of the upper-pair mass ``m`` and the lower-pair mass
    ``M`` as its position in ``REGION_LABELS``, decided by the signs
    ``m > 0`` and ``M > 0`` alone.

    The one coding of the partition: Python floats give an int without
    touching numpy, arrays give an ``int8`` array, element by element.
    Zero, negative zero and NaN count as not positive.  The DEGENERATE
    code, 4, is the caller's, since masses do not show it.
    """
    code = 3 - (m > 0.0) - 2 * (M > 0.0)
    return code if isinstance(code, int) else code.astype(np.int8)


def region_label(m, M) -> RegionLabel:
    """The RegionLabel of scalar masses ``m`` and ``M``: see :func:`region_code`."""
    return REGION_LABELS[region_code(m, M)]


def classify(params: TrapezoidParams) -> RegionLabel:
    """Label a parameter point by the signs of the solved masses.

    Degenerate points get their own label instead of an exception, so a
    grid sweep always produces exactly one label per point.
    """
    try:
        solution = solve_masses(params)
    except DegenerateConfigurationError:
        return RegionLabel.DEGENERATE
    return region_label(solution.m, solution.M)
