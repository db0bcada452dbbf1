"""Test-side codings of the central-configuration locus.

The closed-form masses enforce two of the three independent balance
equations of the symmetric trapezoid (outer pair, pair sum).  The third,
the inner-pair balance along the top side, is linear and homogeneous in
``(m, M, lambda)`` together with the other two, so one mass pair can make
the trapezoid central only where their 3x3 determinant vanishes: on a
curve ``beta = beta*(alpha)``, not on a region.

Two codings of that curve live here, assembled from scratch and
independent of the library, so the tests can use them as oracles:

* :func:`inner_pair_consistency`, the 3x3 determinant itself;
* :func:`dziobek_defect`, the mass-free Dziobek relation for planar
  four-body central configurations (Moeckel, *Central configurations*,
  lecture notes), ``(s_a - s)^2 = (1 - s)(alpha^-3 - s)`` with
  ``s_a = 1/a``, ``s_b = 1/b`` and ``s = (s_a + s_b)/2``.

This module is not collected by pytest (its name does not start with
``test_``); the test modules import it.
"""

import numpy as np

from trapcc.regions import bisect

LOCUS_BRACKET = (0.5, 1.5)
# the two codings must bisect to the same beta* within this many ulps
LOCUS_AGREEMENT_ULPS = 4


def _distance_cubes(alpha, beta):
    a = ((0.5 - alpha / 2) ** 2 + beta**2) ** 1.5
    b = ((0.5 + alpha / 2) ** 2 + beta**2) ** 1.5
    return a, b


def inner_pair_consistency(alpha, beta):
    """Determinant of the three independent balance equations in
    (m, M, lambda); its zero set is where one mass pair can make the
    trapezoid genuinely central.  Assembled here from scratch as an
    oracle independent of the library."""
    a, b = _distance_cubes(alpha, beta)
    s = 1.0 / a + 1.0 / b
    rows = [
        [-(alpha - 1.0) / a + (alpha + 1.0) / b, 2.0, -1.0],
        [s, s, -1.0],
        [2.0 / alpha**2, -(1.0 - alpha) / a + (1.0 + alpha) / b, -alpha],
    ]
    return float(np.linalg.det(np.array(rows)))


def dziobek_defect(alpha, beta):
    """``(s_a - s)^2 - (1 - s)(alpha^-3 - s)``: zero exactly where the
    trapezoid with unit bottom side is a central configuration for some
    masses (the bottom side enters as 1 = 1/1^3)."""
    a, b = _distance_cubes(alpha, beta)
    s_a = 1.0 / a
    s = 0.5 * (s_a + 1.0 / b)
    return (s_a - s) ** 2 - (1.0 - s) * (alpha**-3 - s)


def inner_pair_defect(alpha, beta, m, M):
    """Horizontal force defect of body 2 (the left top body) at multiplier
    1: ``m/alpha^2 - M(1-alpha)/(2a) + M(1+alpha)/(2b) - alpha/2``.

    Where the other two balance equations hold, this is the only defect
    left, so it is the full central-configuration residual of bodies 2
    and 3 (and zero on the locus)."""
    a, b = _distance_cubes(alpha, beta)
    return (
        m / alpha**2
        - M * (1.0 - alpha) / (2.0 * a)
        + M * (1.0 + alpha) / (2.0 * b)
        - alpha / 2.0
    )


def locus_beta(alpha):
    """``beta*(alpha)`` on the central-configuration locus, bisected to
    full precision in ``[0.5, 1.5]`` on both codings; the two roots must
    agree to a few ulps, and the determinant root is returned."""
    lo, hi = LOCUS_BRACKET
    dziobek = bisect(lambda beta: dziobek_defect(alpha, beta), lo, hi, xtol=0.0)
    determinant = bisect(lambda beta: inner_pair_consistency(alpha, beta), lo, hi, xtol=0.0)
    if dziobek is None or determinant is None:
        raise ValueError(f"no locus crossing in beta in {LOCUS_BRACKET} at alpha = {alpha}")
    gap = abs(dziobek - determinant)
    if gap > LOCUS_AGREEMENT_ULPS * np.spacing(determinant):
        raise AssertionError(
            f"locus codings disagree at alpha = {alpha}: Dziobek beta* = "
            f"{dziobek!r}, determinant beta* = {determinant!r}"
        )
    return determinant
