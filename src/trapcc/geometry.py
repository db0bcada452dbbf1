"""Geometry of the symmetric four-body trapezoid.

Conventions used throughout the package:

* the bottom pair (bodies 1 and 4, each of mass ``M``) spans unit length,
  so every length is expressed in units of the bottom side;
* ``alpha`` is the top/bottom side ratio, ``beta`` the vertical separation
  of the two parallel sides;
* body 1 sits at ``(-0.5, -r_B)``, body 2 at ``(-alpha/2, r_A)``, body 3
  at ``(alpha/2, r_A)``, body 4 at ``(0.5, -r_B)``, with ``r_A + r_B = beta``
  split so that the mass-weighted centre of the four bodies is the origin
  (the ``M`` pair below the centre, the ``m`` pair above it).

Only two mutual distances enter the mass formulas, and they enter cubed:
``a`` for the lateral pairs (1-2 and 3-4) and ``b`` for the diagonals
(1-3 and 2-4).

:func:`build_configuration` gives the four positions as ``(x, y)`` float
tuples: this module never loads numpy, so ``trapcc masses`` runs without it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

BETA_MAX = 2.0


class DegenerateMassError(ValueError):
    """Masses summing to zero, so the centre-of-mass split is undefined."""


class TrapezoidParams(NamedTuple("TrapezoidParams", [("alpha", float), ("beta", float)])):
    """Shape parameters of the trapezoid at unit bottom-side scale.

    ``alpha`` must lie in (0, 1]: alpha = 1 is the rectangle, alpha = 0
    would collide bodies 2 and 3.  Values above 1 describe the same shape
    rescaled by the top side and are rejected with a hint.  ``beta`` must
    be positive (beta = 0 collapses to a collinear arrangement) and is
    capped at ``BETA_MAX`` to keep grids bounded.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, alpha: float, beta: float):
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError("alpha and beta must be finite")
        if alpha <= 0.0:
            raise ValueError("alpha must be positive (alpha = 0 collides bodies 2 and 3)")
        if alpha > 1.0:
            raise ValueError(
                f"alpha must not exceed 1; alpha={alpha} is the same shape as "
                f"(alpha={1.0 / alpha}, beta={beta / alpha}) after rescaling by the top side"
            )
        if beta <= 0.0:
            raise ValueError("beta must be positive (beta = 0 is collinear)")
        if beta > BETA_MAX:
            raise ValueError(f"beta={beta} exceeds the configured maximum {BETA_MAX}")
        return super().__new__(cls, alpha, beta)


class TrapezoidConfiguration(NamedTuple):
    """The four body positions, as ``(x, y)`` float tuples in body order,
    plus the vertical split of ``beta``.

    ``r_A`` is the distance from the system centre of mass to the line of
    the upper (mass ``m``) pair, ``r_B`` to the line of the lower (mass
    ``M``) pair.  Both are signed: negative masses push the centre of mass
    outside the strip, which flips a sign.
    """

    positions: tuple[tuple[float, float], ...]
    r_A: float
    r_B: float


def distance_cubes_values(alpha, beta):
    """Cubed lateral and diagonal distances ``(a, b)``, with ``a < b``
    strictly whenever alpha > 0; works on scalars or arrays."""
    a = ((0.5 - 0.5 * alpha) ** 2 + beta**2) ** 1.5
    b = ((0.5 + 0.5 * alpha) ** 2 + beta**2) ** 1.5
    return a, b


def build_configuration(params: TrapezoidParams, m: float, M: float) -> TrapezoidConfiguration:
    """Place the four bodies so the mass-weighted centre is the origin.

    ``m`` is the mass of the upper pair (bodies 2, 3), ``M`` of the lower
    pair (bodies 1, 4).  Either may carry any sign, which the sign analysis
    of the mass formulas needs; only ``m + M = 0`` raises
    DegenerateMassError, and a non-finite position ValueError.
    """
    total = m + M
    if total == 0.0:
        raise DegenerateMassError("m + M = 0: centre-of-mass split undefined")
    r_A = M * params.beta / total
    r_B = m * params.beta / total
    half_top = 0.5 * params.alpha
    positions = ((-0.5, -r_B), (-half_top, r_A), (half_top, r_A), (0.5, -r_B))
    if not (math.isfinite(r_A) and math.isfinite(r_B)):
        bad = positions[0] if not math.isfinite(r_B) else positions[1]
        raise ValueError(f"non-finite components: {bad}")
    return TrapezoidConfiguration(positions=positions, r_A=r_A, r_B=r_B)

