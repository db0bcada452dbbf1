"""Generic planar N-body central-configuration checker.

A configuration is central when every body's gravitational acceleration is
proportional to its position relative to the centre of mass, with a single
proportionality constant lambda:

    sum_{j != k} m_j (r_j - r_k) / |r_j - r_k|^3  =  -lambda (r_k - c)

This module is deliberately model independent: it knows nothing about the
trapezoid family and simply measures the defect of that equation for any
list of (mass, position) pairs, with G = 1.  Negative masses are allowed
(sign analysis of the mass formulas needs them); only a total mass that
vanishes to rounding or coincident bodies are rejected.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable

from ._numpy import np
from .geometry import PlanarPoint, TrapezoidParams, build_configuration

MIN_SEPARATION = 1e-9
DEFAULT_CC_TOL = 1e-10


class CoincidentBodiesError(ValueError):
    """Two bodies of a system are closer than the separation it allows."""


@dataclass(frozen=True, eq=False)
class PlanarSystem:
    """An ordered list of point masses in the plane, G = 1.

    Positions must be pairwise distinct (separation above 1e-9) and the
    total mass must not vanish.  Masses may carry either sign.
    """

    masses: tuple[float, ...]
    positions: tuple[PlanarPoint, ...]

    def __post_init__(self):
        if len(self.masses) != len(self.positions):
            raise ValueError("one mass per position required")
        if len(self.masses) < 2:
            raise ValueError("at least 2 bodies required")
        if not all(math.isfinite(m) for m in self.masses):
            raise ValueError("masses must be finite")
        # the centre of mass divides by a plain float sum of the masses,
        # which is only known to about n * eps * sum |m|: a total inside
        # that error vanishes as far as the centre can tell
        total = math.fsum(self.masses)
        noise = len(self.masses) * sys.float_info.epsilon * math.fsum(map(abs, self.masses))
        if abs(total) <= noise:
            raise ValueError(f"total mass must not vanish: {total!r} is within rounding of 0")
        nearest = _min_separation([c for p in self.positions for c in (p.x, p.y)])
        if nearest < MIN_SEPARATION:
            raise CoincidentBodiesError(
                f"bodies closer than {MIN_SEPARATION:g}: min separation {nearest:.3e}"
            )

    @classmethod
    def from_bodies(cls, bodies: Iterable[tuple[float, object]]) -> "PlanarSystem":
        """Build from (mass, position) pairs; positions may be PlanarPoint
        or any (x, y) sequence."""
        masses = []
        points = []
        for mass, position in bodies:
            masses.append(float(mass))
            if isinstance(position, PlanarPoint):
                points.append(position)
            else:
                x, y = position
                points.append(PlanarPoint(float(x), float(y)))
        return cls(masses=tuple(masses), positions=tuple(points))

    def mass_array(self) -> np.ndarray:
        return np.array(self.masses, dtype=float)

    def position_array(self) -> np.ndarray:
        return np.array([[p.x, p.y] for p in self.positions], dtype=float)

    def translated(self, dx: float, dy: float) -> "PlanarSystem":
        return PlanarSystem(
            masses=self.masses,
            positions=tuple(PlanarPoint(p.x + dx, p.y + dy) for p in self.positions),
        )


@dataclass(frozen=True)
class ResidualReport:
    """Everything measured in one central-configuration check.

    ``lambda_per_body`` holds the least-squares multiplier fitting each
    body's attraction to -(r_k - c); it is NaN for a body sitting at the
    centre of mass.  ``lambda_energy`` is potential / (2 * moment) with the
    moment taken about the centre of mass.  ``max_residual`` is the largest
    defect norm; compare it against ``attraction_scale`` (the mean
    attraction norm) to get a dimensionless residual.
    """

    lambda_per_body: tuple[float, ...]
    lambda_energy: float
    potential: float
    moment: float
    max_residual: float
    attraction_scale: float
    com: PlanarPoint


def _centre(masses: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mass-weighted centre and the positions relative to it."""
    com = (masses[:, None] * pos).sum(axis=0) / masses.sum()
    return com, pos - com


def center_of_mass(system: PlanarSystem) -> PlanarPoint:
    com, _ = _centre(system.mass_array(), system.position_array())
    return PlanarPoint(float(com[0]), float(com[1]))


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every pair ``(i, j)`` of n bodies with i < j, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _pair_offsets(coords: list[float]) -> tuple[list[float], list[float]]:
    """The offsets ``x_j - x_i`` and ``y_j - y_i`` of every pair of
    :func:`_pairs`, from flat coordinates ``[x_0, y_0, x_1, y_1, ...]``.
    The coordinates may be array rows, one column per system, and each
    offset is then that row difference."""
    xs, ys = coords[0::2], coords[1::2]
    pairs = _pairs(len(xs))
    return [xs[j] - xs[i] for i, j in pairs], [ys[j] - ys[i] for i, j in pairs]


def _min_separation(coords: list[float]) -> float:
    """The smallest pair distance, from flat coordinates."""
    dx, dy = _pair_offsets(coords)
    return math.sqrt(min(x * x + y * y for x, y in zip(dx, dy)))


def _pair_distances(coords: list[float]) -> np.ndarray:
    """The distance of every pair of :func:`_pairs`.

    ``np.hypot``, not ``math.hypot``: the two round differently on a few
    inputs in a thousand, and every output keeps numpy's bits.
    """
    return np.hypot(*_pair_offsets(coords))


def _potential(masses: list[float], coords: list[float]) -> float:
    """Self-potential ``sum m_i m_j / |r_i - r_j|`` over the pairs, summed
    in pair order."""
    potential = 0.0
    for (i, j), d in zip(_pairs(len(masses)), _pair_distances(coords).tolist()):
        potential += masses[i] * masses[j] / d
    return potential


def _field(masses: list[float], coords: list[float]) -> list[float]:
    """Gravitational acceleration of every body, G = 1, on Python floats.

    The one force coding of the package.  Takes and returns flat
    coordinates ``[x_0, y_0, x_1, y_1, ...]``.  Body k's acceleration is
    ``sum_j (m_j * (r_j - r_k)) * d_kj^-1.5`` summed over j in increasing
    order, term by term as a numpy sum over the body axis would, so the bits
    equal those of the ``(N, N, 2)`` array coding kept in
    ``tests/array_reference.py``.
    """
    dxs, dys = _pair_offsets(coords)
    # numpy's vectorised power differs from libm's pow (Python's ``**``) on
    # about one input in twenty; its result for a value does not depend on
    # the array's length, so one call on the pairs keeps numpy's bits
    inv_d3 = np.power([dx * dx + dy * dy for dx, dy in zip(dxs, dys)], -1.5).tolist()
    n = len(masses)
    ax, ay = [0.0] * n, [0.0] * n
    for (i, j), dx, dy, w in zip(_pairs(n), dxs, dys, inv_d3):
        mi, mj = masses[i], masses[j]
        ax[i] += mj * dx * w
        ay[i] += mj * dy * w
        ax[j] -= mi * dx * w
        ay[j] -= mi * dy * w
    return [c for xy in zip(ax, ay) for c in xy]


def attraction_field(masses: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Gravitational acceleration of every body, G = 1, as an ``(N, 2)``
    array.

    The oracle and the integrator share :func:`_field`, while the
    trapezoid-specialised formulas in :mod:`trapcc.dynamics` provide the
    independent second coding of the same force law.
    """
    return np.array(_field(masses.tolist(), positions.ravel().tolist())).reshape(-1, 2)


def _potential_and_moment(masses: np.ndarray, pos: np.ndarray) -> tuple[float, float]:
    potential = _potential(masses.tolist(), pos.ravel().tolist())
    moment = 0.5 * float((masses * (pos**2).sum(axis=1)).sum())
    return potential, moment


def potential_and_moment(system: PlanarSystem) -> tuple[float, float]:
    """Self-potential over all unordered pairs and the half moment
    ``0.5 * sum m_i |r_i|^2`` about the origin (translate the system first
    when the centre of mass matters)."""
    return _potential_and_moment(system.mass_array(), system.position_array())


def _residual(masses: np.ndarray, pos: np.ndarray, lam: float) -> ResidualReport:
    com, rel = _centre(masses, pos)
    attractions = attraction_field(masses, pos)
    defect = attractions + lam * rel
    defect_norms = np.sqrt((defect**2).sum(axis=1))
    attraction_norms = np.sqrt((attractions**2).sum(axis=1))

    # one batched ``attractions[k] @ rel[k]``: numpy's dot may fuse the
    # multiply-add, so a dot of two floats is not ``a0 * r0 + a1 * r1``
    dots = (attractions[:, None, :] @ rel[:, :, None]).ravel().tolist()
    lam_body = tuple(
        math.nan if u2 < MIN_SEPARATION**2 else -dot / u2
        for dot, u2 in zip(dots, (rel**2).sum(axis=1).tolist())
    )

    # rel is the system translated to its centre of mass
    potential, moment = _potential_and_moment(masses, rel)
    lambda_energy = potential / (2.0 * moment) if moment != 0.0 else math.inf

    return ResidualReport(
        lambda_per_body=lam_body,
        lambda_energy=lambda_energy,
        potential=potential,
        moment=moment,
        max_residual=float(defect_norms.max()),
        attraction_scale=float(attraction_norms.mean()),
        com=PlanarPoint(float(com[0]), float(com[1])),
    )


def cc_residual(system: PlanarSystem, lam: float) -> ResidualReport:
    """Defect of the central-configuration equation at a given multiplier.

    For each body the defect vector is

        A_k + lam * (r_k - c),    A_k = sum_{j != k} m_j (r_j - r_k)/d^3

    with c the mass-weighted centre.  The report carries the largest defect
    norm, the mean attraction norm for normalisation, per-body least-squares
    multipliers, and the energy-ratio multiplier potential/(2*moment) with
    the moment taken about c.
    """
    return _residual(system.mass_array(), system.position_array(), lam)


def is_central_configuration(
    system: PlanarSystem, tol: float = DEFAULT_CC_TOL
) -> tuple[bool, ResidualReport]:
    """Check centrality with the multiplier inferred from the system itself.

    The system is recentred, lambda is taken as potential/(2*moment), and
    the verdict is ``max_residual <= tol * attraction_scale``, making the
    tolerance dimensionless.  The full report is returned either way.
    """
    masses = system.mass_array()
    _, centred = _centre(masses, system.position_array())
    potential, moment = _potential_and_moment(masses, centred)
    if moment == 0.0:
        return False, _residual(masses, centred, 0.0)
    # _residual centres once more; the reported potential, moment and
    # lambda_energy come from those twice-centred positions, lam from these
    report = _residual(masses, centred, potential / (2.0 * moment))
    verdict = report.max_residual <= tol * report.attraction_scale
    return verdict, report


def trapezoid_system(params: TrapezoidParams, m: float, M: float) -> PlanarSystem:
    """The four-body system for a trapezoid shape and pair masses, in the
    body order 1..4 (lower, upper, upper, lower)."""
    config = build_configuration(params, m, M, strict=False)
    return PlanarSystem(
        masses=(M, m, m, M),
        positions=config.positions,
    )
