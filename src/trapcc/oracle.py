"""Generic planar N-body central-configuration checker.

A configuration is central when every body's gravitational acceleration is
proportional to its position relative to the centre of mass, with a single
proportionality constant lambda:

    sum_{j != k} m_j (r_j - r_k) / |r_j - r_k|^3  =  -lambda (r_k - c)

This module is deliberately model independent: it knows nothing about the
trapezoid family and simply measures the defect of that equation for any
list of (mass, position) pairs, with G = 1.  Negative masses are allowed
(sign analysis of the mass formulas needs them); only a vanishing total
mass or coincident bodies are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ._numpy import np
from .geometry import PlanarPoint, TrapezoidParams, build_configuration

MIN_SEPARATION = 1e-9
DEFAULT_CC_TOL = 1e-10


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
        total = math.fsum(self.masses)
        if total == 0.0:
            raise ValueError("total mass must not vanish")
        pos = self.position_array()
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if float(dist.min()) < MIN_SEPARATION:
            raise ValueError(
                f"bodies closer than {MIN_SEPARATION:g}: min separation {dist.min():.3e}"
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


def center_of_mass(system: PlanarSystem) -> PlanarPoint:
    masses = system.mass_array()
    pos = system.position_array()
    total = masses.sum()
    c = (masses[:, None] * pos).sum(axis=0) / total
    return PlanarPoint(float(c[0]), float(c[1]))


def attraction_field(masses: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Gravitational acceleration of every body, G = 1.

    Shared kernel: the oracle and the integrator both use it, while the
    trapezoid-specialised formulas in :mod:`trapcc.dynamics` provide the
    independent second coding of the same force law.
    """
    diff = positions[None, :, :] - positions[:, None, :]  # diff[k, j] = r_j - r_k
    dist2 = (diff**2).sum(axis=2)
    np.fill_diagonal(dist2, 1.0)
    inv_d3 = dist2**-1.5
    np.fill_diagonal(inv_d3, 0.0)
    return (masses[None, :, None] * diff * inv_d3[:, :, None]).sum(axis=1)


def potential_and_moment(system: PlanarSystem) -> tuple[float, float]:
    """Self-potential over all unordered pairs and the half moment
    ``0.5 * sum m_i |r_i|^2`` about the origin (translate the system first
    when the centre of mass matters)."""
    masses = system.mass_array()
    pos = system.position_array()
    n = len(masses)
    potential = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.hypot(*(pos[i] - pos[j])))
            potential += masses[i] * masses[j] / d
    moment = 0.5 * float((masses * (pos**2).sum(axis=1)).sum())
    return potential, moment


def cc_residual(system: PlanarSystem, lam: float) -> ResidualReport:
    """Defect of the central-configuration equation at a given multiplier.

    For each body the defect vector is

        A_k + lam * (r_k - c),    A_k = sum_{j != k} m_j (r_j - r_k)/d^3

    with c the mass-weighted centre.  The report carries the largest defect
    norm, the mean attraction norm for normalisation, per-body least-squares
    multipliers, and the energy-ratio multiplier potential/(2*moment) with
    the moment taken about c.
    """
    masses = system.mass_array()
    pos = system.position_array()
    total = masses.sum()
    com = (masses[:, None] * pos).sum(axis=0) / total
    rel = pos - com

    attractions = attraction_field(masses, pos)
    defect = attractions + lam * rel
    defect_norms = np.sqrt((defect**2).sum(axis=1))
    attraction_norms = np.sqrt((attractions**2).sum(axis=1))

    lam_body = []
    for k in range(len(masses)):
        u2 = float((rel[k] ** 2).sum())
        if u2 < MIN_SEPARATION**2:
            lam_body.append(math.nan)
        else:
            lam_body.append(float(-(attractions[k] @ rel[k]) / u2))

    centred = system.translated(-float(com[0]), -float(com[1]))
    potential, moment = potential_and_moment(centred)
    lambda_energy = potential / (2.0 * moment) if moment != 0.0 else math.inf

    return ResidualReport(
        lambda_per_body=tuple(lam_body),
        lambda_energy=lambda_energy,
        potential=potential,
        moment=moment,
        max_residual=float(defect_norms.max()),
        attraction_scale=float(attraction_norms.mean()),
        com=PlanarPoint(float(com[0]), float(com[1])),
    )


def is_central_configuration(
    system: PlanarSystem, tol: float = DEFAULT_CC_TOL
) -> tuple[bool, ResidualReport]:
    """Check centrality with the multiplier inferred from the system itself.

    The system is recentred, lambda is taken as potential/(2*moment), and
    the verdict is ``max_residual <= tol * attraction_scale``, making the
    tolerance dimensionless.  The full report is returned either way.
    """
    com = center_of_mass(system)
    centred = system.translated(-com.x, -com.y)
    potential, moment = potential_and_moment(centred)
    if moment == 0.0:
        report = cc_residual(centred, 0.0)
        return False, report
    lam = potential / (2.0 * moment)
    report = cc_residual(centred, lam)
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
