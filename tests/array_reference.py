"""The numpy array codings that the float kernel replaced, kept as references.

``trapcc.oracle`` computes the force law, the potential and the centrality
report on Python floats through one pair kernel, and ``trapcc.dynamics``
runs RK4 on float lists.  Both must return the same bits as the array code
below, which is what the package ran before: an ``(N, N, 2)`` difference
array for the attraction, a Python double loop of ``np.hypot`` for the
potential, RK4 on ``(N, 2)`` arrays, and a centrality check that builds a
translated system twice.  The tests compare with ``tobytes()`` or ``==``,
never with a tolerance.

Not a test module (no ``test_`` prefix); the tests import it.
"""

from __future__ import annotations

import math

import numpy as np

from trapcc.geometry import PlanarPoint


def attraction_field(masses: np.ndarray, positions: np.ndarray) -> np.ndarray:
    diff = positions[None, :, :] - positions[:, None, :]  # diff[k, j] = r_j - r_k
    dist2 = (diff**2).sum(axis=2)
    np.fill_diagonal(dist2, 1.0)
    inv_d3 = dist2**-1.5
    np.fill_diagonal(inv_d3, 0.0)
    return (masses[None, :, None] * diff * inv_d3[:, :, None]).sum(axis=1)


def potential_and_moment(system) -> tuple[float, float]:
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


def cc_residual(system, lam: float) -> dict:
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
        if u2 < 1e-9**2:
            lam_body.append(math.nan)
        else:
            lam_body.append(float(-(attractions[k] @ rel[k]) / u2))

    centred = system.translated(-float(com[0]), -float(com[1]))
    potential, moment = potential_and_moment(centred)
    lambda_energy = potential / (2.0 * moment) if moment != 0.0 else math.inf

    return {
        "lambda_per_body": tuple(lam_body),
        "lambda_energy": lambda_energy,
        "potential": potential,
        "moment": moment,
        "max_residual": float(defect_norms.max()),
        "attraction_scale": float(attraction_norms.mean()),
        "com": PlanarPoint(float(com[0]), float(com[1])),
    }


def is_central_configuration(system, tol: float = 1e-10) -> tuple[bool, dict]:
    masses = system.mass_array()
    pos = system.position_array()
    c = (masses[:, None] * pos).sum(axis=0) / masses.sum()
    centred = system.translated(-float(c[0]), -float(c[1]))
    potential, moment = potential_and_moment(centred)
    if moment == 0.0:
        return False, cc_residual(centred, 0.0)
    report = cc_residual(centred, potential / (2.0 * moment))
    return report["max_residual"] <= tol * report["attraction_scale"], report


def total_energy(masses, positions, velocities) -> float:
    kinetic = 0.5 * float((masses * (velocities**2).sum(axis=1)).sum())
    potential = 0.0
    n = len(masses)
    for i in range(n):
        for j in range(i + 1, n):
            potential += masses[i] * masses[j] / float(np.hypot(*(positions[i] - positions[j])))
    return kinetic - potential


def total_angular_momentum(masses, positions, velocities) -> float:
    return float(
        (masses * (positions[:, 0] * velocities[:, 1] - positions[:, 1] * velocities[:, 0])).sum()
    )


def integrate(masses, pos, vel, dt: float, t_end: float, output_stride: int):
    """RK4 on arrays: the sample times, positions and velocities, and the
    energy and angular-momentum series."""
    t = 0.0
    samples = [(0.0, pos, vel)]
    energies = [total_energy(masses, pos, vel)]
    ang_momenta = [total_angular_momentum(masses, pos, vel)]
    n_steps = max(0, math.ceil(t_end / dt - 1e-12))
    for step in range(1, n_steps + 1):
        h = min(dt, t_end - t)
        k1p = vel
        k1v = attraction_field(masses, pos)
        k2p = vel + 0.5 * h * k1v
        k2v = attraction_field(masses, pos + 0.5 * h * k1p)
        k3p = vel + 0.5 * h * k2v
        k3v = attraction_field(masses, pos + 0.5 * h * k2p)
        k4p = vel + h * k3v
        k4v = attraction_field(masses, pos + h * k3p)
        pos = pos + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        vel = vel + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t += h
        if step % output_stride == 0 or step == n_steps:
            samples.append((t, pos, vel))
            energies.append(total_energy(masses, pos, vel))
            ang_momenta.append(total_angular_momentum(masses, pos, vel))
    return samples, energies, ang_momenta
