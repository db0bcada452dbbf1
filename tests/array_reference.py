"""The numpy array codings that the float kernel replaced, kept as references.

``trapcc.oracle`` computes the force law, the potential, the centrality
report and each RK4 step of ``trapcc.dynamics`` on Python floats, in
straight-line code generated per body count (``oracle._kernels``).  It
must return the same bits as the array code below, which is the shape of
what the package ran before: an ``(N, N, 2)`` difference array for the
attraction, a Python double loop over the pair distances for the
potential, RK4 on ``(N, 2)`` arrays, a centrality check that builds a
translated system twice, and rigidity metrics that loop over the samples.
Both take each pair's square ``s = dx * dx + dy * dy``, its distance
``sqrt(s)``, its force weight ``1.0 / (s * sqrt(s))`` and each body's
multiplier dot ``ax * ux + ay * uy``: correctly rounded operations, whose
bits are the same on every CPU.  The tests compare with ``tobytes()`` or
``==``, never with a tolerance.

It also keeps two independent second codings that the tests check the
package against within rounding: the specialised trapezoid force law
(:func:`trapezoid_accelerations`) and the body positions rebuilt from two
generating vectors (:func:`reconstruct_positions`), and compare-approx's
order of its worst cells written out in Python (:func:`worst_order`).

Not a test module (no ``test_`` prefix); the tests import it.
"""

from __future__ import annotations

import math

import numpy as np

from trapcc.geometry import (
    DegenerateMassError,
    TrapezoidParams,
    build_configuration,
    distance_cubes_values,
)
from trapcc.oracle import PlanarSystem
from trapcc.oracle import attraction_field as package_field


def arrays(system: PlanarSystem) -> tuple[np.ndarray, np.ndarray]:
    """The masses ``(N,)`` and positions ``(N, 2)`` of ``system`` as arrays."""
    return np.array(system.masses), np.array(system.positions)


def translated(system: PlanarSystem, dx: float, dy: float) -> PlanarSystem:
    """``system`` with every position moved by ``(dx, dy)``."""
    return PlanarSystem(system.masses, np.array(system.positions) + np.array([dx, dy]))


def field_array(masses, positions) -> np.ndarray:
    """The package's float kernel, :func:`trapcc.oracle.attraction_field`,
    on arrays: ``(N,)`` masses and ``(N, 2)`` positions in (arrays or
    tuples), ``(N, 2)`` accelerations out, with its bits."""
    return np.reshape(package_field(list(masses), np.ravel(positions).tolist()), (-1, 2))


def squares(positions: np.ndarray) -> np.ndarray:
    """``(N, N)`` squared distances: ``dx * dx + dy * dy`` of each pair."""
    diff = positions[None, :, :] - positions[:, None, :]
    return diff[:, :, 0] * diff[:, :, 0] + diff[:, :, 1] * diff[:, :, 1]


def attraction_field(masses: np.ndarray, positions: np.ndarray) -> np.ndarray:
    diff = positions[None, :, :] - positions[:, None, :]  # diff[k, j] = r_j - r_k
    dist2 = squares(positions)
    np.fill_diagonal(dist2, 1.0)
    inv_d3 = 1.0 / (dist2 * np.sqrt(dist2))
    np.fill_diagonal(inv_d3, 0.0)
    return (masses[None, :, None] * diff * inv_d3[:, :, None]).sum(axis=1)


def potential_of(masses: np.ndarray, positions: np.ndarray) -> float:
    """``sum m_i m_j / d_ij`` from 0.0 over the pairs ``i < j`` in order."""
    distances = np.sqrt(squares(positions))
    potential = 0.0
    n = len(masses)
    for i in range(n):
        for j in range(i + 1, n):
            potential += masses[i] * masses[j] / distances[i, j]
    return float(potential)


def potential_and_moment(system) -> tuple[float, float]:
    masses, pos = arrays(system)
    moment = 0.5 * float((masses * (pos**2).sum(axis=1)).sum())
    return potential_of(masses, pos), moment


def cc_residual(system, lam: float) -> dict:
    masses, pos = arrays(system)
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
            (ax, ay), (ux, uy) = attractions[k], rel[k]
            lam_body.append(float(-(ax * ux + ay * uy) / u2))

    centred = translated(system, -float(com[0]), -float(com[1]))
    potential, moment = potential_and_moment(centred)
    lambda_energy = potential / (2.0 * moment) if moment != 0.0 else math.inf

    return {
        "lambda_per_body": tuple(lam_body),
        "lambda_energy": lambda_energy,
        "potential": potential,
        "moment": moment,
        "max_residual": float(defect_norms.max()),
        "attraction_scale": float(attraction_norms.mean()),
        "com": (float(com[0]), float(com[1])),
    }


def is_central_configuration(system, tol: float = 1e-10) -> tuple[bool, dict]:
    masses, pos = arrays(system)
    c = (masses[:, None] * pos).sum(axis=0) / masses.sum()
    centred = translated(system, -float(c[0]), -float(c[1]))
    potential, moment = potential_and_moment(centred)
    if moment == 0.0:
        return False, cc_residual(centred, 0.0)
    report = cc_residual(centred, potential / (2.0 * moment))
    residual, scale = report["max_residual"], report["attraction_scale"]
    return math.isfinite(residual) and math.isfinite(scale) and residual <= tol * scale, report


def total_energy(masses, positions, velocities) -> float:
    kinetic = 0.5 * float((masses * (velocities**2).sum(axis=1)).sum())
    return kinetic - potential_of(masses, positions)


def total_angular_momentum(masses, positions, velocities) -> float:
    return float(
        (masses * (positions[:, 0] * velocities[:, 1] - positions[:, 1] * velocities[:, 0])).sum()
    )


def integrate(masses, pos, vel, dt: float, t_end: float, output_stride: int):
    """RK4 on arrays: the sample times, positions and velocities, and the
    energy and angular-momentum series.  Step k starts at (k - 1) * dt and
    the last one ends at t_end."""
    samples = [(0.0, pos, vel)]
    energies = [total_energy(masses, pos, vel)]
    ang_momenta = [total_angular_momentum(masses, pos, vel)]
    n_steps = max(0, math.ceil(t_end / dt - 1e-12))
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        h = t_end - t if step == n_steps else dt
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
        t = t_end if step == n_steps else step * dt
        if step % output_stride == 0 or step == n_steps:
            samples.append((t, pos, vel))
            energies.append(total_energy(masses, pos, vel))
            ang_momenta.append(total_angular_momentum(masses, pos, vel))
    return samples, energies, ang_momenta


def rigidity_metrics(samples, energies, ang_momenta) -> dict:
    """The per-sample loop over :func:`integrate`'s output: the worst
    relative drift of every pair distance, the energy and the angular
    momentum against their initial values, each the ``np.max`` of the
    drifts from 0.0, so NaN when a drift is NaN."""

    def distances(pos):
        return np.sqrt(squares(pos))[np.triu_indices(len(pos), 1)]

    d0 = distances(samples[0][1])
    deviations = [np.abs(distances(pos) - d0) / d0 for _, pos, _ in samples[1:]]

    def rel_drift(series):
        ref = series[0]
        scale = abs(ref) if ref != 0.0 else 1.0
        return float(np.max(np.abs(np.array(series[1:]) - ref) / scale, initial=0.0))

    return {
        "max_distance_deviation": float(np.max(deviations, initial=0.0)),
        "max_energy_drift": rel_drift(energies),
        "max_angular_momentum_drift": rel_drift(ang_momenta),
    }


def trapezoid_accelerations(params: TrapezoidParams, m: float, M: float) -> np.ndarray:
    """Accelerations of the standard trapezoid state from the specialised
    per-body formulas, an independent coding of the same force law.

    The denominators are the closed-form cubed distances (a for lateral
    pairs, b for diagonals, alpha^3 for the top side, 1 for the bottom),
    never recomputed from coordinates, so agreement with
    :func:`trapcc.oracle.attraction_field` cross-checks both codings.
    """
    a, b = distance_cubes_values(params.alpha, params.beta)
    alpha3 = params.alpha**3
    config = build_configuration(params, m, M)
    r = np.array(config.positions)
    r12, r13, r14 = r[1] - r[0], r[2] - r[0], r[3] - r[0]
    r23, r24 = r[2] - r[1], r[3] - r[1]
    r34 = r[3] - r[2]
    acc1 = m * r12 / a + m * r13 / b + M * r14
    acc2 = M * (-r12) / a + m * r23 / alpha3 + M * r24 / b
    acc3 = M * (-r13) / b + m * (-r23) / alpha3 + M * r34 / a
    acc4 = m * (-r24) / b + M * (-r14) + m * (-r34) / a
    return np.stack([acc1, acc2, acc3, acc4])


def reconstruct_positions(
    offset: tuple[float, float], bottom_edge: tuple[float, float], m: float, M: float,
    alpha: float,
) -> tuple[tuple[float, float], ...]:
    """Rebuild the four ``(x, y)`` positions from the two generating vectors.

    ``offset`` is the vector from the lower-pair midpoint to the upper-pair
    midpoint; ``bottom_edge`` the vector from body 4 to body 1.  Every body
    position is a linear combination of these two:

        r1 = -m/(m+M) * offset + 1/2     * bottom_edge
        r2 =  M/(m+M) * offset + alpha/2 * bottom_edge
        r3 =  M/(m+M) * offset - alpha/2 * bottom_edge
        r4 = -m/(m+M) * offset - 1/2     * bottom_edge

    The ``alpha`` factor is needed for the inner pair; for the standard
    configuration pass offset=(0, beta), bottom_edge=(-1, 0).
    """
    total = m + M
    if total == 0.0:
        raise DegenerateMassError("m + M = 0: decomposition weights undefined")
    w_out = -m / total
    w_in = M / total
    half = 0.5
    half_top = 0.5 * alpha
    (ox, oy), (ex, ey) = offset, bottom_edge

    def combine(w, s):
        return (w * ox + s * ex, w * oy + s * ey)

    return (
        combine(w_out, half),
        combine(w_in, half_top),
        combine(w_in, -half_top),
        combine(w_out, -half),
    )


def worst_order(values, count: int = 10) -> list[int]:
    """The flat positions of the ``count`` worst of ``values``, worst
    first: NaN before every number, then the largest, and equal values by
    ascending position."""
    values = np.ravel(values).tolist()
    return sorted(
        range(len(values)),
        key=lambda i: (not math.isnan(values[i]), 0.0 if math.isnan(values[i]) else -values[i], i),
    )[:count]
