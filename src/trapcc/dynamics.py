"""Newtonian integration and rigid-rotation verification.

A genuinely central configuration, given circular velocities v_k =
omega * (-y_k, x_k) with omega = sqrt(lambda), rotates rigidly with period
2*pi/omega; under the package normalisation lambda = 1 the period is 2*pi.
The integrator here is the verification apparatus for that statement: a
fixed-step classical Runge-Kutta scheme, deterministic and accurate enough
that any rigidity failure it reports is a property of the initial data,
not of the integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .geometry import PlanarPoint, TrapezoidParams, compute_distance_cubes, build_configuration
from .masses import RegionLabel, classify, solve_masses
from .oracle import (
    CoincidentBodiesError,
    _field,
    _min_separation,
    _pair_distances,
    _pairs,
    _potential,
    attraction_field,
)

COLLISION_TOL = 1e-6
DEFAULT_DT = 1e-3
DEFAULT_OUTPUT_STRIDE = 100


class UnphysicalParametersError(ValueError):
    """Relative-equilibrium initial data requested where at least one mass
    is non-positive (pass force=True to experiment anyway)."""


class CollisionError(RuntimeError):
    """Two bodies came within the collision tolerance; the trajectory up to
    the abort is attached for inspection."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class BodyState:
    position: PlanarPoint
    velocity: PlanarPoint


@dataclass(frozen=True, eq=False)
class SystemState:
    """Masses and phase-space coordinates of all bodies at one instant."""

    bodies: tuple[tuple[float, BodyState], ...]
    time: float

    def __post_init__(self):
        coords = [c for _, s in self.bodies for c in (s.position.x, s.position.y)]
        for (i, j), d in zip(_pairs(len(self.bodies)), _pair_distances(coords).tolist()):
            if d < COLLISION_TOL:
                raise CoincidentBodiesError(
                    f"bodies {i + 1} and {j + 1} are within the collision tolerance"
                )

    @classmethod
    def from_arrays(cls, masses, positions, velocities, time: float) -> "SystemState":
        bodies = tuple(
            (
                float(m),
                BodyState(
                    position=PlanarPoint(float(p[0]), float(p[1])),
                    velocity=PlanarPoint(float(v[0]), float(v[1])),
                ),
            )
            for m, p, v in zip(masses, positions, velocities)
        )
        return cls(bodies=bodies, time=float(time))

    def mass_array(self) -> np.ndarray:
        return np.array([m for m, _ in self.bodies], dtype=float)

    def position_array(self) -> np.ndarray:
        return np.array([[s.position.x, s.position.y] for _, s in self.bodies], dtype=float)

    def velocity_array(self) -> np.ndarray:
        return np.array([[s.velocity.x, s.velocity.y] for _, s in self.bodies], dtype=float)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered state samples with conserved-quantity series."""

    samples: tuple[SystemState, ...]
    energy_series: tuple[float, ...]
    angular_momentum_series: tuple[float, ...]

    def __post_init__(self):
        times = [s.time for s in self.samples]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")

    def times(self) -> tuple[float, ...]:
        return tuple(s.time for s in self.samples)


@dataclass(frozen=True)
class RigidityReport:
    """Worst-case relative drifts over a trajectory: pairwise distances
    against their initial values, total energy and angular momentum against
    their initial values."""

    max_distance_deviation: float
    max_energy_drift: float
    max_angular_momentum_drift: float


def accelerations(state: SystemState) -> np.ndarray:
    """Pairwise gravitational accelerations (G = 1) for every body."""
    return attraction_field(state.mass_array(), state.position_array())


def trapezoid_accelerations(params: TrapezoidParams, m: float, M: float) -> np.ndarray:
    """Accelerations of the standard trapezoid state from the specialised
    per-body formulas, an independent coding of the same force law.

    The denominators are the closed-form cubed distances (a for lateral
    pairs, b for diagonals, alpha^3 for the top side, 1 for the bottom),
    never recomputed from coordinates, so agreement with
    :func:`accelerations` cross-checks both codings.
    """
    cubes = compute_distance_cubes(params)
    a, b = cubes.a, cubes.b
    alpha3 = params.alpha**3
    config = build_configuration(params, m, M, strict=False)
    r = np.array([[p.x, p.y] for p in config.positions])
    r12, r13, r14 = r[1] - r[0], r[2] - r[0], r[3] - r[0]
    r23, r24 = r[2] - r[1], r[3] - r[1]
    r34 = r[3] - r[2]
    acc1 = m * r12 / a + m * r13 / b + M * r14
    acc2 = M * (-r12) / a + m * r23 / alpha3 + M * r24 / b
    acc3 = M * (-r13) / b + m * (-r23) / alpha3 + M * r34 / a
    acc4 = m * (-r24) / b + M * (-r14) + m * (-r34) / a
    return np.stack([acc1, acc2, acc3, acc4])


def total_energy(masses: np.ndarray, positions: np.ndarray, velocities: np.ndarray) -> float:
    kinetic = 0.5 * float((masses * (velocities**2).sum(axis=1)).sum())
    return kinetic - _potential(masses.tolist(), positions.ravel().tolist())


def total_angular_momentum(masses: np.ndarray, positions: np.ndarray, velocities: np.ndarray) -> float:
    return float(
        (masses * (positions[:, 0] * velocities[:, 1] - positions[:, 1] * velocities[:, 0])).sum()
    )


def init_relative_equilibrium(params: TrapezoidParams, force: bool = False) -> SystemState:
    """Initial data for rigid rotation: solved masses, standard positions,
    circular velocities with angular velocity 1 (the square root of the
    normalised multiplier).  Total linear momentum vanishes because the
    centre of mass sits at the origin.

    Refuses parameter points where a mass is non-positive unless ``force``
    is set; negative-mass rotations are algebra, not dynamics.
    """
    label = classify(params)
    if label is not RegionLabel.BOTH_POSITIVE and not force:
        raise UnphysicalParametersError(
            f"(alpha={params.alpha}, beta={params.beta}) is labelled {label.value}; "
            "pass force=True to build negative-mass initial data anyway"
        )
    solution = solve_masses(params)
    config = build_configuration(params, solution.m, solution.M, strict=False)
    positions = np.array([[p.x, p.y] for p in config.positions])
    omega = 1.0
    velocities = omega * np.stack([-positions[:, 1], positions[:, 0]], axis=1)
    masses = np.array([solution.M, solution.m, solution.m, solution.M])
    return SystemState.from_arrays(masses, positions, velocities, time=0.0)


def integrate(
    initial: SystemState,
    dt: float = DEFAULT_DT,
    t_end: float = 2.0 * math.pi,
    output_stride: int = DEFAULT_OUTPUT_STRIDE,
) -> Trajectory:
    """Fixed-step 4th-order Runge-Kutta integration from ``initial``.

    Samples (with energy and angular momentum) are recorded at t = 0, every
    ``output_stride`` steps, and at t_end, which is hit exactly by a final
    partial step so return-to-start checks are meaningful.

    Raises
    ------
    CollisionError
        When any separation drops below 1e-6; the partial trajectory is
        attached to the exception.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    if output_stride < 1:
        raise ValueError("output_stride must be at least 1")

    # the state is flat coordinates [x_0, y_0, x_1, y_1, ...] of Python
    # floats: for a few bodies numpy's per-call cost outweighs the
    # arithmetic.  Each update is elementwise in the order of the (N, 2)
    # array expression, so the bits match the array form of RK4 kept in
    # tests/array_reference.py
    masses = [m for m, _ in initial.bodies]
    pos = [c for _, s in initial.bodies for c in (s.position.x, s.position.y)]
    vel = [c for _, s in initial.bodies for c in (s.velocity.x, s.velocity.y)]
    mass_array = np.array(masses)
    t = 0.0

    samples = [initial]
    start = initial.position_array(), initial.velocity_array()
    energies = [total_energy(mass_array, *start)]
    ang_momenta = [total_angular_momentum(mass_array, *start)]

    def record(time):
        p, v = np.reshape(pos, (-1, 2)), np.reshape(vel, (-1, 2))
        samples.append(SystemState.from_arrays(masses, p, v, time=initial.time + time))
        energies.append(total_energy(mass_array, p, v))
        ang_momenta.append(total_angular_momentum(mass_array, p, v))

    n_steps = max(0, math.ceil(t_end / dt - 1e-12))
    for step in range(1, n_steps + 1):
        h = min(dt, t_end - t)
        half, sixth = 0.5 * h, h / 6.0
        k1v = _field(masses, pos)
        k2p = [v + half * a for v, a in zip(vel, k1v)]
        k2v = _field(masses, [p + half * v for p, v in zip(pos, vel)])
        k3p = [v + half * a for v, a in zip(vel, k2v)]
        k3v = _field(masses, [p + half * v for p, v in zip(pos, k2p)])
        k4p = [v + h * a for v, a in zip(vel, k3v)]
        k4v = _field(masses, [p + h * v for p, v in zip(pos, k3p)])
        pos = [
            p + sixth * (a + 2.0 * b + 2.0 * c + d)
            for p, a, b, c, d in zip(pos, vel, k2p, k3p, k4p)
        ]
        vel = [
            v + sixth * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(vel, k1v, k2v, k3v, k4v)
        ]
        t += h

        if _min_separation(pos) < COLLISION_TOL:
            partial = Trajectory(
                samples=tuple(samples),
                energy_series=tuple(energies),
                angular_momentum_series=tuple(ang_momenta),
            )
            raise CollisionError(
                f"separation fell below {COLLISION_TOL:g} at t = {t:.6f}", partial
            )
        if step % output_stride == 0 or step == n_steps:
            record(t)

    return Trajectory(
        samples=tuple(samples),
        energy_series=tuple(energies),
        angular_momentum_series=tuple(ang_momenta),
    )


def rigidity_metrics(trajectory: Trajectory) -> RigidityReport:
    """Worst relative drift of every pairwise distance, the energy and the
    angular momentum over the trajectory, all against their initial values."""
    if not trajectory.samples:
        raise ValueError("empty trajectory")
    d0 = _pair_distances(trajectory.samples[0].position_array().ravel().tolist())
    e0 = trajectory.energy_series[0]
    l0 = trajectory.angular_momentum_series[0]

    max_dist = 0.0
    for sample in trajectory.samples[1:]:
        d = _pair_distances(sample.position_array().ravel().tolist())
        max_dist = max(max_dist, float(np.max(np.abs(d - d0) / d0)))

    def rel_drift(series, ref):
        if not series:
            return 0.0
        scale = abs(ref) if ref != 0.0 else 1.0
        return max(abs(v - ref) / scale for v in series)

    return RigidityReport(
        max_distance_deviation=max_dist,
        max_energy_drift=rel_drift(trajectory.energy_series[1:], e0),
        max_angular_momentum_drift=rel_drift(trajectory.angular_momentum_series[1:], l0),
    )
