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
from array import array
from typing import NamedTuple

from ._numpy import np
from .geometry import TrapezoidParams, build_configuration
# classify and attraction_field are not called here, but perfbench/spans.py
# wraps dynamics.classify and dynamics.attraction_field
from .masses import RegionLabel, classify, region_label, solve_masses  # noqa: F401
from .oracle import attraction_field  # noqa: F401
from .oracle import (
    CoincidentBodiesError,
    _check_bodies,
    _half_mass_squares,
    _kernels,
    _min_separation,
    _pair_distances,
    _pairs,
    _potential,
    _sum,
)

COLLISION_TOL = 1e-6
DEFAULT_DT = 1e-3
DEFAULT_OUTPUT_STRIDE = 100
MAX_STEPS = 10**8  # the most RK4 steps integrate takes, about 1.6 hours of stepping


class UnphysicalParametersError(ValueError):
    """Relative-equilibrium initial data requested where at least one mass
    is non-positive (pass force=True to experiment anyway)."""


class CollisionError(RuntimeError):
    """Two bodies came within the collision tolerance; the trajectory up to
    the abort is attached for inspection."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


def _read_only(values) -> np.ndarray:
    """A float64 copy of ``values`` that cannot be written to."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


class SystemState(NamedTuple("SystemState", [
    ("masses", "np.ndarray"), ("positions", "np.ndarray"), ("velocities", "np.ndarray"),
])):
    """Initial data of an integration at t = 0: finite masses ``(N,)``,
    positions and velocities ``(N, 2)``, N >= 2, held as read-only float
    copies of the values given."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, masses, positions, velocities):
        masses, positions, velocities = map(_read_only, (masses, positions, velocities))
        if masses.ndim != 1 or positions.shape != (len(masses), 2):
            raise ValueError(
                f"one (x, y) position per mass required: masses {masses.shape}, "
                f"positions {positions.shape}"
            )
        if velocities.shape != positions.shape:
            raise ValueError(
                f"velocities {velocities.shape} must match positions {positions.shape}"
            )
        coords = positions.ravel().tolist()
        _check_bodies(masses.tolist(), coords, velocities.ravel().tolist())
        for (i, j), d in zip(_pairs(len(masses)), _pair_distances(coords).tolist()):
            if d < COLLISION_TOL:
                raise CoincidentBodiesError(
                    f"bodies {i + 1} and {j + 1} are within the collision tolerance"
                )
        return super().__new__(cls, masses, positions, velocities)

    @classmethod
    def from_arrays(cls, masses, positions, velocities) -> "SystemState":
        return cls(masses, positions, velocities)


class Trajectory(NamedTuple("Trajectory", [("samples", "np.ndarray")])):
    """Recorded samples of an N-body integration as one ``(S, 3 + 4N)``
    float array, one row per sample in time order: ``t``, the positions
    ``x_1, y_1, ..., x_N, y_N``, the velocities in the same order, the
    total energy and the angular momentum.  The properties are read-only
    views of it; ``positions`` and ``velocities`` are ``(S, N, 2)``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, samples):
        return cls._own(_read_only(samples))

    @classmethod
    def _own(cls, samples):
        """The checked Trajectory of a fresh float buffer, held read-only
        without the constructor's copy."""
        samples.flags.writeable = False
        width = samples.shape[1] if samples.ndim == 2 else 0
        if samples.ndim != 2 or not len(samples) or width < 7 or (width - 3) % 4:
            raise ValueError(
                f"samples must be an (S, 3 + 4N) array with S, N >= 1, not shape {samples.shape}"
            )
        times = samples[:, 0]
        if not np.isfinite(times).all() or (times[1:] <= times[:-1]).any():
            raise ValueError("sample times must be finite and strictly increasing")
        return super().__new__(cls, samples)

    @property
    def times(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def positions(self) -> np.ndarray:
        return self.samples[:, 1:-2].reshape(len(self.samples), 2, -1, 2)[:, 0]

    @property
    def velocities(self) -> np.ndarray:
        return self.samples[:, 1:-2].reshape(len(self.samples), 2, -1, 2)[:, 1]

    @property
    def energy(self) -> np.ndarray:
        return self.samples[:, -2]

    @property
    def angular_momentum(self) -> np.ndarray:
        return self.samples[:, -1]


class RigidityReport(NamedTuple):
    """Worst-case relative drifts over a trajectory: pairwise distances
    against their initial values, total energy and angular momentum against
    their initial values."""

    max_distance_deviation: float
    max_energy_drift: float
    max_angular_momentum_drift: float


def total_energy(masses: list[float], positions: list[float], velocities: list[float]) -> float:
    """Kinetic minus potential energy, from masses and flat positions and
    velocities ``[x_0, y_0, x_1, y_1, ...]``, summed as numpy would."""
    return _half_mass_squares(masses, velocities) - _potential(masses, positions)


def total_angular_momentum(
    masses: list[float], positions: list[float], velocities: list[float]
) -> float:
    """``sum m_k (x_k vy_k - y_k vx_k)`` of flat positions and velocities,
    summed as numpy would."""
    bodies = zip(masses, positions[0::2], positions[1::2], velocities[0::2], velocities[1::2])
    return _sum([m * (x * vy - y * vx) for m, x, y, vx, vy in bodies])


def init_relative_equilibrium(params: TrapezoidParams, force: bool = False) -> SystemState:
    """Initial data for rigid rotation: solved masses, standard positions,
    circular velocities with angular velocity 1 (the square root of the
    normalised multiplier).  Total linear momentum vanishes because the
    centre of mass sits at the origin.

    Refuses parameter points where a mass is non-positive unless ``force``
    is set; negative-mass rotations are algebra, not dynamics.  On the
    f3 = 0 curve, where no masses exist, ``solve_masses`` raises
    DegenerateConfigurationError with or without ``force``.
    """
    solution = solve_masses(params)
    label = region_label(solution.m, solution.M)
    if label is not RegionLabel.BOTH_POSITIVE and not force:
        raise UnphysicalParametersError(
            f"(alpha={params.alpha}, beta={params.beta}) is labelled {label.value}; "
            "pass force=True to build negative-mass initial data anyway"
        )
    config = build_configuration(params, solution.m, solution.M)
    positions = np.array(config.positions)
    omega = 1.0
    velocities = omega * np.stack([-positions[:, 1], positions[:, 0]], axis=1)
    masses = np.array([solution.M, solution.m, solution.m, solution.M])
    return SystemState.from_arrays(masses, positions, velocities)


def integrate(
    initial: SystemState,
    dt: float = DEFAULT_DT,
    t_end: float = 2.0 * math.pi,
    output_stride: int = DEFAULT_OUTPUT_STRIDE,
) -> Trajectory:
    """Fixed-step 4th-order Runge-Kutta integration from ``initial``.

    Samples (with energy and angular momentum) are recorded at t = 0, every
    ``output_stride`` steps, and at t_end.  The step that starts at most
    ``dt * (1 + 1e-9)`` before t_end is the last: it ends at t_end exactly,
    so return-to-start checks are meaningful and every step is positive.

    Raises
    ------
    ValueError
        When ``t_end / dt`` exceeds MAX_STEPS, before any step.
    CollisionError
        When any separation drops below 1e-6; the partial trajectory is
        attached to the exception.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and non-negative")
    if output_stride < 1:
        raise ValueError("output_stride must be at least 1")
    if t_end / dt > MAX_STEPS:
        raise ValueError(f"t_end / dt is {t_end / dt:.3g} RK4 steps, more than {MAX_STEPS}")

    # the state is flat coordinates [x_0, y_0, x_1, y_1, ...] of Python
    # floats: for a few bodies numpy's per-call cost outweighs the
    # arithmetic.  The step is straight-line code generated for the body
    # count, with the bits of the array form of RK4 kept in
    # tests/array_reference.py
    masses = initial.masses.tolist()
    rk4_step = _kernels(len(masses))["step"]
    pos = initial.positions.ravel().tolist()
    vel = initial.velocities.ravel().tolist()
    t = 0.0

    # Trajectory.samples, flat, one row of 3 + 4N floats per recorded sample
    rows = array("d")

    def record(time):
        energy = total_energy(masses, pos, vel)
        angular_momentum = total_angular_momentum(masses, pos, vel)
        rows.extend((time, *pos, *vel, energy, angular_momentum))

    def trajectory():
        return Trajectory._own(np.frombuffer(rows).reshape(-1, 3 + 2 * len(pos)))

    record(0.0)

    # the time left decides the last step, not a count taken from t_end / dt:
    # that ratio can round just above a whole number when the steps already
    # reach t_end, and the extra step would be zero or negative.  Any
    # t_end > 0 takes a step.  Step k ends at k * dt, not at a running sum
    # of dt, which drifts: summed, t_end = 10000 * dt took 10,001 steps
    step, last = 0, t_end == 0.0
    while not last:
        last = t + dt * (1.0 + 1e-9) >= t_end
        pos, vel = rk4_step(masses, pos, vel, t_end - t if last else dt)
        step += 1
        t = t_end if last else step * dt

        if _min_separation(pos) < COLLISION_TOL:
            raise CollisionError(
                f"separation fell below {COLLISION_TOL:g} at t = {t:.6f}", trajectory()
            )
        if step % output_stride == 0 or last:
            record(t)

    return trajectory()


def rigidity_metrics(trajectory: Trajectory) -> RigidityReport:
    """Worst relative drift of every pairwise distance, the energy and the
    angular momentum over the trajectory, all against their initial values."""
    # transposed, the flat positions hold one sample per column, so a single
    # _pair_distances call measures every pair at every sample: (P, S)
    distances = _pair_distances(trajectory.positions.reshape(len(trajectory.samples), -1).T)
    d0 = distances[:, :1]

    def rel_drift(series):
        ref = series[0]
        scale = abs(ref) if ref != 0.0 else 1.0
        return float(np.max(np.abs(series[1:] - ref) / scale, initial=0.0))

    return RigidityReport(
        max_distance_deviation=float(np.max(np.abs(distances[:, 1:] - d0) / d0, initial=0.0)),
        max_energy_drift=rel_drift(trajectory.energy),
        max_angular_momentum_drift=rel_drift(trajectory.angular_momentum),
    )
