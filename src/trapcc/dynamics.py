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

from .geometry import TrapezoidParams, build_configuration
# classify and attraction_field are not called here, but perfbench/spans.py
# wraps dynamics.classify and dynamics.attraction_field
from .masses import RegionLabel, classify, region_label, solve_masses  # noqa: F401
from .oracle import attraction_field  # noqa: F401
from .oracle import (
    CoincidentBodiesError,
    _bodies,
    _check_bodies,
    _flat,
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
# the most samples integrate records, 304 MB at 4 bodies: twice what
# MAX_STEPS records at the default stride
MAX_SAMPLES = 2 * 10**6


class UnphysicalParametersError(ValueError):
    """Relative-equilibrium initial data requested where at least one mass
    is non-positive (pass force=True to experiment anyway)."""


class CollisionError(RuntimeError):
    """Two bodies came within the collision tolerance; the trajectory up to
    the abort is attached for inspection."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


class SystemState(NamedTuple("SystemState", [
    ("masses", "tuple[float, ...]"), ("positions", "tuple[tuple[float, float], ...]"),
    ("velocities", "tuple[tuple[float, float], ...]"),
])):
    """Initial data of an integration at t = 0: N >= 2 finite masses as a
    float tuple, and one position and one velocity per mass as ``(x, y)``
    float tuples, copied from the arguments (lists, tuples or arrays)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, masses, positions, velocities):
        masses, positions, velocities = _bodies(masses, positions, velocities)
        widths = {len(velocity) for velocity in velocities}
        if len(velocities) != len(positions) or widths - {2}:
            shape = (len(velocities), *sorted(widths))
            raise ValueError(f"velocities {shape} must match positions ({len(positions)}, 2)")
        coords = _flat(positions)
        _check_bodies(masses, coords, _flat(velocities))
        for (i, j), d in zip(_pairs(len(masses)), _pair_distances(coords)):
            if d < COLLISION_TOL:
                raise CoincidentBodiesError(
                    f"bodies {i + 1} and {j + 1} are within the collision tolerance"
                )
        return super().__new__(cls, masses, positions, velocities)

    @classmethod
    def from_arrays(cls, masses, positions, velocities) -> "SystemState":
        return cls(masses, positions, velocities)


class Trajectory(NamedTuple("Trajectory", [("samples", "memoryview")])):
    """Recorded samples of an N-body integration, one row of 3 + 4N floats
    per sample in time order: ``t``, the positions ``x_1, y_1, ..., x_N,
    y_N``, the velocities in the same order, the total energy and the
    angular momentum.

    ``samples`` is a read-only ``(S, 3 + 4N)`` float64 memoryview of one
    buffer, which ``np.asarray`` views without a copy; the constructor
    copies the rows it is given (lists, tuples or arrays).  The properties
    are read-only numpy views of it, ``positions`` and ``velocities``
    ``(S, N, 2)``, for library callers: the CLI reads ``samples``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, samples):
        rows = samples.tolist() if hasattr(samples, "tolist") else samples
        try:
            rows = [list(map(float, row)) for row in rows]
        except TypeError:  # a number where a row belongs, or a sequence where a number does
            rows = None
        widths = sorted({len(row) for row in rows}) if rows else []
        if len(widths) != 1 or widths[0] < 7 or (widths[0] - 3) % 4:
            got = f"{len(rows)} rows of {widths} values" if rows is not None else "no rows of numbers"
            raise ValueError(f"samples must be an (S, 3 + 4N) array with S, N >= 1, got {got}")
        return cls._own(array("d", [value for row in rows for value in row]), widths[0])

    @classmethod
    def _own(cls, buffer: array, width: int):
        """The checked Trajectory of a fresh float buffer of rows ``width``
        values wide, held read-only without the constructor's copy."""
        flat = memoryview(buffer).toreadonly()
        times = flat[::width]
        if not all(map(math.isfinite, times)) or any(
            later <= earlier for earlier, later in zip(times, times[1:])
        ):
            raise ValueError("sample times must be finite and strictly increasing")
        return super().__new__(cls, flat.cast("B").cast("d", (len(times), width)))

    def _array(self):
        from ._numpy import np

        return np.asarray(self.samples)

    @property
    def times(self):
        return self._array()[:, 0]

    @property
    def positions(self):
        return self._array()[:, 1:-2].reshape(len(self.samples), 2, -1, 2)[:, 0]

    @property
    def velocities(self):
        return self._array()[:, 1:-2].reshape(len(self.samples), 2, -1, 2)[:, 1]

    @property
    def energy(self):
        return self._array()[:, -2]

    @property
    def angular_momentum(self):
        return self._array()[:, -1]


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
    omega = 1.0
    velocities = [(omega * -y, omega * x) for x, y in config.positions]
    masses = (solution.M, solution.m, solution.m, solution.M)
    return SystemState.from_arrays(masses, config.positions, velocities)


def _step_count(dt: float, t_end: float, output_stride: int) -> int:
    """The RK4 steps :func:`integrate` takes: none to t_end = 0, else the
    first k >= 1 whose step starts, at ``(k - 1) * dt``, at most
    ``dt * (1 + 1e-9)`` before t_end.  t_end / dt can round just above a
    whole number when the steps already reach t_end, where one more step
    would be zero or negative, so the count is searched up from one below
    that ratio, not rounded from it.  A count of k has t_end / dt at most
    k (1 + 1e-9), so up to MAX_STEPS that start is never past the count.

    Raises ValueError on a run that integrate refuses, before any work:
    see its Raises section."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and non-negative")
    if output_stride < 1:
        raise ValueError("output_stride must be at least 1")
    if t_end / dt > MAX_STEPS:
        raise ValueError(f"t_end / dt is {t_end / dt:.3g} RK4 steps, more than {MAX_STEPS}")
    if t_end == 0.0:
        return 0
    reach = dt * (1.0 + 1e-9)
    steps = max(1, math.ceil(t_end / dt) - 1)
    while (steps - 1) * dt + reach < t_end:
        steps += 1
    samples = 1 + -(-steps // output_stride)  # t = 0, every stride-th step and the last
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"{steps} RK4 steps at stride {output_stride} record {samples} samples, "
            f"more than {MAX_SAMPLES}"
        )
    return steps


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
        When dt is not positive, t_end not finite and non-negative, the
        stride below 1, ``t_end / dt`` over MAX_STEPS, or the run would
        record more than MAX_SAMPLES samples, before any step.
    CollisionError
        When any separation drops below 1e-6; the partial trajectory is
        attached to the exception.
    """
    steps = _step_count(dt, t_end, output_stride)

    # the state is flat coordinates [x_0, y_0, x_1, y_1, ...] of Python
    # floats: for a few bodies numpy's per-call cost outweighs the
    # arithmetic.  The step is straight-line code generated for the body
    # count, with the bits of the array form of RK4 kept in
    # tests/array_reference.py
    masses = initial.masses
    rk4_step = _kernels(len(masses))["step"]
    pos, vel = _flat(initial.positions), _flat(initial.velocities)
    t = 0.0

    # Trajectory.samples, flat, one row of 3 + 4N floats per recorded sample
    rows = array("d")

    def record(time):
        energy = total_energy(masses, pos, vel)
        angular_momentum = total_angular_momentum(masses, pos, vel)
        rows.extend((time, *pos, *vel, energy, angular_momentum))

    record(0.0)

    # step k ends at k * dt, not at a running sum of dt, which drifts:
    # summed, t_end = 10000 * dt took 10,001 steps.  The last ends at t_end
    for step in range(1, steps + 1):
        last = step == steps
        pos, vel = rk4_step(masses, pos, vel, t_end - t if last else dt)
        t = t_end if last else step * dt

        if _min_separation(pos) < COLLISION_TOL:
            raise CollisionError(
                f"separation fell below {COLLISION_TOL:g} at t = {t:.6f}",
                Trajectory._own(rows, 3 + 2 * len(pos)),
            )
        if step % output_stride == 0 or last:
            record(t)

    return Trajectory._own(rows, 3 + 2 * len(pos))


def _worst(values) -> float:
    """``np.max(values, initial=0.0)`` of drifts, each NaN or at least 0.0:
    the first NaN when there is one (``max`` by value alone skips a NaN
    that is not first), else the largest, or 0.0 when there are none."""
    return max(values, key=lambda value: (value != value, value), default=0.0)


def rigidity_metrics(trajectory: Trajectory) -> RigidityReport:
    """Worst relative drift of every pairwise distance, the energy and the
    angular momentum over the trajectory, all against their initial values,
    with the bits of the numpy array code kept in tests/array_reference.py."""
    count, width = trajectory.samples.shape
    flat = trajectory.samples.cast("B").cast("d")
    coords = (width - 3) // 2  # the positions follow t in each row

    def distances(k):
        return _pair_distances(flat[k * width + 1:k * width + 1 + coords])

    d0 = distances(0)
    # a distance that starts at 0.0 divides as numpy's x / 0.0 does: inf,
    # or NaN for 0 / 0, where Python's division raises
    deviations = (
        abs(d - ref) / ref if ref else abs(d - ref) * math.inf
        for k in range(1, count) for d, ref in zip(distances(k), d0)
    )

    def rel_drift(column):
        series = flat[column::width]
        ref = series[0]
        scale = abs(ref) if ref != 0.0 else 1.0
        return _worst(abs(value - ref) / scale for value in series[1:])

    return RigidityReport(
        max_distance_deviation=_worst(deviations),
        max_energy_drift=rel_drift(width - 2),
        max_angular_momentum_drift=rel_drift(width - 1),
    )
