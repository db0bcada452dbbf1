import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcc import dynamics, oracle
from trapcc.dynamics import (
    MAX_SAMPLES,
    MAX_STEPS,
    CollisionError,
    SystemState,
    Trajectory,
    UnphysicalParametersError,
    init_relative_equilibrium,
    integrate,
    rigidity_metrics,
    total_angular_momentum,
    total_energy,
)
from trapcc.geometry import TrapezoidParams, build_configuration
from trapcc.masses import DegenerateConfigurationError, solve_masses
from trapcc.oracle import MAX_BODIES, PlanarSystem

import array_reference
from array_reference import field_array

params_st = st.builds(
    TrapezoidParams,
    alpha=st.floats(min_value=0.05, max_value=1.0),
    beta=st.floats(min_value=0.05, max_value=2.0),
)


def state_from(masses, positions, velocities=None):
    positions = np.asarray(positions, dtype=float)
    if velocities is None:
        velocities = np.zeros_like(positions)
    return SystemState.from_arrays(np.asarray(masses, dtype=float), positions, velocities)


class TestAccelerations:
    def test_two_body_unit_distance(self):
        state = state_from([1.0, 1.0], [[-0.5, 0.0], [0.5, 0.0]])
        acc = field_array(state.masses, state.positions)
        assert np.allclose(acc, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-15)

    def test_mirror_symmetry(self):
        params = TrapezoidParams(0.6, 0.9)
        solution = solve_masses(params)
        state = init_relative_equilibrium(params)
        acc = field_array(state.masses, state.positions)
        assert acc[0, 0] == pytest.approx(-acc[3, 0], abs=1e-15)
        assert acc[1, 0] == pytest.approx(-acc[2, 0], abs=1e-15)
        assert acc[0, 1] == pytest.approx(acc[3, 1], abs=1e-15)
        assert acc[1, 1] == pytest.approx(acc[2, 1], abs=1e-15)
        assert solution.m > 0 and solution.M > 0

    def test_square_acceleration_is_centripetal(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        acc = field_array(state.masses, state.positions)
        assert np.max(np.abs(acc + state.positions)) <= 1e-10

    @given(params=params_st, m=st.floats(0.05, 5.0), M=st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_generic_matches_specialised(self, params, m, M):
        config = build_configuration(params, m, M)
        positions = np.array(config.positions)
        state = state_from([M, m, m, M], positions)
        generic = field_array(state.masses, state.positions)
        specialised = array_reference.trapezoid_accelerations(params, m, M)
        scale = max(1.0, float(np.abs(generic).max()))
        assert np.max(np.abs(generic - specialised)) <= 1e-13 * scale

    @given(params=params_st, m=st.floats(0.05, 5.0), M=st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_third_law(self, params, m, M):
        config = build_configuration(params, m, M)
        positions = np.array(config.positions)
        masses = np.array([M, m, m, M])
        state = state_from(masses, positions)
        acc = field_array(state.masses, state.positions)
        net = (masses[:, None] * acc).sum(axis=0)
        scale = max(1.0, float(np.abs(masses[:, None] * acc).max()))
        assert np.max(np.abs(net)) <= 1e-13 * scale


class TestInitRelativeEquilibrium:
    def test_circular_speeds(self):
        state = init_relative_equilibrium(TrapezoidParams(0.5, 1.0))
        pos, vel = np.array(state.positions), np.array(state.velocities)
        assert np.allclose(
            np.linalg.norm(vel, axis=1), np.linalg.norm(pos, axis=1), rtol=1e-14
        )
        assert np.allclose((pos * vel).sum(axis=1), 0.0, atol=1e-14)

    def test_zero_linear_momentum(self):
        state = init_relative_equilibrium(TrapezoidParams(0.8, 1.2))
        momentum = (np.array(state.masses)[:, None] * np.array(state.velocities)).sum(axis=0)
        assert np.max(np.abs(momentum)) <= 1e-14

    def test_square_initial_data(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        assert state.masses[0] == pytest.approx(state.masses[1], rel=1e-14)

    def test_refuses_negative_mass_region(self):
        with pytest.raises(UnphysicalParametersError):
            init_relative_equilibrium(TrapezoidParams(0.5, 0.5))

    @pytest.mark.parametrize("force", [False, True])
    def test_degenerate_point_raises_degenerate(self, force):
        # checked before the positivity refusal: there are no masses to refuse
        with pytest.raises(DegenerateConfigurationError, match="degenerate curve"):
            init_relative_equilibrium(TrapezoidParams(1.0, 1e-5), force=force)

    def test_force_flag_builds_anyway(self):
        state = init_relative_equilibrium(TrapezoidParams(0.5, 0.5), force=True)
        assert min(state.masses) < 0


class TestIntegrate:
    def test_rejects_bad_steps(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        with pytest.raises(ValueError):
            integrate(state, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            integrate(state, dt=1e-3, t_end=-1.0)

    def test_two_body_circular_orbit_closes(self):
        # unit masses at distance 1: omega = sqrt(2), one period 2*pi/omega
        positions = np.array([[-0.5, 0.0], [0.5, 0.0]])
        omega = math.sqrt(2.0)
        velocities = omega * np.stack([-positions[:, 1], positions[:, 0]], axis=1)
        state = state_from([1.0, 1.0], positions, velocities)
        trajectory = integrate(state, dt=1e-3, t_end=2.0 * math.pi / omega)
        final = trajectory.positions[-1]
        assert np.max(np.linalg.norm(final - positions, axis=1)) <= 1e-8

    def test_square_rotates_rigidly_for_one_period(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=1e-3, t_end=2.0 * math.pi)
        report = rigidity_metrics(trajectory)
        assert report.max_distance_deviation <= 1e-6
        assert report.max_energy_drift <= 1e-8
        assert report.max_angular_momentum_drift <= 1e-8
        final = trajectory.positions[-1]
        assert np.max(np.linalg.norm(final - state.positions, axis=1)) <= 1e-6

    def test_sample_times_strictly_increasing_and_hit_t_end(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=1e-2, t_end=0.5, output_stride=7)
        times = trajectory.times.tolist()
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_horizon_returns_initial_sample(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=1e-3, t_end=0.0)
        assert len(trajectory.samples) == 1
        assert trajectory.times[0] == 0.0

    @pytest.mark.parametrize("dt", [1e12, 1e13, 1e300])
    def test_horizon_far_shorter_than_dt_takes_one_step(self, dt):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=dt, t_end=2.0 * math.pi)
        assert trajectory.times.tolist() == [0.0, 2.0 * math.pi]
        assert not np.array_equal(trajectory.positions[-1], state.positions)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100])
    @pytest.mark.parametrize("ulps", range(-3, 4))
    def test_dt_near_a_whole_fraction_of_t_end(self, n, ulps):
        # t_end / dt lands a rounding error above or below n: every step is
        # positive and at most dt * (1 + 1e-9), and the last ends at t_end
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        for t_end in (2.0 * math.pi, 0.3 * 2.0 * math.pi):
            dt = t_end / n
            for _ in range(abs(ulps)):
                dt = math.nextafter(dt, math.copysign(math.inf, ulps))
            times = integrate(state, dt=dt, t_end=t_end, output_stride=1).times.tolist()
            steps = [t2 - t1 for t1, t2 in zip(times, times[1:])]
            assert all(0.0 < h <= dt * (1.0 + 1e-9) for h in steps), steps
            assert times[-1] == t_end

    def test_collision_aborts_with_partial_trajectory(self):
        # start just above the collision tolerance and fall inwards; the
        # step size is small enough that the threshold crossing is sampled
        state = state_from([1.0, 1.0], [[0.0, 0.0], [2e-6, 0.0]])
        with pytest.raises(CollisionError) as excinfo:
            integrate(state, dt=1e-9, t_end=1e-6)
        partial = excinfo.value.trajectory
        assert len(partial.samples) >= 1
        assert partial.times[-1] < 1e-6


def trapezoid_state(alpha, beta, force=False):
    return init_relative_equilibrium(TrapezoidParams(alpha, beta), force=force)


def lagrange_state():
    """Three unit masses on a unit triangle, turning about their centre
    with omega^2 = 3: a rigid rotation of three bodies."""
    height = math.sqrt(3.0) / 2.0
    positions = np.array([(-0.5, -height / 3.0), (0.5, -height / 3.0), (0.0, 2.0 * height / 3.0)])
    velocities = math.sqrt(3.0) * np.stack([-positions[:, 1], positions[:, 0]], axis=1)
    return SystemState([1.0, 1.0, 1.0], positions, velocities)


def two_body_state():
    """Unequal masses on an eccentric orbit about their resting centre of
    mass: the separation falls from 1 to about 0.22 at t = 0.75."""
    return SystemState([3.0, 1.0], [(-0.25, 0.0), (0.75, 0.0)], [(0.0, -0.3), (0.0, 0.9)])


def five_body_state():
    """A heavy body at the origin and four light ones on nearly circular
    orbits of different radii, each perturbing the others."""
    return orbiting_state([0.1, 0.2, 0.3, 0.4], [1.0, 1.5, 2.0, 2.5], [0.3, 2.1, 3.9, 5.4])


def nine_body_state():
    """As :func:`five_body_state` with eight light bodies: from 8 values on
    numpy sums pairwise, so the energies take the other order of _sum."""
    return orbiting_state(
        [0.05 * k for k in range(1, 9)],
        [1.0 + 0.25 * k for k in range(8)],
        [0.3 + 0.8 * k for k in range(8)],
    )


def orbiting_state(light_masses, radii, angles):
    """A body of mass 10 at the origin and the light ones on circular
    velocities about it."""
    masses = [10.0, *light_masses]
    positions = [(0.0, 0.0)] + [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
    velocities = [(0.0, 0.0)] + [
        (-math.sqrt(10.0 / r) * math.sin(a), math.sqrt(10.0 / r) * math.cos(a))
        for r, a in zip(radii, angles)
    ]
    return SystemState(masses, positions, velocities)


@pytest.mark.parametrize(
    "build, stride",
    [
        pytest.param(lambda: trapezoid_state(1.0, 1.0), 100, id="1.0-1.0-False-100"),
        # on the central-configuration locus
        pytest.param(lambda: trapezoid_state(0.5, 0.8771966348583974), 100,
                     id="0.5-0.8771966348583974-False-100"),
        pytest.param(lambda: trapezoid_state(0.5, 1.0), 7, id="0.5-1.0-False-7"),
        pytest.param(lambda: trapezoid_state(0.37, 0.9), 1, id="0.37-0.9-False-1"),
        # negative mass
        pytest.param(lambda: trapezoid_state(0.5, 0.5, force=True), 13, id="0.5-0.5-True-13"),
        # the pair kernels of other body counts
        pytest.param(lagrange_state, 7, id="lagrange-triangle-7"),
        pytest.param(five_body_state, 1, id="five-bodies-1"),
        pytest.param(two_body_state, 3, id="two-bodies-3"),
        pytest.param(nine_body_state, 10, id="nine-bodies-10"),
    ],
)
def test_integrate_matches_array_reference_bits(build, stride):
    t_end = 0.3 * 2.0 * math.pi  # not a whole number of steps: the last one is partial
    assert_array_reference_bits(build(), t_end, stride)


def test_integrate_takes_the_steps_t_end_over_dt_asks_for(monkeypatch):
    # step k ends at k * dt: summed step by step, t reached 10000 * dt
    # short of t_end, and a 10,001st step 1.9e-9 dt long followed
    t_end = 0.6 * math.pi
    dt = t_end / 10000
    steps = []
    separation = dynamics._min_separation
    monkeypatch.setattr(dynamics, "_min_separation",
                        lambda coords: steps.append(1) or separation(coords))
    state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
    trajectory = integrate(state, dt=dt, t_end=t_end, output_stride=100)
    assert len(steps) == 10000
    assert trajectory.times.tolist() == [k * dt for k in range(0, 10000, 100)] + [t_end]


def test_integrate_matches_array_reference_bits_at_78_bodies():
    # 78 bodies have 3,003 pairs, too many terms for one compiled sum
    rng = np.random.default_rng(78)
    masses, positions = rng.uniform(0.5, 2.0, 78), rng.uniform(-10.0, 10.0, (78, 2))
    state = SystemState(masses, positions, rng.uniform(-1.0, 1.0, (78, 2)))
    assert_array_reference_bits(state, 5.5e-3, 2)


def assert_array_reference_bits(state, t_end, stride):
    """integrate and rigidity_metrics against the array RK4 and the
    per-sample loop they replaced, bit for bit."""
    trajectory = integrate(state, dt=1e-3, t_end=t_end, output_stride=stride)
    samples, energies, ang_momenta = array_reference.integrate(
        *map(np.array, state), dt=1e-3, t_end=t_end, output_stride=stride,
    )
    assert trajectory.times.tobytes() == np.array([t for t, _, _ in samples]).tobytes()
    assert trajectory.positions.tobytes() == np.array([pos for _, pos, _ in samples]).tobytes()
    assert trajectory.velocities.tobytes() == np.array([vel for _, _, vel in samples]).tobytes()
    assert trajectory.energy.tobytes() == np.array(energies).tobytes()
    assert trajectory.angular_momentum.tobytes() == np.array(ang_momenta).tobytes()

    # the vectorised rigidity metrics against the per-sample loop they replaced
    report = rigidity_metrics(trajectory)
    expected = array_reference.rigidity_metrics(samples, energies, ang_momenta)
    fields = ("max_distance_deviation", "max_energy_drift", "max_angular_momentum_drift")
    assert np.array([getattr(report, f) for f in fields]).tobytes() == (
        np.array([expected[f] for f in fields]).tobytes()
    )


def reference_metrics(trajectory):
    """array_reference.rigidity_metrics of a trajectory's samples."""
    rows = np.asarray(trajectory.samples)
    n = (rows.shape[1] - 3) // 4
    samples = [(row[0], row[1:1 + 2 * n].reshape(n, 2), None) for row in rows]
    return array_reference.rigidity_metrics(samples, rows[:, -2].tolist(), rows[:, -1].tolist())


def bits(value):
    """The exact bits of a float, sign of zero included, or ``nan``."""
    return "nan" if math.isnan(value) else value.hex()


def with_values(trajectory, changes):
    """A Trajectory of ``trajectory``'s samples with ``{(row, column): value}`` set."""
    rows = np.array(trajectory.samples)
    for (row, column), value in changes.items():
        rows[row, column] = value
    return Trajectory(rows)


@pytest.mark.parametrize(
    "changes",
    [
        {},
        # column 1 is x_1, -2 the energy and -1 the angular momentum
        {(0, 1): math.nan, (0, -2): math.nan},
        {(2, 3): math.nan, (3, -1): math.nan, (1, -2): math.inf},
        {(0, -2): 0.0, (0, -1): 0.0},
        # bodies 1 and 2 start at one point: x / 0.0 is inf, and 0 / 0 NaN
        {(0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0, (0, 4): 0.0},
        {(0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0, (0, 4): 0.0, (1, 1): 0.0, (1, 2): 0.0,
         (1, 3): 0.0, (1, 4): 0.0},
    ],
    ids=["as-integrated", "nan-first", "nan-later", "zero-reference", "coincident-start",
         "coincident-start-and-after"],
)
@pytest.mark.parametrize("t_end", [0.0, 0.05], ids=["one-sample", "six-samples"])
def test_rigidity_metrics_match_array_reference_bits(changes, t_end):
    # the float metrics take np.max's rule: NaN when a drift is NaN
    trajectory = integrate(trapezoid_state(0.5, 1.0), dt=1e-2, t_end=t_end, output_stride=1)
    trajectory = with_values(trajectory, {k: v for k, v in changes.items()
                                          if k[0] < len(trajectory.samples)})
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = reference_metrics(trajectory)
    report = rigidity_metrics(trajectory)
    assert all(type(value) is float for value in report)
    # a NaN as NaN: numpy's max returns a NaN of either sign, by its loop
    assert [bits(value) for value in report] == [bits(expected[f]) for f in report._fields]
    if len(trajectory.samples) == 1:
        assert report == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "alpha, beta, force, zero",
    [(1.0, 1.0, False, None), (0.5, 0.8771966348583974, False, None), (0.37, 0.9, False, None),
     (0.5, 0.5, True, None), (0.6, 1.1, True, "m"), (0.6, 1.1, True, "M")],
)
def test_init_relative_equilibrium_keeps_the_array_forms_bits(monkeypatch, alpha, beta, force,
                                                              zero):
    # a zero mass puts the other pair on the x axis, at y = -0.0 (m = 0)
    # or 0.0 (M = 0), and its velocities (-y, x) carry the other sign
    params = TrapezoidParams(alpha, beta)
    solution = solve_masses(params)
    if zero:
        solution = solution._replace(**{zero: 0.0})
        monkeypatch.setattr(dynamics, "solve_masses", lambda params: solution)
    state = init_relative_equilibrium(params, force=force)
    positions = np.array(build_configuration(params, solution.m, solution.M).positions)
    velocities = 1.0 * np.stack([-positions[:, 1], positions[:, 0]], axis=1)
    masses = np.array([solution.M, solution.m, solution.m, solution.M])
    for field, expected in zip(state, (masses, positions, velocities)):
        assert np.array(field).tobytes() == expected.tobytes()
    if zero:
        assert {math.copysign(1.0, vx) for vx, _ in state.velocities if vx == 0.0} == {
            -1.0 if zero == "M" else 1.0
        }


class TestRigidityMetrics:
    def test_single_sample_is_trivially_rigid(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=1e-3, t_end=0.0)
        report = rigidity_metrics(trajectory)
        assert report.max_distance_deviation == 0.0
        assert report.max_energy_drift == 0.0
        assert report.max_angular_momentum_drift == 0.0

    def test_perturbed_square_is_not_rigid(self):
        params = TrapezoidParams(1.0, 1.0)
        solution = solve_masses(params)
        config = build_configuration(params, solution.m * 1.1, solution.M)
        positions = np.array(config.positions)
        velocities = np.stack([-positions[:, 1], positions[:, 0]], axis=1)
        state = state_from(
            [solution.M, solution.m * 1.1, solution.m * 1.1, solution.M],
            positions,
            velocities,
        )
        trajectory = integrate(state, dt=1e-3, t_end=2.0 * math.pi)
        report = rigidity_metrics(trajectory)
        assert report.max_distance_deviation > 1e-3

    def test_conserved_quantities_recorded_per_sample(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=1e-3, t_end=0.3, output_stride=50)
        assert len(trajectory.energy) == len(trajectory.samples)
        assert len(trajectory.angular_momentum) == len(trajectory.samples)
        flat = (list(state.masses), np.ravel(state.positions).tolist(),
                np.ravel(state.velocities).tolist())
        expected = total_energy(*flat)
        assert trajectory.energy[0] == pytest.approx(expected, rel=1e-14)
        expected_l = total_angular_momentum(*flat)
        assert trajectory.angular_momentum[0] == pytest.approx(expected_l, rel=1e-14)


def test_trajectory_rejects_unordered_times():
    state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
    row = [0.0, *np.ravel(state.positions), *np.ravel(state.velocities), 0.0, 0.0]
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory([row, row])


@pytest.mark.parametrize("times", [[math.nan, math.nan], [0.0, math.nan], [0.0, math.inf]])
def test_trajectory_rejects_non_finite_times(times):
    state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
    rest = [*np.ravel(state.positions), *np.ravel(state.velocities), 0.0, 0.0]
    with pytest.raises(ValueError, match="finite"):
        Trajectory([[t, *rest] for t in times])


@pytest.mark.parametrize(
    "samples",
    [[], np.zeros((0, 7)), np.zeros(7), np.zeros((2, 6)), np.zeros((2, 9)), np.zeros((1, 7, 1))],
    ids=["empty list", "no rows", "1-D", "no body", "partial body", "3-D"],
)
def test_trajectory_rejects_shapes_other_than_samples_by_columns(samples):
    with pytest.raises(ValueError, match=r"\(S, 3 \+ 4N\) array"):
        Trajectory(samples)


def test_trajectory_is_one_read_only_array():
    state = init_relative_equilibrium(TrapezoidParams(0.5, 1.0))
    trajectory = integrate(state, dt=1e-3, t_end=0.05, output_stride=10)
    assert trajectory._fields == ("samples",)
    assert state._fields == ("masses", "positions", "velocities")
    assert trajectory.times[0] == 0.0
    # a read-only float64 memoryview, which np.asarray views without a copy
    samples = trajectory.samples
    assert type(samples) is memoryview and samples.readonly and samples.format == "d"
    assert samples.shape == (6, 3 + 4 * 4)  # t = 0, 0.01, ..., 0.05
    array = np.asarray(samples)
    assert array.shape == samples.shape and np.shares_memory(array, samples)
    views = (trajectory.times, trajectory.positions, trajectory.velocities,
             trajectory.energy, trajectory.angular_momentum)
    for view in (array, *views):
        assert not view.flags.writeable
    assert all(np.shares_memory(view, samples) for view in views)
    assert trajectory.positions[0].tobytes() == np.array(state.positions).tobytes()
    assert trajectory.velocities[0].tobytes() == np.array(state.velocities).tobytes()
    for field in state:
        assert_unwritable(field)


def test_integrate_holds_its_samples_once():
    # integrate hands its fresh sample buffer to the Trajectory without a
    # copy, so the traced peak at stride 1 is about one buffer (1.12; a
    # copy in _own measured 2.12).  The constructor still copies
    state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
    integrate(state, t_end=0.01)  # the step kernel compiles outside the trace
    tracemalloc.start()
    try:
        trajectory = integrate(state, t_end=0.5, output_stride=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = trajectory.samples.nbytes
    assert len(trajectory.samples) == 501
    assert peak <= 1.25 * size, f"traced peak {peak / size:.2f} sample buffers"
    assert not np.shares_memory(Trajectory(trajectory.samples).samples, trajectory.samples)


@pytest.mark.parametrize(
    "build",
    [
        lambda masses, positions: SystemState.from_arrays(
            masses, positions, np.zeros_like(positions)
        ),
        # the constructor copies too, and takes lists
        lambda masses, positions: SystemState(masses, positions, [[0, 0]] * len(masses)),
        PlanarSystem,
    ],
    ids=["SystemState", "SystemState-constructor", "PlanarSystem"],
)
def test_systems_hold_read_only_copies(build):
    masses, positions = np.array([1.0, 2.0, 3.0]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    system = build(masses, positions)
    for field in (system.masses, system.positions):
        assert_unwritable(field)
    masses[0], positions[0, 0] = 7.0, 9.0
    assert np.array(system.masses).tolist() == [1.0, 2.0, 3.0]
    assert np.array(system.positions).tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    # the fields cannot be rebound, and a record made by _replace holds
    # read-only copies too
    with pytest.raises(AttributeError):
        system.positions = positions
    replaced = system._replace(positions=positions)
    assert type(replaced) is type(system)
    for field in (replaced.masses, replaced.positions):
        assert_unwritable(field)
    positions[0, 0] = 11.0
    assert np.array(replaced.positions).tolist() == [[9.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def assert_unwritable(field):
    """SystemState's and PlanarSystem's fields are a float tuple or a
    tuple of (x, y) float tuples: no item can be set."""
    assert type(field) is tuple
    for item in field:
        assert type(item) is float or (
            type(item) is tuple and len(item) == 2 and all(type(c) is float for c in item)
        )
    with pytest.raises(TypeError):
        field[0] = 5.0


# (id, masses, positions, velocities, message)
MALFORMED_BODIES = [
    ("nan-position", [1.0, 1.0], [[0.0, 0.0], [math.nan, 0.0]], np.zeros((2, 2)),
     "positions must be finite"),
    ("more-masses-than-positions", [1.0, 1.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], np.zeros((2, 2)),
     r"one \(x, y\) position per mass"),
    ("one-body", [1.0], [[0.0, 0.0]], np.zeros((1, 2)), "at least 2 bodies"),
]
# PlanarSystem takes no velocities
MALFORMED_VELOCITIES = [
    ("inf-velocity", [1.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [math.inf, 0.0]],
     "velocities must be finite"),
    ("fewer-velocities", [1.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], np.zeros((1, 2)),
     r"velocities \(1, 2\) must match positions \(2, 2\)"),
]


def build_state(masses, positions, velocities):
    return SystemState.from_arrays(masses, positions, velocities)


def build_planar(masses, positions, velocities):
    return PlanarSystem(masses, positions)


@pytest.mark.parametrize(
    "build, masses, positions, velocities, message",
    [
        pytest.param(build, *case, id=f"{name}-{case_id}")
        for name, build, cases in [
            ("SystemState", build_state, MALFORMED_BODIES + MALFORMED_VELOCITIES),
            ("PlanarSystem", build_planar, MALFORMED_BODIES),
        ]
        for case_id, *case in cases
    ],
)
def test_systems_reject_malformed_bodies_at_construction(
    build, masses, positions, velocities, message
):
    with pytest.raises(ValueError, match=message):
        build(masses, positions, velocities)


def bodies_on_a_circle(n):
    """n unit masses spread over a circle, at rest: well apart for any n."""
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.ones(n), 10.0 * np.column_stack((np.cos(angles), np.sin(angles))), np.zeros((n, 2))


@pytest.mark.parametrize("build", [build_state, build_planar], ids=["SystemState", "PlanarSystem"])
def test_systems_take_as_many_bodies_as_the_cap(build):
    assert MAX_BODIES == 90
    system = build(*bodies_on_a_circle(MAX_BODIES))
    assert len(system.masses) == len(system.positions) == MAX_BODIES


@pytest.mark.parametrize("build", [build_state, build_planar], ids=["SystemState", "PlanarSystem"])
def test_systems_refuse_more_bodies_than_the_cap_before_compiling(monkeypatch, build):
    # every kernel is compiled from the source _source writes
    def no_source(n, name):
        raise AssertionError(f"compiled the {name} kernel of {n} bodies")

    monkeypatch.setattr(oracle, "_source", no_source)
    with pytest.raises(ValueError, match="at most 90 bodies allowed, got 91"):
        build(*bodies_on_a_circle(MAX_BODIES + 1))


def test_integrate_refuses_more_steps_than_the_cap_before_a_step(monkeypatch):
    state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))

    def no_step(*args):
        raise RuntimeError("took a step")

    # integrate looks its step kernel up once, before the first step
    monkeypatch.setitem(dynamics._kernels(4), "step", no_step)
    assert MAX_STEPS == 10**8
    with pytest.raises(ValueError, match=r"1e\+08 RK4 steps, more than 100000000"):
        integrate(state, dt=1.0, t_end=float(MAX_STEPS + 1))
    with pytest.raises(ValueError, match="more than 100000000"):
        integrate(state, dt=1e-300, t_end=1e300)  # t_end / dt overflows to inf
    # at the cap the run starts, and the first step is the stub's
    with pytest.raises(RuntimeError, match="took a step"):
        integrate(state, dt=1.0, t_end=float(MAX_STEPS))


def loop_steps(dt, t_end):
    """The steps of the loop integrate ran before it counted them: the step
    that starts at most dt * (1 + 1e-9) before t_end is the last."""
    t, step, last = 0.0, 0, t_end == 0.0
    while not last:
        last = t + dt * (1.0 + 1e-9) >= t_end
        step += 1
        t = t_end if last else step * dt
    return step


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 9999, 10000])
def test_step_count_is_the_loops(n):
    # dt a few ulps either side of t_end / n, and of the last step's reach
    for t_end in (2.0 * math.pi, 0.3 * 2.0 * math.pi, 0.6 * math.pi, 1e-300, 1e300):
        for base in (t_end / n, t_end / n * (1.0 + 0.5e-9), t_end / n * (1.0 + 2e-9)):
            for ulps in range(-3, 4):
                dt = base
                for _ in range(abs(ulps)):
                    dt = math.nextafter(dt, math.copysign(math.inf, ulps))
                assert dynamics._step_count(dt, t_end, 1) == loop_steps(dt, t_end), (dt, t_end)
    for dt in (1e-300, 1.0, 1e300, math.nextafter(math.inf, 0.0)):
        assert dynamics._step_count(dt, 0.0, 1) == loop_steps(dt, 0.0) == 0
        assert dynamics._step_count(dt, dt / n, 1) == loop_steps(dt, dt / n) == 1


def test_integrate_refuses_more_samples_than_the_cap_before_a_step(monkeypatch):
    state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))

    def no_step(*args):
        raise RuntimeError("took a step")

    monkeypatch.setitem(dynamics._kernels(4), "step", no_step)
    assert MAX_SAMPLES == 2 * 10**6
    # a sample at t = 0, one every stride steps and one at the last step:
    # at the cap the run starts, and the first step is the stub's
    for stride, steps in [(1, MAX_SAMPLES - 1), (3, 3 * (MAX_SAMPLES - 1))]:
        with pytest.raises(RuntimeError, match="took a step"):
            integrate(state, dt=1.0, t_end=float(steps), output_stride=stride)
        with pytest.raises(ValueError, match=(
            f"^{steps + 1} RK4 steps at stride {stride} record {MAX_SAMPLES + 1} samples, "
            f"more than {MAX_SAMPLES}$"
        )):
            integrate(state, dt=1.0, t_end=float(steps + 1), output_stride=stride)


def test_integrate_checks_the_separation_once_per_step(monkeypatch):
    # perfbench/spans.py counts RK4 steps through this name
    calls = []
    separation = dynamics._min_separation

    def counted(coords):
        calls.append(1)
        return separation(coords)

    monkeypatch.setattr(dynamics, "_min_separation", counted)
    trajectory = integrate(trapezoid_state(1.0, 1.0), dt=1e-3)
    assert len(calls) == math.ceil(2.0 * math.pi / 1e-3) == 6284
    assert len(trajectory.samples) == 6284 // 100 + 2


def test_system_state_rejects_near_collision():
    with pytest.raises(ValueError, match="collision"):
        state_from([1.0, 1.0], [[0.0, 0.0], [0.0, 1e-7]])
