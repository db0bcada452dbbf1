import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcc.dynamics import (
    CollisionError,
    SystemState,
    Trajectory,
    UnphysicalParametersError,
    accelerations,
    init_relative_equilibrium,
    integrate,
    rigidity_metrics,
    total_angular_momentum,
    total_energy,
    trapezoid_accelerations,
)
from trapcc.geometry import TrapezoidParams, build_configuration
from trapcc.masses import DegenerateConfigurationError, solve_masses

import array_reference

params_st = st.builds(
    TrapezoidParams,
    alpha=st.floats(min_value=0.05, max_value=1.0),
    beta=st.floats(min_value=0.05, max_value=2.0),
)


def state_from(masses, positions, velocities=None, time=0.0):
    positions = np.asarray(positions, dtype=float)
    if velocities is None:
        velocities = np.zeros_like(positions)
    return SystemState.from_arrays(np.asarray(masses, dtype=float), positions, velocities, time)


class TestAccelerations:
    def test_two_body_unit_distance(self):
        state = state_from([1.0, 1.0], [[-0.5, 0.0], [0.5, 0.0]])
        acc = accelerations(state)
        assert np.allclose(acc, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-15)

    def test_mirror_symmetry(self):
        params = TrapezoidParams(0.6, 0.9)
        solution = solve_masses(params)
        state = init_relative_equilibrium(params)
        acc = accelerations(state)
        assert acc[0, 0] == pytest.approx(-acc[3, 0], abs=1e-15)
        assert acc[1, 0] == pytest.approx(-acc[2, 0], abs=1e-15)
        assert acc[0, 1] == pytest.approx(acc[3, 1], abs=1e-15)
        assert acc[1, 1] == pytest.approx(acc[2, 1], abs=1e-15)
        assert solution.m > 0 and solution.M > 0

    def test_square_acceleration_is_centripetal(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        acc = accelerations(state)
        pos = state.position_array()
        assert np.max(np.abs(acc + pos)) <= 1e-10

    @given(params=params_st, m=st.floats(0.05, 5.0), M=st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_generic_matches_specialised(self, params, m, M):
        config = build_configuration(params, m, M)
        positions = np.array([[p.x, p.y] for p in config.positions])
        state = state_from([M, m, m, M], positions)
        generic = accelerations(state)
        specialised = trapezoid_accelerations(params, m, M)
        scale = max(1.0, float(np.abs(generic).max()))
        assert np.max(np.abs(generic - specialised)) <= 1e-13 * scale

    @given(params=params_st, m=st.floats(0.05, 5.0), M=st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_third_law(self, params, m, M):
        config = build_configuration(params, m, M)
        positions = np.array([[p.x, p.y] for p in config.positions])
        masses = np.array([M, m, m, M])
        state = state_from(masses, positions)
        acc = accelerations(state)
        net = (masses[:, None] * acc).sum(axis=0)
        scale = max(1.0, float(np.abs(masses[:, None] * acc).max()))
        assert np.max(np.abs(net)) <= 1e-13 * scale


class TestInitRelativeEquilibrium:
    def test_circular_speeds(self):
        state = init_relative_equilibrium(TrapezoidParams(0.5, 1.0))
        pos = state.position_array()
        vel = state.velocity_array()
        assert np.allclose(
            np.linalg.norm(vel, axis=1), np.linalg.norm(pos, axis=1), rtol=1e-14
        )
        assert np.allclose((pos * vel).sum(axis=1), 0.0, atol=1e-14)

    def test_zero_linear_momentum(self):
        state = init_relative_equilibrium(TrapezoidParams(0.8, 1.2))
        masses = state.mass_array()
        momentum = (masses[:, None] * state.velocity_array()).sum(axis=0)
        assert np.max(np.abs(momentum)) <= 1e-14

    def test_square_initial_data(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        masses = state.mass_array()
        assert masses[0] == pytest.approx(masses[1], rel=1e-14)

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
        assert state.mass_array().min() < 0


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
        final = trajectory.samples[-1].position_array()
        assert np.max(np.linalg.norm(final - positions, axis=1)) <= 1e-8

    def test_square_rotates_rigidly_for_one_period(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=1e-3, t_end=2.0 * math.pi)
        report = rigidity_metrics(trajectory)
        assert report.max_distance_deviation <= 1e-6
        assert report.max_energy_drift <= 1e-8
        assert report.max_angular_momentum_drift <= 1e-8
        final = trajectory.samples[-1].position_array()
        start = state.position_array()
        assert np.max(np.linalg.norm(final - start, axis=1)) <= 1e-6

    def test_sample_times_strictly_increasing_and_hit_t_end(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=1e-2, t_end=0.5, output_stride=7)
        times = trajectory.times()
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_horizon_returns_initial_sample(self):
        state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
        trajectory = integrate(state, dt=1e-3, t_end=0.0)
        assert len(trajectory.samples) == 1
        assert trajectory.samples[0].time == 0.0

    def test_collision_aborts_with_partial_trajectory(self):
        # start just above the collision tolerance and fall inwards; the
        # step size is small enough that the threshold crossing is sampled
        state = state_from([1.0, 1.0], [[0.0, 0.0], [2e-6, 0.0]])
        with pytest.raises(CollisionError) as excinfo:
            integrate(state, dt=1e-9, t_end=1e-6)
        partial = excinfo.value.trajectory
        assert len(partial.samples) >= 1
        assert partial.samples[-1].time < 1e-6


@pytest.mark.parametrize(
    "alpha, beta, force, stride",
    [
        (1.0, 1.0, False, 100),
        (0.5, 0.8771966348583974, False, 100),  # on the central-configuration locus
        (0.5, 1.0, False, 7),
        (0.37, 0.9, False, 1),
        (0.5, 0.5, True, 13),  # negative mass
    ],
)
def test_integrate_matches_array_reference_bits(alpha, beta, force, stride):
    state = init_relative_equilibrium(TrapezoidParams(alpha, beta), force=force)
    t_end = 0.3 * 2.0 * math.pi  # not a whole number of steps: the last one is partial
    trajectory = integrate(state, dt=1e-3, t_end=t_end, output_stride=stride)
    samples, energies, ang_momenta = array_reference.integrate(
        state.mass_array(), state.position_array(), state.velocity_array(),
        dt=1e-3, t_end=t_end, output_stride=stride,
    )
    assert [s.time for s in trajectory.samples] == [t for t, _, _ in samples]
    assert [s.position_array().tobytes() for s in trajectory.samples] == [
        pos.tobytes() for _, pos, _ in samples
    ]
    assert [s.velocity_array().tobytes() for s in trajectory.samples] == [
        vel.tobytes() for _, _, vel in samples
    ]
    assert list(trajectory.energy_series) == energies
    assert list(trajectory.angular_momentum_series) == ang_momenta


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
        positions = np.array([[p.x, p.y] for p in config.positions])
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
        assert len(trajectory.energy_series) == len(trajectory.samples)
        assert len(trajectory.angular_momentum_series) == len(trajectory.samples)
        masses = state.mass_array()
        expected = total_energy(masses, state.position_array(), state.velocity_array())
        assert trajectory.energy_series[0] == pytest.approx(expected, rel=1e-14)
        expected_l = total_angular_momentum(
            masses, state.position_array(), state.velocity_array()
        )
        assert trajectory.angular_momentum_series[0] == pytest.approx(expected_l, rel=1e-14)


def test_trajectory_rejects_unordered_times():
    state = init_relative_equilibrium(TrapezoidParams(1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(
            samples=(state, state),
            energy_series=(0.0, 0.0),
            angular_momentum_series=(0.0, 0.0),
        )


def test_system_state_rejects_near_collision():
    with pytest.raises(ValueError, match="collision"):
        state_from([1.0, 1.0], [[0.0, 0.0], [0.0, 1e-7]])
