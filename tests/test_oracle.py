import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trapcc.geometry import TrapezoidParams
from trapcc.masses import solve_masses
from trapcc.oracle import (
    CoincidentBodiesError,
    PlanarSystem,
    _sum,
    attraction_field,
    cc_residual,
    center_of_mass,
    is_central_configuration,
    potential_and_moment,
    trapezoid_system,
)
from trapcc.regions import bisect

import array_reference
from array_reference import field_array
from locus_oracle import inner_pair_consistency
from peak_rss import peak_rss_mb

# the kernels oracle._kernels generates, by name
KERNELS = ("field", "min_separation", "distances", "potential", "half_moment", "residual",
           "central", "step")
SQUARE_MASS = 2.0**1.5 / (2.0 * (1.0 + 2.0**1.5))  # equal-mass square solution


def square_system(mass=SQUARE_MASS):
    return PlanarSystem([mass] * 4, [(-0.5, -0.5), (-0.5, 0.5), (0.5, 0.5), (0.5, -0.5)])


def lagrange_triangle(mass=1.0):
    height = math.sqrt(3.0) / 2.0
    points = [(-0.5, 0.0), (0.5, 0.0), (0.0, height)]
    return PlanarSystem([mass] * len(points), points)


class TestPlanarSystem:
    def test_requires_two_bodies(self):
        with pytest.raises(ValueError, match="at least 2"):
            PlanarSystem([1.0], [(0.0, 0.0)])

    def test_rejects_coincident_bodies(self):
        with pytest.raises(ValueError, match="closer than"):
            PlanarSystem([1.0, 1.0], [(0.0, 0.0), (0.0, 1e-12)])

    def test_rejects_zero_total_mass(self):
        with pytest.raises(ValueError, match="total mass"):
            PlanarSystem([1.0, -1.0], [(0.0, 0.0), (1.0, 0.0)])

    def test_rejects_total_mass_within_rounding(self):
        # the total is two ulps of 9, far below the error of summing the
        # masses, so the centre of mass would be noise (1e16 away)
        masses = [0.0, 0.0, 8.999999999999998, -9.0]
        with pytest.raises(ValueError, match="total mass"):
            PlanarSystem(masses, [(0.0, 0.0), (0.0, 1.5), (0.0, 1.0), (0.0, 2.0)])

    def test_negative_masses_allowed(self):
        PlanarSystem([1.0, -0.5], [(0.0, 0.0), (1.0, 0.0)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_rejects_non_finite_position(self, value, where):
        position = (value, 0.0) if where == "x" else (0.0, value)
        with pytest.raises(ValueError, match="positions must be finite"):
            PlanarSystem([1.0, 1.0], [(0.0, 1.0), position])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mass(self, value):
        with pytest.raises(ValueError, match="masses must be finite"):
            PlanarSystem([1.0, value], [(0.0, 0.0), (1.0, 0.0)])

    @pytest.mark.parametrize(
        "masses, positions",
        [
            ([1.0, 1.0], [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),  # more positions than masses
            ([1.0, 1.0, 1.0], [(0.0, 0.0), (1.0, 0.0)]),  # fewer
            ([1.0, 1.0], [0.0, 1.0]),  # (N,)
            ([1.0, 1.0], [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]),  # (N, 3)
            ([1.0, 1.0], [[(0.0, 0.0)], [(1.0, 0.0)]]),  # (N, 1, 2)
            ([[1.0, 1.0]], [(0.0, 0.0), (1.0, 0.0)]),  # masses (1, N)
            (1.0, [(0.0, 0.0)]),  # masses ()
        ],
    )
    def test_rejects_positions_other_than_one_pair_per_mass(self, masses, positions):
        with pytest.raises(ValueError, match=r"one \(x, y\) position per mass"):
            PlanarSystem(masses, positions)


class TestCenterOfMass:
    def test_symmetric_pair(self):
        system = PlanarSystem([1.0, 1.0], [(-1.0, 0.0), (1.0, 0.0)])
        assert center_of_mass(system) == (0.0, 0.0)

    def test_weighted_mean(self):
        system = PlanarSystem([1.0, 3.0], [(0.0, 0.0), (4.0, 0.0)])
        x, y = center_of_mass(system)
        assert x == pytest.approx(3.0)
        assert y == 0.0

    def test_built_trapezoid_centred(self):
        params = TrapezoidParams(0.5, 1.0)
        solution = solve_masses(params)
        x, y = center_of_mass(trapezoid_system(params, solution.m, solution.M))
        assert abs(x) <= 1e-14 and abs(y) <= 1e-14


class TestPotentialAndMoment:
    def test_unit_pair(self):
        system = PlanarSystem([1.0, 1.0], [(0.0, 0.0), (1.0, 0.0)])
        potential, _ = potential_and_moment(system)
        assert potential == pytest.approx(1.0)

    def test_unit_square_unit_masses(self):
        system = square_system(1.0)
        potential, moment = potential_and_moment(system)
        assert potential == pytest.approx(4.0 + 2.0 / math.sqrt(2.0), rel=1e-14)
        assert moment == pytest.approx(1.0, rel=1e-14)

    def test_mass_weighted_pair(self):
        system = PlanarSystem([2.0, 3.0], [(0.0, 0.0), (2.0, 0.0)])
        potential, _ = potential_and_moment(system)
        assert potential == pytest.approx(3.0)


class TestCcResidual:
    def test_square_is_central_at_unit_multiplier(self):
        report = cc_residual(square_system(), lam=1.0)
        assert report.max_residual <= 1e-12
        assert report.lambda_energy == pytest.approx(1.0, abs=1e-12)
        for lam in report.lambda_per_body:
            assert lam == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_masses_break_centrality(self):
        params = TrapezoidParams(0.5, 1.0)
        solution = solve_masses(params)
        system = trapezoid_system(params, solution.m * 1.1, solution.M)
        report = cc_residual(system, lam=1.0)
        assert report.max_residual / report.attraction_scale > 1e-3

    def test_wrong_multiplier_detected(self):
        report = cc_residual(square_system(), lam=2.0)
        assert report.max_residual / report.attraction_scale > 1e-2


class TestIsCentralConfiguration:
    def test_lagrange_triangle(self):
        verdict, report = is_central_configuration(lagrange_triangle())
        assert verdict
        assert report.max_residual <= 1e-12 * report.attraction_scale

    def test_square(self):
        verdict, report = is_central_configuration(square_system())
        assert verdict
        assert report.lambda_energy == pytest.approx(1.0, abs=1e-12)

    def test_random_positions_rejected(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pos = rng.uniform(-1.0, 1.0, size=(4, 2))
            system = PlanarSystem(np.ones(4), pos)
            verdict, _ = is_central_configuration(system)
            assert not verdict

    # the array coding warns on the overflow; the float kernel does not
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_system_is_not_central(self):
        # the potential and every attraction overflow, and inf <= tol * inf
        # holds: a verdict on a non-finite residual or scale is False
        system = PlanarSystem([1.0, 1e200, 1e200], [(0.5, 0.5), (-1.0, 0.0), (1.0, 0.0)])
        verdict, report = is_central_configuration(system)
        assert verdict is False
        assert report.max_residual == report.attraction_scale == math.inf
        expected_verdict, expected = array_reference.is_central_configuration(system)
        assert expected_verdict is False
        assert report_bits(report) == report_bits(expected)

    @given(
        dx=st.floats(min_value=-5.0, max_value=5.0),
        dy=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, dx, dy):
        base, _ = is_central_configuration(square_system())
        moved, _ = is_central_configuration(array_reference.translated(square_system(), dx, dy))
        assert moved == base

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_rescales_multiplier(self, scale):
        system = square_system()
        scaled = PlanarSystem(system.masses, np.array(system.positions) * scale)
        verdict_base, report_base = is_central_configuration(system)
        verdict_scaled, report_scaled = is_central_configuration(scaled)
        assert verdict_scaled == verdict_base
        assert report_scaled.lambda_energy == pytest.approx(
            report_base.lambda_energy * scale**-3, rel=1e-10
        )


class TestTrapezoidFamily:
    """What the closed-form masses do and do not guarantee.

    The masses enforce the outer-pair and pair-sum balance equations, which
    fixes the multiplier at 1.  The remaining independent equation (the
    inner-pair balance along the top side) holds only on a one-dimensional
    locus of the parameter plane; the oracle must confirm centrality
    exactly there and report a defect elsewhere.
    """

    def test_balance_projections_hold_everywhere(self):
        for alpha, beta in [(0.3, 0.4), (0.5, 1.0), (0.9, 1.7), (0.5, 0.5)]:
            params = TrapezoidParams(alpha, beta)
            solution = solve_masses(params)
            system = trapezoid_system(params, solution.m, solution.M)
            masses, pos = system.masses, system.positions
            acc = field_array(masses, pos)
            defect = acc + pos  # multiplier 1, centre of mass at origin
            # vertical components balance for every body (pair-sum equation)
            assert np.max(np.abs(defect[:, 1])) <= 1e-12 * np.abs(acc).max()
            # horizontal components balance for the outer pair
            assert abs(defect[0, 0]) <= 1e-12 * np.abs(acc).max()
            assert abs(defect[3, 0]) <= 1e-12 * np.abs(acc).max()

    def test_centrality_on_consistency_locus(self):
        root = bisect(lambda beta: inner_pair_consistency(0.5, beta), 0.5, 1.5, xtol=0.0)
        assert root is not None
        assert root == pytest.approx(0.8771966348582857, abs=1e-9)
        params = TrapezoidParams(0.5, root)
        solution = solve_masses(params)
        assert solution.m > 0 and solution.M > 0
        verdict, report = is_central_configuration(trapezoid_system(params, solution.m, solution.M))
        assert verdict
        assert report.max_residual <= 1e-10 * report.attraction_scale

    def test_square_lies_on_consistency_locus(self):
        assert inner_pair_consistency(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_off_locus_defect_is_order_one(self):
        params = TrapezoidParams(0.5, 1.0)
        solution = solve_masses(params)
        report = cc_residual(trapezoid_system(params, solution.m, solution.M), lam=1.0)
        assert report.max_residual / report.attraction_scale > 0.1


def test_attraction_sums_to_zero_weighted():
    rng = np.random.default_rng(11)
    for _ in range(10):
        masses = rng.uniform(0.1, 3.0, size=5)
        pos = rng.uniform(-2.0, 2.0, size=(5, 2))
        acc = field_array(masses, pos)
        net = (masses[:, None] * acc).sum(axis=0)
        assert np.max(np.abs(net)) <= 1e-13 * np.abs(masses[:, None] * acc).max()


# N = 2..9 bodies with signed masses: from 8 values on, numpy sums the
# masses, moments and attraction norms pairwise, not left to right.
# Coordinates include the round values (0, 1, ...) hypothesis favours, so
# pairs with an exact zero offset occur
coordinate_st = st.floats(min_value=-10.0, max_value=10.0)
bodies_st = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=n, max_size=n),
        st.lists(st.tuples(coordinate_st, coordinate_st), min_size=n, max_size=n),
    )
)


# one massive body, at (1, 0), and a massless one 1e-9 from the origin: the
# array coding rebuilt a PlanarSystem from the copy centred on (1, 0), where
# -1 + 1e-9 rounds to just under 1e-9 from -1, and raised
# CoincidentBodiesError; the float kernel never rebuilds a system
NEAR_COINCIDENT_BODIES = ([0.0, 1.0, 0.0, 0.0], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1e-9, 0.0)])

# masses whose potential overflows: lambda is inf, and inf * 0 makes the
# middle body's defect NaN, which numpy's max keeps and Python's max skips
OVERFLOWING_BODIES = ([1e200, 1.0, 1e200], [(-1.0, 0.0), (0.0, 0.5), (1.0, 0.0)])


def planar_system_or_none(masses, positions):
    try:
        return PlanarSystem(masses, positions)
    except ValueError:  # vanishing total mass or coincident bodies
        return None


def assert_well_formed(report):
    """Finite sums, scales and centre; lambda_energy may be inf only for a
    zero moment, a per-body multiplier NaN only for a body at the centre."""
    values = (report.potential, report.moment, report.max_residual, report.attraction_scale,
              *report.com)
    assert all(math.isfinite(v) for v in values)
    assert math.isfinite(report.lambda_energy) or report.moment == 0.0
    assert not any(math.isinf(v) for v in report.lambda_per_body)


def report_bits(report) -> bytes:
    """Every float of a report, as bytes (NaN per-body multipliers included)."""
    if not isinstance(report, dict):
        report = report._asdict()
    values = [
        *report["lambda_per_body"],
        report["lambda_energy"],
        report["potential"],
        report["moment"],
        report["max_residual"],
        report["attraction_scale"],
        *report["com"],
    ]
    return np.array(values, dtype=float).tobytes()


class TestFloatKernelBits:
    """The float kernel returns the bits of the array coding it replaced."""

    @given(values=st.lists(
        st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-30, 30)),
        max_size=400,
    ))
    @example(values=[-0.0] * 9)
    @settings(max_examples=300, deadline=None)
    def test_sum_is_numpys_sum(self, values):
        # below 8 values, from 8 to 128 and past 128 numpy sums in three orders
        assert np.float64(_sum(values)).tobytes() == np.sum(np.array(values)).tobytes()

    @given(bodies=bodies_st)
    @settings(max_examples=400, deadline=None)
    def test_attraction_field_bits(self, bodies):
        masses, positions = (np.array(v, dtype=float) for v in bodies)
        separations = np.hypot(*(positions[:, None, :] - positions[None, :, :]).transpose(2, 0, 1))
        np.fill_diagonal(separations, np.inf)
        assume(separations.min() > 1e-6)
        expected = array_reference.attraction_field(masses, positions)
        field = attraction_field(masses.tolist(), positions.ravel().tolist())
        assert np.array(field).tobytes() == expected.tobytes()

    @given(bodies=bodies_st, lam=st.floats(min_value=-3.0, max_value=3.0))
    @example(bodies=NEAR_COINCIDENT_BODIES, lam=1.0)
    @example(bodies=OVERFLOWING_BODIES, lam=math.inf)
    @settings(max_examples=300, deadline=None)
    # the array coding warns on that overflow; the float kernel does not
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_report_bits_on_random_systems(self, bodies, lam):
        system = planar_system_or_none(*bodies)
        assume(system is not None)
        verdict, report = is_central_configuration(system)
        residual = cc_residual(system, lam)
        # where the array coding rejected its translated copy as coincident
        # (see NEAR_COINCIDENT_BODIES) it has no bits to compare against
        try:
            expected_verdict, expected = array_reference.is_central_configuration(system)
        except CoincidentBodiesError:
            assert isinstance(verdict, bool)
            assert_well_formed(report)
        else:
            assert verdict == expected_verdict
            assert report_bits(report) == report_bits(expected)
        try:
            expected = array_reference.cc_residual(system, lam)
        except CoincidentBodiesError:
            assert_well_formed(residual)
        else:
            assert report_bits(residual) == report_bits(expected)

    def test_reports_where_the_array_coding_found_coincident_bodies(self):
        system = PlanarSystem(*NEAR_COINCIDENT_BODIES)
        with pytest.raises(CoincidentBodiesError):
            array_reference.is_central_configuration(system)
        with pytest.raises(CoincidentBodiesError):
            array_reference.cc_residual(system, 1.0)
        verdict, report = is_central_configuration(system)
        assert verdict is False
        expected = {
            # 1.0 / (2.0 * sqrt(2.0)), one ulp below the float nearest
            # 2 ** -1.5 that numpy's power gave
            "lambda_per_body": (1.0, math.nan, 0.35355339059327373, 1.0000000029999998),
            "lambda_energy": math.inf,
            "potential": 0.0,
            "moment": 0.0,
            "max_residual": 1.000000002,
            "attraction_scale": 0.6250000005,
            "com": (0.0, 0.0),
        }
        assert report_bits(report) == report_bits(expected)
        expected.update(max_residual=0.9142135623730951, com=(1.0, 0.0))
        assert report_bits(cc_residual(system, 1.0)) == report_bits(expected)

    @given(
        alpha=st.floats(min_value=0.01, max_value=1.0),
        beta=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_report_bits_on_trapezoids(self, alpha, beta):
        params = TrapezoidParams(alpha, beta)
        try:
            solution = solve_masses(params)
        except ValueError:  # on f3 = 0
            assume(False)
        system = trapezoid_system(params, solution.m, solution.M)
        verdict, report = is_central_configuration(system)
        expected_verdict, expected = array_reference.is_central_configuration(system)
        assert verdict == expected_verdict
        assert report_bits(report) == report_bits(expected)

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_every_kernel_at_the_body_cap_compiles_in_256_mb(self):
        # 90 bodies took 246 MB and 1.4 s in a fresh process, 200 bodies 1,059 MB
        script = (
            "from trapcc import oracle\n"
            "kernels = oracle._kernels(oracle.MAX_BODIES)\n"
            f"for name in {KERNELS!r}:\n"
            "    kernels[name]\n"
            f"assert sorted(kernels) == {sorted(KERNELS)!r}\n"
        )
        peak = peak_rss_mb("-c", script)
        assert peak <= 256.0, f"{peak:.0f} MB"

    def test_bits_at_78_bodies(self):
        # 78 bodies have 3,003 pairs, too many terms for one compiled sum
        rng = np.random.default_rng(78)
        masses, positions = rng.uniform(0.5, 2.0, 78), rng.uniform(-10.0, 10.0, (78, 2))
        system = PlanarSystem(masses, positions)
        field = attraction_field(masses.tolist(), positions.ravel().tolist())
        expected = array_reference.attraction_field(masses, positions)
        assert np.array(field).tobytes() == expected.tobytes()
        assert potential_and_moment(system) == array_reference.potential_and_moment(system)
        verdict, report = is_central_configuration(system)
        expected_verdict, expected = array_reference.is_central_configuration(system)
        assert verdict is expected_verdict is False
        assert report_bits(report) == report_bits(expected)
        expected = array_reference.cc_residual(system, 0.5)
        assert report_bits(cc_residual(system, 0.5)) == report_bits(expected)

    def test_report_carries_python_floats(self):
        _, report = is_central_configuration(lagrange_triangle())
        assert type(report.potential) is float
        assert type(report.lambda_energy) is float
        assert type(report.moment) is float
