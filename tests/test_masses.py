import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trapcc.geometry import TrapezoidParams, distance_cubes_values
from trapcc.masses import (
    DegenerateConfigurationError,
    RegionLabel,
    classify,
    region_code,
    region_label,
    sign_values,
    solve_masses,
    solve_masses_linear,
)
from trapcc.regions import bisect, exact_f3

params_st = st.builds(
    TrapezoidParams,
    alpha=st.floats(min_value=0.01, max_value=1.0),
    beta=st.floats(min_value=0.01, max_value=2.0),
)


def degenerate_params(alpha=0.9):
    """A parameter point on the f3 = 0 curve, located by bisection refined
    to the last representable bracket."""
    root = bisect(lambda beta: float(exact_f3(alpha, beta)), 0.1, 1.0, xtol=0.0)
    assert root is not None
    return TrapezoidParams(alpha, root)


def signs_at(params):
    """f1, f2, f3 at a parameter point."""
    return sign_values(*distance_cubes_values(params.alpha, params.beta), params.alpha)


class TestSignFunctions:
    def test_half_half(self):
        f1, f2, f3 = signs_at(TrapezoidParams(0.5, 0.5))
        assert f1 == pytest.approx(0.651188, abs=1e-5)
        assert f2 == pytest.approx(-0.557685, abs=1e-5)
        assert f3 == pytest.approx(0.372346, abs=1e-5)

    def test_half_unit(self):
        f1, f2, f3 = signs_at(TrapezoidParams(0.5, 1.0))
        assert f1 == pytest.approx(-1.2297999, abs=1e-6)
        assert f2 == pytest.approx(-0.8579251, abs=1e-6)
        assert f3 == pytest.approx(-1.6587625, abs=1e-6)

    def test_square_f2_negative(self):
        _, f2, _ = signs_at(TrapezoidParams(1.0, 1.0))
        assert f2 == pytest.approx(1.0 - 2.0**1.5, rel=1e-15)
        assert f2 < 0

    @given(params=params_st)
    @settings(max_examples=200, deadline=None)
    def test_f3_identity(self, params):
        a, b = distance_cubes_values(params.alpha, params.beta)
        f1, f2, f3 = sign_values(a, b, params.alpha)
        recombined = f1 + params.alpha * f2
        # the identity is exact up to rounding of O(a+b+2ab)-sized terms;
        # near the f3 zero curve no tighter relative statement is possible
        scale = a + b + 2.0 * a * b
        assert abs(f3 - recombined) <= 1e-15 * scale

    @given(params=params_st)
    @settings(max_examples=200, deadline=None)
    def test_f2_always_negative(self, params):
        assert signs_at(params)[1] < 0


class TestSolveMasses:
    def test_square_equal_masses(self):
        solution = solve_masses(TrapezoidParams(1.0, 1.0))
        assert solution.m == solution.M
        # independent form: with a = 1 the mass reduces to b / (2 (1 + b))
        b = 2.0**1.5
        assert solution.m == pytest.approx(b / (2.0 * (1.0 + b)), abs=1e-9)
        assert solution.m == pytest.approx(0.3693980, abs=1e-7)

    def test_half_unit_values(self):
        solution = solve_masses(TrapezoidParams(0.5, 1.0))
        assert solution.m == pytest.approx(0.5202495, abs=1e-6)
        assert solution.M == pytest.approx(0.1814672, abs=1e-6)

    def test_half_half_negative_lower_mass(self):
        solution = solve_masses(TrapezoidParams(0.5, 0.5))
        assert solution.m > 0
        assert solution.M == pytest.approx(-0.1056, abs=1e-4)

    def test_degenerate_curve_raises(self):
        with pytest.raises(DegenerateConfigurationError):
            solve_masses(degenerate_params())

    @given(params=params_st)
    @settings(max_examples=200, deadline=None)
    def test_balance_identities(self, params):
        alpha = params.alpha
        a, b = distance_cubes_values(alpha, params.beta)
        _, _, f3 = sign_values(a, b, alpha)
        # stay clear of the pole, where the closed form legitimately loses digits
        assume(abs(f3) > 1e-3 * (a + b))
        solution = solve_masses(params)
        fields = (solution.a, solution.b, solution.f1, solution.f2, solution.f3)
        assert all(type(value) is float for value in fields)
        # the record carries the very floats it was solved from
        assert [x.hex() for x in fields[:2]] == [x.hex() for x in (a, b)]
        expected_signs = sign_values(solution.a, solution.b, alpha)
        assert [x.hex() for x in fields[2:]] == [x.hex() for x in expected_signs]
        pair_sum = (solution.m + solution.M) * (1.0 / a + 1.0 / b)
        outer = 2.0 * solution.M - solution.m * (alpha - 1.0) / a + solution.m * (alpha + 1.0) / b
        assert pair_sum == pytest.approx(1.0, rel=1e-12)
        assert outer == pytest.approx(1.0, rel=1e-12)


class TestLinearOracle:
    def test_square(self):
        m, M = solve_masses_linear(TrapezoidParams(1.0, 1.0))
        closed = solve_masses(TrapezoidParams(1.0, 1.0))
        assert m == pytest.approx(closed.m, rel=1e-12)
        assert M == pytest.approx(closed.M, rel=1e-12)

    def test_half_unit(self):
        m, M = solve_masses_linear(TrapezoidParams(0.5, 1.0))
        assert m == pytest.approx(0.5202495, abs=1e-6)
        assert M == pytest.approx(0.1814672, abs=1e-6)

    def test_matches_closed_form_with_negative_mass(self):
        params = TrapezoidParams(0.5, 0.5)
        m, M = solve_masses_linear(params)
        closed = solve_masses(params)
        assert m == pytest.approx(closed.m, rel=1e-12)
        assert M == pytest.approx(closed.M, rel=1e-12)
        assert M < 0

    def test_singular_exactly_on_degenerate_curve(self):
        with pytest.raises(DegenerateConfigurationError):
            solve_masses_linear(degenerate_params())

    @given(params=params_st)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_closed_form(self, params):
        a, b = distance_cubes_values(params.alpha, params.beta)
        assume(abs(sign_values(a, b, params.alpha)[2]) > 1e-3 * (a + b))
        closed = solve_masses(params)
        m, M = solve_masses_linear(params)
        scale = max(1.0, abs(closed.m), abs(closed.M))
        assert abs(m - closed.m) <= 1e-12 * scale
        assert abs(M - closed.M) <= 1e-12 * scale


class TestClassify:
    def test_known_labels(self):
        assert classify(TrapezoidParams(0.5, 1.0)) is RegionLabel.BOTH_POSITIVE
        assert classify(TrapezoidParams(1.0, 1.0)) is RegionLabel.BOTH_POSITIVE
        assert classify(TrapezoidParams(0.5, 0.5)) is RegionLabel.ONLY_M_UPPER_POSITIVE

    def test_degenerate_label(self):
        assert classify(degenerate_params()) is RegionLabel.DEGENERATE

    @given(
        params=st.builds(
            TrapezoidParams,
            alpha=st.floats(min_value=1e-12, max_value=1.0),
            beta=st.floats(min_value=0.01, max_value=2.0),
        )
    )
    @example(params=TrapezoidParams(1e-12, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_label_matches_sign_prediction(self, params):
        """classify, which reads the signs of the masses, agrees with the
        sign rule: M > 0 iff f3 < 0, and m > 0 iff f1 and f3 share a sign.

        The rule needs f2 = a - b < 0, so the domain is alpha >= 1e-12,
        where a < b in floats.  Below about 1e-16 the two cubes round to
        the same float, f2 = 0 and M = -0.0, and only the masses decide.
        """
        label = classify(params)
        if label is RegionLabel.DEGENERATE:
            return
        f1, _, f3 = signs_at(params)
        m_positive = (f1 < 0 and f3 < 0) or (f1 > 0 and f3 > 0)
        M_positive = f3 < 0
        expected = {
            (True, True): RegionLabel.BOTH_POSITIVE,
            (False, True): RegionLabel.ONLY_M_LOWER_POSITIVE,
            (True, False): RegionLabel.ONLY_M_UPPER_POSITIVE,
            (False, False): RegionLabel.NONE_POSITIVE,
        }[(m_positive, M_positive)]
        assert label is expected

    def test_exactly_one_label_per_point(self):
        labels = {
            classify(TrapezoidParams(alpha, beta))
            for alpha in np.linspace(0.05, 1.0, 8)
            for beta in np.linspace(0.05, 2.0, 8)
        }
        assert labels <= set(RegionLabel)


class TestRegionLabel:
    VALUES = [-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, math.inf, math.nan]

    def test_scalar_table(self):
        assert region_label(1.0, 1.0) is RegionLabel.BOTH_POSITIVE
        assert region_label(-1.0, 1.0) is RegionLabel.ONLY_M_LOWER_POSITIVE
        assert region_label(1.0, -0.0) is RegionLabel.ONLY_M_UPPER_POSITIVE
        assert region_label(0.0, math.nan) is RegionLabel.NONE_POSITIVE

    def test_array_form_equals_scalar_form(self):
        pairs = [(m, M) for m in self.VALUES for M in self.VALUES]
        ms = np.array([m for m, _ in pairs]).reshape(9, 9)
        Ms = np.array([M for _, M in pairs]).reshape(9, 9)
        codes = region_code(ms, Ms)
        assert codes.shape == (9, 9) and codes.dtype == np.int8
        for code, (m, M) in zip(codes.ravel().tolist(), pairs):
            assert tuple(RegionLabel)[code] is region_label(m, M)
            assert type(region_code(m, M)) is int and region_code(m, M) == code
