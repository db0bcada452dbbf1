import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcc.geometry import (
    DegenerateMassError,
    TrapezoidParams,
    build_configuration,
    distance_cubes_values,
)

from array_reference import reconstruct_positions

params_st = st.builds(
    TrapezoidParams,
    alpha=st.floats(min_value=0.01, max_value=1.0),
    beta=st.floats(min_value=0.01, max_value=2.0),
)
positive_mass_st = st.floats(min_value=0.01, max_value=10.0)


class TestTrapezoidParams:
    def test_accepts_rectangle(self):
        TrapezoidParams(alpha=1.0, beta=1.0)

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            TrapezoidParams(alpha=0.0, beta=1.0)

    def test_rejects_alpha_above_one_with_rescale_hint(self):
        with pytest.raises(ValueError, match="rescal"):
            TrapezoidParams(alpha=2.0, beta=1.0)

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            TrapezoidParams(alpha=0.5, beta=0.0)

    def test_beta_above_cap_rejected(self):
        with pytest.raises(ValueError, match=r"exceeds the configured maximum 2\.0$"):
            TrapezoidParams(alpha=0.5, beta=3.0)
        TrapezoidParams(alpha=0.5, beta=2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TrapezoidParams(alpha=math.nan, beta=1.0)


class TestDistanceCubes:
    def test_square_case(self):
        a, b = distance_cubes_values(1.0, 1.0)
        assert a == pytest.approx(1.0, rel=1e-15)
        assert b == pytest.approx(2.0**1.5, rel=1e-15)

    def test_half_alpha_unit_beta(self):
        # direct evaluation: a = 1.0625^(3/2), b = 1.5625^(3/2) = 1.953125
        a, b = distance_cubes_values(0.5, 1.0)
        assert a == pytest.approx(1.0951999318046912, rel=1e-15)
        assert b == pytest.approx(1.953125, rel=1e-15)

    def test_half_half(self):
        a, b = distance_cubes_values(0.5, 0.5)
        assert a == pytest.approx(0.17469281074217108, rel=1e-12)
        assert b == pytest.approx(0.7323776028286229, rel=1e-12)

    def test_a_below_b_on_dense_grid(self):
        alphas = (np.arange(200) + 1.0) / 200.0  # (0, 1]
        betas = 2.0 * (np.arange(200) + 1.0) / 200.0  # (0, 2]
        grid_a, grid_b = np.meshgrid(alphas, betas)
        a, b = distance_cubes_values(grid_a, grid_b)
        assert np.all(a > 0) and np.all(b > 0)
        assert np.all(a < b)

    def test_monotone_in_beta(self):
        for alpha in (0.1, 0.5, 1.0):
            betas = np.linspace(0.01, 2.0, 300)
            a, b = distance_cubes_values(alpha, betas)
            assert np.all(np.diff(a) > 0)
            assert np.all(np.diff(b) > 0)


class TestBuildConfiguration:
    def test_equal_masses_split_beta_evenly(self):
        config = build_configuration(TrapezoidParams(1.0, 1.0), m=2.0, M=2.0)
        assert config.r_A == pytest.approx(0.5)
        assert config.r_B == pytest.approx(0.5)

    def test_solved_masses_split(self):
        # masses from the closed forms at (0.5, 1.0)
        config = build_configuration(
            TrapezoidParams(0.5, 1.0), m=0.5202504230593612, M=0.18146688551497586
        )
        assert config.r_A == pytest.approx(0.2586, abs=1e-4)
        assert config.r_B == pytest.approx(0.7414, abs=1e-4)
        assert config.r_A + config.r_B == pytest.approx(1.0, rel=1e-14)

    def test_positions_follow_convention(self):
        config = build_configuration(TrapezoidParams(0.5, 1.0), m=1.0, M=3.0)
        (x1, y1), (x2, y2), (x3, y3), (x4, y4) = config.positions
        assert (x1, x4) == (-0.5, 0.5)
        assert (x2, x3) == (-0.25, 0.25)
        assert y1 == y4 == -config.r_B
        assert y2 == y3 == config.r_A
        assert all(type(c) is float for p in config.positions for c in p)

    def test_accepts_zero_mass(self):
        config = build_configuration(TrapezoidParams(0.5, 1.0), m=1.0, M=0.0)
        assert (config.r_A, config.r_B) == (0.0, 1.0)  # centre of mass on the upper pair

    def test_relaxed_mode_rejects_cancelling_masses(self):
        with pytest.raises(DegenerateMassError):
            build_configuration(TrapezoidParams(0.5, 1.0), m=1.0, M=-1.0)

    @pytest.mark.parametrize(
        "m, M",
        [
            *[(v, 1.0) for v in (math.nan, math.inf, -math.inf)],
            *[(1.0, v) for v in (math.nan, math.inf, -math.inf)],
            (1.0, 1.7e308),  # finite, but M * beta overflows, so r_A would be inf
        ],
    )
    def test_rejects_non_finite_positions(self, m, M):
        with pytest.raises(ValueError, match="non-finite"):
            build_configuration(TrapezoidParams(0.5, 2.0), m=m, M=M)

    def test_relaxed_mode_accepts_negative_mass(self):
        config = build_configuration(TrapezoidParams(0.5, 0.5), m=0.25, M=-0.1)
        assert config.r_A < 0  # centre of mass above the upper pair

    @given(params=params_st, m=positive_mass_st, M=positive_mass_st)
    @settings(max_examples=150, deadline=None)
    def test_center_of_mass_at_origin(self, params, m, M):
        config = build_configuration(params, m, M)
        masses = np.array([M, m, m, M])
        pos = np.array(config.positions)
        com = (masses[:, None] * pos).sum(axis=0) / masses.sum()
        assert np.max(np.abs(com)) <= 1e-14 * max(1.0, m + M)


class TestReconstructPositions:
    def test_equal_mass_split(self):
        beta = 0.8
        points = reconstruct_positions((0.0, beta), (-1.0, 0.0), m=1.0, M=1.0, alpha=0.5)
        assert points[0][0] == pytest.approx(-0.5)
        assert points[0][1] == pytest.approx(-beta / 2)

    def test_solved_mass_split(self):
        points = reconstruct_positions(
            (0.0, 1.0),
            (-1.0, 0.0),
            m=0.5202504230593612,
            M=0.18146688551497586,
            alpha=0.5,
        )
        assert points[0][0] == pytest.approx(-0.5)
        assert points[0][1] == pytest.approx(-0.7414, abs=1e-4)

    def test_zero_vectors_collapse_to_origin(self):
        points = reconstruct_positions((0.0, 0.0), (0.0, 0.0), m=2.0, M=3.0, alpha=0.7)
        for x, y in points:
            assert x == 0.0 and y == 0.0

    def test_cancelling_masses_rejected(self):
        with pytest.raises(DegenerateMassError):
            reconstruct_positions((0.0, 1.0), (-1.0, 0.0), m=1.0, M=-1.0, alpha=0.5)

    @given(params=params_st, m=positive_mass_st, M=positive_mass_st)
    @settings(max_examples=150, deadline=None)
    def test_matches_build_configuration(self, params, m, M):
        config = build_configuration(params, m, M)
        rebuilt = reconstruct_positions(
            (0.0, params.beta), (-1.0, 0.0), m=m, M=M, alpha=params.alpha
        )
        scale = max(1.0, params.beta)
        for (x, y), (x_again, y_again) in zip(config.positions, rebuilt):
            assert abs(x - x_again) <= 1e-14 * scale
            assert abs(y - y_again) <= 1e-14 * scale
