import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcc.geometry import TrapezoidParams, distance_cubes_values
from trapcc.masses import RegionLabel, classify, mass_values
from trapcc.regions import (
    _BLOCK_CELLS,
    NegativeRadicandError,
    approx_coefficients,
    audit_published_domains,
    bisect,
    cell_centers,
    compare_exact_vs_approx,
    exact_boundary,
    exact_f1,
    exact_f3,
    f1_approx,
    f3_approx,
    g1_published,
    g3_published,
    raster,
    row_blocks,
    trace_boundary,
)


class TestApproxFunctions:
    def test_f1_approx_constant_term(self):
        # at alpha = 0 only the constant polynomial survives
        root = math.sqrt(0.5)
        expected = -2 * 0.5**6 - 1.5 * 0.5**4 + 2 * root * 0.25 - 0.375 * 0.25 + 0.5 * root - 0.03125
        assert f1_approx(0.0, 0.5) == pytest.approx(expected, rel=1e-15)
        assert f1_approx(0.0, 0.5) == pytest.approx(0.4571067811865476, rel=1e-12)

    def test_f1_approx_tracks_exact_at_interior_point(self):
        exact = exact_f1(0.5, 0.5)
        approx = f1_approx(0.5, 0.5)
        assert abs(exact - approx) <= 1e-1
        assert abs(exact - approx) == pytest.approx(4.792e-3, abs=1e-5)

    def test_f1_approx_sign_matches_exact(self):
        assert exact_f1(0.5, 1.0) < 0
        assert f1_approx(0.5, 1.0) < 0

    def test_f3_approx_reduces_to_h0(self):
        for beta in (0.2, 0.5, 0.9):
            assert f3_approx(0.0, beta) == pytest.approx(approx_coefficients(beta).h0, rel=1e-15)

    def test_f3_approx_sign_matches_exact(self):
        assert exact_f3(0.5, 1.0) < 0
        assert f3_approx(0.5, 1.0) < 0

    def test_f3_approx_recorded_comparison(self):
        assert exact_f3(1.0, 0.3) == pytest.approx(-0.007452, abs=1e-6)
        assert f3_approx(1.0, 0.3) == pytest.approx(-0.024668, abs=1e-6)


class TestPublishedBoundaries:
    def test_g1_negative_radicand_at_half(self):
        with pytest.raises(NegativeRadicandError) as excinfo:
            g1_published(0.5)
        assert excinfo.value.which == "denominator"
        assert excinfo.value.value == pytest.approx(-0.795, abs=1e-3)

    def test_g1_numerator_radicand_positive_near_zero(self):
        # the numerator radicand tends to 2 * 0.25^(3/2) - 0.03125 > 0
        with pytest.raises(NegativeRadicandError) as excinfo:
            g1_published(1e-6)
        assert excinfo.value.which == "denominator"

    def test_g1_high_beta_fails_in_numerator(self):
        with pytest.raises(NegativeRadicandError) as excinfo:
            g1_published(0.95)
        assert excinfo.value.which == "numerator"

    def test_g1_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            g1_published(1.5)

    def test_g3_self_consistency_where_real(self):
        for beta in (0.1, 0.3, 0.5, 0.8):
            alpha = g3_published(beta)
            assert f3_approx(alpha, beta) == pytest.approx(0.0, abs=1e-8)

    def test_g3_value_at_half(self):
        assert g3_published(0.5) == pytest.approx(0.9369, abs=1e-4)

    def test_g3_domain_error_at_high_beta(self):
        with pytest.raises(NegativeRadicandError):
            g3_published(0.9)

    def test_domain_audit(self):
        audit = audit_published_domains(999)
        # the printed g1 is never real on (0, 1): the two radicands are
        # never simultaneously non-negative
        assert audit.g1_intervals == ()
        reasons = {reason for _, _, reason in audit.g1_failures}
        assert reasons == {
            "NegativeRadicandError:denominator",
            "NegativeRadicandError:numerator",
        }
        # g3 is real on an initial interval ending near 0.866
        assert len(audit.g3_intervals) == 1
        lo, hi = audit.g3_intervals[0]
        assert lo < 0.01
        assert hi == pytest.approx(0.866, abs=5e-3)


class TestExactBoundary:
    def test_f1_crossing_at_half_alpha(self):
        result = exact_boundary("f1", "alpha", 0.5, (0.5, 1.0))
        assert result.root is not None
        assert 0.86 <= result.root <= 0.88
        assert abs(result.f_root) <= 1e-10
        assert result.f_lo > 0 and result.f_hi < 0

    def test_no_sign_change_along_alpha(self):
        result = exact_boundary("f1", "beta", 0.9, (1e-6, 1.0))
        assert result.root is None
        assert result.f_lo < 0 and result.f_hi < 0

    def test_f3_crosses_before_f1(self):
        root_f1 = exact_boundary("f1", "alpha", 0.5, (0.5, 1.0)).root
        root_f3 = exact_boundary("f3", "alpha", 0.5, (0.5, 1.0)).root
        assert root_f3 is not None and root_f1 is not None
        assert root_f3 < root_f1
        assert abs(exact_f3(0.5, root_f3)) <= 1e-10

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            exact_boundary("f1", "alpha", 0.5, (1.0, 0.5))
        with pytest.raises(ValueError):
            exact_boundary("f2", "alpha", 0.5, (0.5, 1.0))

    def test_roots_substitute_back(self):
        for alpha in (0.2, 0.5, 0.8):
            result = exact_boundary("f1", "alpha", alpha, (0.05, 2.0))
            if result.root is not None:
                assert abs(exact_f1(alpha, result.root)) <= 1e-10

    @given(alpha=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_f1_changes_sign_at_most_once_in_beta(self, alpha):
        betas = np.linspace(0.01, 2.0, 400)
        signs = np.sign(exact_f1(alpha, betas))
        changes = int((np.diff(signs) != 0).sum())
        assert changes <= 1


class TestBisect:
    def test_finds_simple_root(self):
        result = bisect(lambda x: x * x - 2.0, 0.0, 2.0)
        assert result.root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_reports_no_sign_change(self):
        result = bisect(lambda x: x * x + 1.0, -1.0, 1.0)
        assert result.root is None
        assert result.f_lo == 2.0 and result.f_hi == 2.0

    def test_exact_zero_at_endpoint(self):
        result = bisect(lambda x: x, 0.0, 1.0)
        assert result.root == 0.0

    @pytest.mark.parametrize("nan_at", [0.0, 1.0])
    def test_nan_endpoint_value_raises(self, nan_at):
        # a NaN endpoint value used to count as negative and give a root
        with pytest.raises(ValueError, match="NaN"):
            bisect(lambda x: math.nan if x == nan_at else x - 0.5, 0.0, 1.0)


class TestRaster:
    def test_two_by_two_cell_centres(self):
        grid = raster((0.0, 1.0), (0.0, 1.0), 2, 2)
        assert np.allclose(grid.alpha_axis, [0.25, 0.75])
        assert np.allclose(grid.beta_axis, [0.25, 0.75])
        for i, beta in enumerate(grid.beta_axis):
            for j, alpha in enumerate(grid.alpha_axis):
                assert grid.labels[i, j] is classify(TrapezoidParams(alpha, beta))

    def test_cell_at_known_both_positive_point(self):
        grid = raster((0.0, 1.0), (0.5, 1.5), 1, 1)
        assert grid.alpha_axis[0] == 0.5 and grid.beta_axis[0] == 1.0
        assert grid.labels[0, 0] is RegionLabel.BOTH_POSITIVE

    def test_cell_at_known_negative_point(self):
        grid = raster((0.0, 1.0), (0.0, 1.0), 1, 1)
        assert grid.alpha_axis[0] == 0.5 and grid.beta_axis[0] == 0.5
        assert grid.labels[0, 0] is not RegionLabel.BOTH_POSITIVE

    def test_labels_match_pointwise_classify(self):
        grid = raster((0.0, 1.0), (0.0, 2.0), 12, 12)
        for i, beta in enumerate(grid.beta_axis):
            for j, alpha in enumerate(grid.alpha_axis):
                assert grid.labels[i, j] is classify(TrapezoidParams(alpha, beta))

    def test_values_equal_meshgrid_evaluation(self):
        # raster evaluates on a row of alphas and a column of betas; every
        # cell must keep the bits of the full-meshgrid evaluation
        grid = raster((0.05, 0.95), (0.1, 1.4), 97, 61)
        assert not (grid.labels == RegionLabel.DEGENERATE).any()
        grid_a, grid_b = np.meshgrid(grid.alpha_axis, grid.beta_axis)
        a, b = distance_cubes_values(grid_a, grid_b)
        m, M, f1, _, f3 = mass_values(a, b, grid_a)
        for got, want in ((grid.f1, f1), (grid.f3, f3), (grid.m, m), (grid.M, M)):
            assert got.tobytes() == want.tobytes()

    def test_region_set_identities(self):
        grid = raster((0.0, 1.0), (0.0, 1.0), 100, 100)
        both = grid.labels == RegionLabel.BOTH_POSITIVE
        assert np.array_equal(both, (grid.f1 < 0) & (grid.f3 < 0))
        m_positive = np.isin(
            grid.labels, [RegionLabel.BOTH_POSITIVE, RegionLabel.ONLY_M_UPPER_POSITIVE]
        )
        same_sign = ((grid.f1 < 0) & (grid.f3 < 0)) | ((grid.f1 > 0) & (grid.f3 > 0))
        assert np.array_equal(m_positive, same_sign)

    def test_both_positive_cells_sit_above_half_beta(self):
        grid = raster((0.0, 1.0), (0.0, 1.0), 400, 400)
        both = grid.labels == RegionLabel.BOTH_POSITIVE
        assert both.any()
        rows_with_hits = np.any(both, axis=1)
        assert float(grid.beta_axis[rows_with_hits].min()) > 0.5

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            raster((0.0, 1.0), (0.0, 1.0), 0, 10)

    def test_rejects_out_of_domain_alpha(self):
        with pytest.raises(ValueError):
            raster((0.5, 2.0), (0.0, 1.0), 10, 10)

    @pytest.mark.parametrize("beta_range", [(0.0, 1e60), (0.0, 1e50)], ids=["1e60", "1e50"])
    def test_overflow_raises(self, beta_range):
        # at 1e60 the cube products overflow, at 1e50 only the masses do
        with pytest.raises(OverflowError, match="overflow"):
            raster((0.0, 1.0), beta_range, 2, 2)

    @pytest.mark.parametrize("n_alpha, n_beta", [(1, 1), (3, 20000), (1000, 1000), (20000, 3)])
    def test_row_blocks_cover_the_grid_in_order(self, n_alpha, n_beta):
        blocks = row_blocks(n_alpha, n_beta)
        assert blocks[0].start == 0 and blocks[-1].stop == n_beta
        for block, after in zip(blocks, blocks[1:]):
            assert block.stop == after.start
        for block in blocks:
            assert block.stop > block.start
            assert (block.stop - block.start) * n_alpha <= max(n_alpha, _BLOCK_CELLS)

    def test_cell_centers_stay_inside_open_interval(self):
        centers = cell_centers(0.0, 1.0, 7)
        assert centers[0] > 0.0 and centers[-1] < 1.0
        assert len(centers) == 7


class TestCompareExactVsApprox:
    def test_broadcast_axes_match_meshgrid(self):
        # compare-approx evaluates the surrogates on a row of alphas and a
        # column of betas; the values must be those of the full meshgrid
        alphas = cell_centers(0.0, 1.0, 301)
        betas = cell_centers(0.0, 1.5, 217)
        grid_a, grid_b = np.meshgrid(alphas, betas)
        for surrogate in (f1_approx, f3_approx):
            assert np.array_equal(surrogate(alphas[None, :], betas[:, None]), surrogate(grid_a, grid_b))

    def test_fractions_bounded(self):
        report = compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), 40, 40)
        for fraction in (report.f1_sign_agreement, report.f3_sign_agreement):
            assert 0.0 <= fraction <= 1.0
        assert report.f1_max_abs_deviation >= report.f1_mean_abs_deviation >= 0.0

    def test_single_cell_agreement(self):
        report = compare_exact_vs_approx((0.0, 1.0), (0.5, 1.5), 1, 1)
        # at (0.5, 1.0) both exact and published f1 are negative
        assert report.f1_sign_agreement == 1.0
        assert report.f1_disagreements == ()

    def test_disagreement_cells_listed(self):
        report = compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), 50, 50)
        assert len(report.f1_disagreements) == int(round((1 - report.f1_sign_agreement) * 2500))


class TestTraceBoundary:
    def test_exact_rows(self):
        curve = trace_boundary("f1", "alpha", [0.5], search_interval=(0.5, 1.0))
        assert curve.method == "exact-rootfind"
        sample = curve.samples[0]
        assert sample.status == "ok"
        assert sample.root == pytest.approx(0.8714396724813014, abs=1e-9)

    def test_published_rows_carry_domain_errors(self):
        curve = trace_boundary("f1", "beta", [0.5], method="published")
        assert curve.method == "published-approximation"
        assert curve.samples[0].status == "domain_error:NegativeRadicandError"

    def test_published_requires_beta_axis(self):
        with pytest.raises(ValueError):
            trace_boundary("f1", "alpha", [0.5], method="published")

    def test_empty_fixed_values(self):
        curve = trace_boundary("f1", "alpha", [])
        assert curve.samples == ()
