import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from array_reference import worst_order
from trapcc.geometry import TrapezoidParams, distance_cubes_values
from trapcc.masses import RegionLabel, classify, mass_values
from trapcc import regions
from trapcc.regions import (
    _BLOCK_CELLS,
    NegativeRadicandError,
    approx_coefficients,
    audit_published_domains,
    bisect,
    cell_centers,
    compare_exact_vs_approx,
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

# a RasterGrid label code is a position in this tuple
LABELS = tuple(RegionLabel)


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
            assert f3_approx(0.0, beta) == pytest.approx(approx_coefficients(beta)[0], rel=1e-15)

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
        audit = audit_published_domains()
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


def exact_sample(which, fixed_axis, fixed, search_interval):
    """The one exact boundary row of ``fixed``."""
    (sample,) = trace_boundary(which, fixed_axis, [fixed], search_interval=search_interval).samples
    return sample


class TestExactBoundary:
    def test_f1_crossing_at_half_alpha(self):
        sample = exact_sample("f1", "alpha", 0.5, (0.5, 1.0))
        assert sample.status == "ok"
        assert 0.86 <= sample.root <= 0.88
        assert abs(sample.f_value) <= 1e-10
        assert exact_f1(0.5, 0.5) > 0 and exact_f1(0.5, 1.0) < 0

    def test_no_sign_change_along_alpha(self):
        sample = exact_sample("f1", "beta", 0.9, (1e-6, 1.0))
        assert (sample.root, sample.f_value, sample.status) == (None, None, "no_sign_change")
        assert exact_f1(1e-6, 0.9) < 0 and exact_f1(1.0, 0.9) < 0

    def test_f3_crosses_before_f1(self):
        root_f1 = exact_sample("f1", "alpha", 0.5, (0.5, 1.0)).root
        root_f3 = exact_sample("f3", "alpha", 0.5, (0.5, 1.0)).root
        assert root_f3 is not None and root_f1 is not None
        assert root_f3 < root_f1
        assert abs(exact_f3(0.5, root_f3)) <= 1e-10

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            exact_sample("f1", "alpha", 0.5, (1.0, 0.5))
        with pytest.raises(ValueError):
            exact_sample("f2", "alpha", 0.5, (0.5, 1.0))

    def test_roots_substitute_back(self):
        curve = trace_boundary("f1", "alpha", [0.2, 0.5, 0.8], search_interval=(0.05, 2.0))
        for alpha, sample in zip((0.2, 0.5, 0.8), curve.samples):
            if sample.root is not None:
                assert abs(exact_f1(alpha, sample.root)) <= 1e-10

    @given(alpha=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_f1_changes_sign_at_most_once_in_beta(self, alpha):
        betas = np.linspace(0.01, 2.0, 400)
        signs = np.sign(exact_f1(alpha, betas))
        changes = int((np.diff(signs) != 0).sum())
        assert changes <= 1


class TestBisect:
    def test_finds_simple_root(self):
        assert bisect(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_reports_no_sign_change(self):
        def f(x):
            return x * x + 1.0

        assert bisect(f, -1.0, 1.0) is None
        assert f(-1.0) == 2.0 and f(1.0) == 2.0

    def test_exact_zero_at_endpoint(self):
        assert bisect(lambda x: x, 0.0, 1.0) == 0.0

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
                assert LABELS[grid.labels[i, j]] is classify(TrapezoidParams(alpha, beta))

    def test_cell_at_known_both_positive_point(self):
        grid = raster((0.0, 1.0), (0.5, 1.5), 1, 1)
        assert grid.alpha_axis[0] == 0.5 and grid.beta_axis[0] == 1.0
        assert LABELS[grid.labels[0, 0]] is RegionLabel.BOTH_POSITIVE

    def test_cell_at_known_negative_point(self):
        grid = raster((0.0, 1.0), (0.0, 1.0), 1, 1)
        assert grid.alpha_axis[0] == 0.5 and grid.beta_axis[0] == 0.5
        assert LABELS[grid.labels[0, 0]] is not RegionLabel.BOTH_POSITIVE

    def test_labels_match_pointwise_classify(self):
        grid = raster((0.0, 1.0), (0.0, 2.0), 12, 12)
        for i, beta in enumerate(grid.beta_axis):
            for j, alpha in enumerate(grid.alpha_axis):
                assert LABELS[grid.labels[i, j]] is classify(TrapezoidParams(alpha, beta))

    def test_values_equal_meshgrid_evaluation(self):
        # raster evaluates on a row of alphas and a column of betas; every
        # cell must keep the bits of the full-meshgrid evaluation
        grid = raster((0.05, 0.95), (0.1, 1.4), 97, 61)
        assert not (grid.labels == LABELS.index(RegionLabel.DEGENERATE)).any()
        grid_a, grid_b = np.meshgrid(grid.alpha_axis, grid.beta_axis)
        a, b = distance_cubes_values(grid_a, grid_b)
        m, M, f1, _, f3 = mass_values(a, b, grid_a)
        for got, want in ((grid.f1, f1), (grid.f3, f3), (grid.m, m), (grid.M, M)):
            assert got.tobytes() == want.tobytes()

    def test_region_set_identities(self):
        grid = raster((0.0, 1.0), (0.0, 1.0), 100, 100)
        both = grid.labels == LABELS.index(RegionLabel.BOTH_POSITIVE)
        assert np.array_equal(both, (grid.f1 < 0) & (grid.f3 < 0))
        m_positive = np.isin(
            grid.labels, [LABELS.index(RegionLabel.BOTH_POSITIVE),
                          LABELS.index(RegionLabel.ONLY_M_UPPER_POSITIVE)]
        )
        same_sign = ((grid.f1 < 0) & (grid.f3 < 0)) | ((grid.f1 > 0) & (grid.f3 > 0))
        assert np.array_equal(m_positive, same_sign)

    def test_both_positive_cells_sit_above_half_beta(self):
        grid = raster((0.0, 1.0), (0.0, 1.0), 400, 400)
        both = grid.labels == LABELS.index(RegionLabel.BOTH_POSITIVE)
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
        reports = compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), 40, 40)
        assert list(reports) == ["f1", "f3"]
        for report in reports.values():
            assert 0.0 <= report.sign_agreement <= 1.0
            assert report.max_abs_deviation >= report.mean_abs_deviation >= 0.0

    def test_single_cell_agreement(self):
        report = compare_exact_vs_approx((0.0, 1.0), (0.5, 1.5), 1, 1)["f1"]
        # at (0.5, 1.0) both exact and published f1 are negative
        assert report.sign_agreement == 1.0
        assert report.disagreements.shape == (0, 2)
        assert report.disagreements.dtype == np.float64

    @pytest.mark.parametrize("fault", ["ties", "nan"])
    def test_ties_and_nans_order_the_worst_cells_over_the_whole_grid(self, monkeypatch, fault):
        # a surrogate one above the exact f1 leaves deviations that tie at
        # 1.0, and a NaN at one cell is the worst: the explicit order (NaN
        # first, then the largest, equal ones by flat index) decides them
        # over the whole grid, from the cells each node kept in one pass
        grid = ((0.0, 1.0), (0.0, 1.0), 3, 20000)
        full = raster(*grid)
        alphas, betas = full.alpha_axis, full.beta_axis

        def surrogate(alpha, beta):
            approx = exact_f1(alpha, beta) + (1.0 if fault == "ties" else 0.5)
            if fault == "nan":
                approx = np.where((alpha == alphas[1]) & (beta == betas[7]), np.nan, approx)
            return approx

        evaluated = []
        evaluate = regions._evaluate

        def capture(*args):
            evaluated.append(args)
            return evaluate(*args)

        monkeypatch.setattr(regions, "_evaluate", capture)
        monkeypatch.setattr(regions, "f1_approx", surrogate)
        report = compare_exact_vs_approx(*grid)["f1"]
        _, nodes = tree_sum(np.zeros(3 * 20000))
        assert len(nodes) > 1
        # once on the rows of each node (no node lies inside the rows of the
        # one before: a row is narrower than a node), and on nothing else
        rows = [slice(first // 3, (last - 1) // 3 + 1) for first, last in nodes]
        assert [args[1].tobytes() for args in evaluated] == [
            np.append(betas[r], betas[-1]).tobytes() for r in rows
        ]
        approx = surrogate(alphas, betas[:, None])
        dev = np.abs(full.f1 - approx)
        i, j = np.unravel_index(worst_order(dev), dev.shape)
        assert repr(report.worst_cells) == repr(tuple(zip(  # repr: nan != nan
            alphas[j].tolist(), betas[i].tolist(), full.f1[i, j].tolist(), approx[i, j].tolist()
        )))
        if fault == "ties":  # the lowest flat indices of a tie far wider than ten cells
            tie = np.flatnonzero(dev == dev.max())
            assert tie.size > 1000 and (i * 3 + j).tolist() == tie[:10].tolist()
        else:
            assert math.isnan(report.worst_cells[0][3]) and (i[0], j[0]) == (7, 1)
        assert np.float64(report.mean_abs_deviation).tobytes() == dev.mean().tobytes()
        assert np.float64(report.max_abs_deviation).tobytes() == dev.max().tobytes()

    @pytest.mark.parametrize("fault", ["ties", "nan"])
    def test_ties_and_nans_order_the_worst_cells_alike_on_every_dispatch(self, fault):
        # the order depends on no CPU feature: with the dispatched SIMD
        # targets this CPU has (numpy.show_runtime()'s "found") turned off,
        # a fresh process gives the same worst cells, bit for bit; the
        # whole-grid np.argsort that ordered ties and NaNs before gave others
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        found = [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]
        env = {**os.environ, "PYTHONPATH": str(Path(regions.__file__).resolve().parents[1])}
        outputs = []
        for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}):
            proc = subprocess.run([sys.executable, "-c", FAULTY_COMPARE, fault],
                                  env={**env, **disabled}, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and len(outputs[0]) == 2 * 10 * 4 * 8

    def test_disagreement_cells_listed(self):
        for report in compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), 50, 50).values():
            assert len(report.disagreements) == int(round((1 - report.sign_agreement) * 2500))


# the worst cells of f1 on the 3x20000 grid, as the hex of their float64
# bytes, with the surrogate of the tie and NaN tests (the fault is argv[1]).
# numpy's power takes other last bits on other SIMD targets, so the cubes
# are x * sqrt(x) here, whose bits are the same on all: only the choice and
# the order of the worst cells are left to differ
FAULTY_COMPARE = """
import sys
import numpy as np
from trapcc import regions

def cubes(alpha, beta):
    near, far = (0.5 - 0.5 * alpha) ** 2 + beta**2, (0.5 + 0.5 * alpha) ** 2 + beta**2
    return near * np.sqrt(near), far * np.sqrt(far)

alphas, betas = regions.cell_centers(0.0, 1.0, 3), regions.cell_centers(0.0, 1.0, 20000)

def surrogate(alpha, beta):
    approx = regions.exact_f1(alpha, beta) + (1.0 if sys.argv[1] == "ties" else 0.5)
    if sys.argv[1] == "nan":
        approx = np.where((alpha == alphas[1]) & (beta == betas[7]), np.nan, approx)
    return approx

regions.distance_cubes_values, regions.f1_approx = cubes, surrogate
report = regions.compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), 3, 20000)["f1"]
print(np.array(report.worst_cells).tobytes().hex(), end="")
"""


def tree_sum(values):
    """``values`` summed by :func:`regions._pairwise` with ``np.add.reduce``
    leaves, and the nodes it summed."""
    nodes = []

    def leaf(first, last):
        nodes.append((first, last))
        return np.add.reduce(values[first:last])

    return regions._pairwise(0, values.size, leaf), nodes


# the cell counts of the golden compare-approx grids
GOLDEN_SIZES = [1000 * 1000, 800 * 1250, 20000 * 3, 3 * 20000]


@st.composite
def summed_values(draw):
    """Values of numpy's pairwise-sum sizes: every size up to three runs of
    128 and some, and the golden sizes."""
    n = draw(st.one_of(st.integers(0, 3 * 128 + 50), st.sampled_from(GOLDEN_SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    if n and draw(st.booleans()):
        values = np.abs(values)  # deviations are never negative
    return values


class TestBlockedStats:
    """The sum, mean and maximum compare-approx takes a node of numpy's
    pairwise tree at a time, a block of the flat grid."""

    @given(summed_values(), st.sampled_from([128, 129, 136, 1000, 2**14]))
    @settings(max_examples=150, deadline=None)
    def test_mean_and_max_have_the_bits_of_the_whole_array(self, values, limit):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regions, "_BLOCK_CELLS", limit)
            total, nodes = tree_sum(values)
        assert np.float64(total).tobytes() == np.add.reduce(values).tobytes()
        # the nodes cover the values once, in order, each at most the limit
        assert [first for first, _ in nodes] == [0, *(last for _, last in nodes[:-1])]
        assert nodes[-1][1] == values.size
        assert all(last - first <= limit for first, last in nodes)
        if values.size:
            assert (total / values.size).tobytes() == np.mean(values).tobytes()
            # compare-approx's running maximum over the nodes
            maximum = -math.inf
            for first, last in nodes:
                maximum = np.maximum(maximum, values[first:last].max())
            assert maximum.tobytes() == np.max(values).tobytes()

    @pytest.mark.parametrize("limit", [1, 8, 127])
    def test_never_splits_a_run_numpy_sums_whole(self, monkeypatch, limit):
        # a limit under 128 still leaves each run of at most 128 values whole
        monkeypatch.setattr(regions, "_BLOCK_CELLS", limit)
        values = np.random.default_rng(limit).standard_normal(1000)
        total, nodes = tree_sum(values)
        assert total == np.add.reduce(values)
        assert [last - first for first, last in nodes] == [120, 128, 120, 128, 120, 128, 128, 128]

    def test_mean_of_negative_zeros_is_a_positive_zero(self, monkeypatch):
        monkeypatch.setattr(regions, "_BLOCK_CELLS", 128)
        values = np.full(300, -0.0)
        total, nodes = tree_sum(values)
        assert len(nodes) > 1
        mean = total / values.size
        assert mean.tobytes() == np.mean(values).tobytes() == np.float64(0.0).tobytes()

    @pytest.mark.parametrize("limit", [127, 128, 129, _BLOCK_CELLS])
    def test_mean_of_regular_blocks_of_a_golden_size(self, monkeypatch, limit):
        monkeypatch.setattr(regions, "_BLOCK_CELLS", limit)
        values = np.abs(np.random.default_rng(limit).standard_normal(GOLDEN_SIZES[0]))
        total, nodes = tree_sum(values)
        assert len(nodes) > 1
        assert total / values.size == np.mean(values)


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

    def test_unknown_axis_is_refused_without_values(self):
        with pytest.raises(ValueError, match="unknown axis 'gamma'"):
            trace_boundary("f1", "gamma", [])

    @pytest.mark.parametrize(
        "which, fixed_axis, fixed_values, search_interval, message",
        [
            ("f1", "alpha", [0.5, -0.5], None, r"alpha samples must lie in \(0, 1\], not -0.5"),
            ("f3", "alpha", [0.0], None, r"alpha samples .*, not 0.0"),
            ("f1", "alpha", [1.5], None, r"alpha samples .*, not 1.5"),
            ("f3", "beta", [0.0], None, "beta samples must be positive, not 0.0"),
            ("f1", "beta", [-1.0], None, r"beta samples .*, not -1.0"),
            ("f3", "beta", [0.5], (0.5, 1.5), r"alpha samples .*, not 1.5"),
            ("f3", "beta", [0.5], (0.0, 1.0), r"alpha samples .*, not 0.0"),
            ("f1", "alpha", [0.5], (-1.0, 1.0), r"beta samples .*, not -1.0"),
            ("f1", "alpha", [], (0.0, 1.0), r"beta samples .*, not 0.0"),
        ],
        ids=["alpha-negative", "alpha-zero", "alpha-above-1", "beta-zero", "beta-negative",
             "alpha-interval-above-1", "alpha-interval-at-0", "beta-interval-negative",
             "beta-interval-at-0-without-values"],
    )
    def test_refuses_values_off_the_plane_before_bisecting(
        self, monkeypatch, which, fixed_axis, fixed_values, search_interval, message
    ):
        # the parent bisected these: at alpha -0.5 it found a root at beta 0.87
        def never(*args, **kwargs):
            raise AssertionError("bisected off the plane")

        monkeypatch.setattr(regions, "bisect", never)
        with pytest.raises(ValueError, match=message):
            trace_boundary(which, fixed_axis, fixed_values, search_interval=search_interval)

    def test_accepts_the_edges_of_the_plane(self):
        # alpha = 1 and any positive beta lie on the plane; beta has no cap here
        curve = trace_boundary("f3", "alpha", [1.0], search_interval=(5e-324, 3.0))
        assert [sample.status for sample in curve.samples] == ["ok"]
        curve = trace_boundary("f1", "beta", [5e-324, 3.0], search_interval=(5e-324, 1.0))
        assert len(curve.samples) == 2

    @given(
        which=st.sampled_from(["f1", "f3"]),
        fixed_axis=st.sampled_from(["alpha", "beta"]),
        alpha=st.one_of(st.floats(5e-324, 1.0), st.sampled_from([5e-324, 1e-6, 0.5, 1.0])),
        beta=st.one_of(
            st.floats(5e-324, 1e130), st.sampled_from([5e-324, 1e-6, 1.0, 2.0, 1e50, 1e200])
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_each_line_has_the_bits_of_the_exact_sign_function(
        self, which, fixed_axis, alpha, beta
    ):
        # the written-out line of trace_boundary against exact_f1/exact_f3,
        # on the plane and at the ends of the default brackets (1e-6 and 1
        # or 2), past where the products overflow to inf and past where a
        # cube raises OverflowError
        exact = {"f1": exact_f1, "f3": exact_f3}[which]
        fixed, free = (alpha, beta) if fixed_axis == "alpha" else (beta, alpha)

        def outcome(f):
            try:
                value = f()
            except OverflowError:  # trace_boundary's caller sees it either way
                return "OverflowError"
            assert type(value) is float
            return value.hex()

        point = (fixed, free) if fixed_axis == "alpha" else (free, fixed)
        expected = outcome(lambda: float(exact(*point)))
        assert outcome(lambda: regions._exact_line(which, fixed_axis, fixed)(free)) == expected

    @pytest.mark.parametrize(
        "which, fixed_axis, fixed_values, search_interval, statuses",
        [
            ("f1", "alpha", [0.05, 0.5, 0.8, 1.0], (0.868, 2.0), "-oo-"),
            ("f1", "beta", [0.3, 0.9], None, "--"),
            ("f3", "alpha", [0.05, 0.5, 1.0], None, "ooo"),  # f3 is 0 at (1, 1e-6)
            ("f3", "beta", [0.1, 0.6, 0.9, 1.8], None, "oo--"),
        ],
        ids=["f1-alpha", "f1-beta", "f3-alpha", "f3-beta"],
    )
    def test_rows_are_bisect_on_the_same_line(
        self, which, fixed_axis, fixed_values, search_interval, statuses
    ):
        # each row holds the bits of bisect on the line through its fixed
        # value, and the exact sign function there; "o" is a root, "-" none
        exact = {"f1": exact_f1, "f3": exact_f3}[which]
        curve = trace_boundary(which, fixed_axis, fixed_values, search_interval=search_interval)
        lo, hi = search_interval or ((1e-6, 1.0) if fixed_axis == "beta" else (1e-6, 2.0))
        assert len(curve.samples) == len(fixed_values)
        for fixed, sample, status in zip(fixed_values, curve.samples, statuses):

            def line(free):
                return float(exact(*((fixed, free) if fixed_axis == "alpha" else (free, fixed))))

            root = bisect(line, lo, hi)
            assert sample.fixed == fixed
            if status == "-":
                assert root is None
                assert (sample.root, sample.f_value) == (None, None)
                assert sample.status == "no_sign_change"
            else:
                assert sample.status == "ok"
                assert sample.root.hex() == root.hex()
                assert sample.f_value.hex() == line(root).hex()
