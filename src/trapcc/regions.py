"""Classification of the (alpha, beta) parameter plane.

Two kinds of boundary are provided side by side:

* exact boundaries, found by bisection on the exact sign functions f1 and
  f3 (these decide where each mass is positive);
* the published closed-form approximations: polynomial surrogates f1aprox
  and f3aprox and the boundary formulas g1 and g3 built from them.

The published formulas are implemented verbatim, coefficients as printed,
for audit purposes only: g1's denominator radicand is negative on much of
(0, 1), so every region decision in this package is made from the exact
signs.  The audit helpers measure, rather than assume, where the published
expressions are real-valued and how well they track the exact zero sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._numpy import np
from .geometry import distance_cubes_values
from .masses import (
    DEGENERACY_TOL,
    RegionLabel,
    is_degenerate,
    mass_values,
    region_label,
    sign_values,
)

BISECTION_XTOL = 1e-12
WORST_CELLS = 10
_BLOCK_CELLS = 2**14  # cells per block of rows evaluated together


class ApproxDomainError(ValueError):
    """A published boundary formula left its real domain."""


class NegativeRadicandError(ApproxDomainError):
    def __init__(self, which: str, value: float):
        super().__init__(f"negative radicand in {which}: {value!r}")
        self.which = which
        self.value = value


class NegativeDiscriminantError(ApproxDomainError):
    def __init__(self, value: float):
        super().__init__(f"negative discriminant: {value!r}")
        self.value = value


def exact_f1(alpha, beta):
    """Exact f1 = a + b - 2ab; scalars or arrays."""
    a, b = distance_cubes_values(alpha, beta)
    return sign_values(a, b, alpha)[0]


def exact_f3(alpha, beta):
    """Exact f3 = f1 + alpha * (a - b); scalars or arrays."""
    a, b = distance_cubes_values(alpha, beta)
    return sign_values(a, b, alpha)[2]


def f1_approx(alpha, beta):
    """Published polynomial surrogate for f1, coefficients as printed."""
    root = np.sqrt(beta**2 + 0.25)
    quad = -1.5 * beta**4 + 0.75 * beta**2 / root + 0.375 / root + 0.09375
    const = (
        -2.0 * beta**6
        - 1.5 * beta**4
        + 2.0 * root * beta**2
        - 0.375 * beta**2
        + 0.5 * root
        - 0.03125
    )
    return quad * alpha**2 + const


@dataclass(frozen=True)
class ApproxCoefficients:
    """Coefficients of the published quartic surrogate
    f3aprox = h2 * alpha^4 + h1 * alpha^2 + h0, each a function of beta."""

    h0: float
    h1: float
    h2: float


def approx_coefficients(beta) -> ApproxCoefficients:
    # both are the IEEE square root; math.sqrt keeps the scalar g3 path
    # free of the numpy import
    root = math.sqrt(beta**2 + 0.25) if isinstance(beta, float) else np.sqrt(beta**2 + 0.25)
    h0 = -2.0 * beta**6 - 1.5 * beta**4 + 2.0 * (beta**2 + 0.25) ** 1.5 - 0.38 * beta**2 - 0.03
    h1 = -1.5 * beta**4 - 0.75 * beta**2 / root + 0.1
    h2 = (
        -0.375 * beta**6
        - 0.09 * beta**4
        + (-0.19 * root - 0.023) * beta**2
        - 0.031 * root
        + 0.047 * beta**4 / root
        - 0.006
    ) / (beta**2 + 0.25) ** 2
    return ApproxCoefficients(h0=h0, h1=h1, h2=h2)


def f3_approx(alpha, beta):
    """Published quartic surrogate for f3."""
    c = approx_coefficients(beta)
    return c.h2 * alpha**4 + c.h1 * alpha**2 + c.h0


def g1_published(beta: float) -> float:
    """The printed closed-form boundary alpha = g1(beta) of the f1 > 0
    region, evaluated verbatim.

    Raises
    ------
    NegativeRadicandError
        Whenever either radicand is negative, reporting which one and its
        value.  This happens on all of (0, 1): the two radicands are never
        simultaneously non-negative there, so the printed expression is
        audit material, not an operational boundary.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("g1 is defined for 0 < beta < 1")
    root = math.sqrt(beta**2 + 0.25)
    numerator_radicand = (
        -2.0 * beta**6
        - 1.5 * beta**4
        + 2.0 * (beta**2 + 0.25) ** 1.5
        - 0.375 * beta**2
        - 0.03125
    )
    denominator_radicand = 1.5 * beta**4 + (-0.75 * beta**2 - 0.375) / root - 0.09375
    if numerator_radicand < 0.0:
        raise NegativeRadicandError("numerator", numerator_radicand)
    if denominator_radicand < 0.0:
        raise NegativeRadicandError("denominator", denominator_radicand)
    return math.sqrt(numerator_radicand) / math.sqrt(denominator_radicand)


def g3_published(beta: float) -> float:
    """The printed quartic-root boundary alpha = g3(beta) of the f3 > 0
    region: the selected root of f3aprox(alpha, beta) = 0.

    Raises
    ------
    NegativeDiscriminantError
        When h1^2 - 4*h0*h2 < 0.
    NegativeRadicandError
        When the selected quartic root is negative before the final square
        root.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("g3 is defined for 0 < beta < 1")
    c = approx_coefficients(beta)
    discriminant = c.h1**2 - 4.0 * c.h0 * c.h2
    if discriminant < 0.0:
        raise NegativeDiscriminantError(discriminant)
    radicand = -math.sqrt(discriminant) / (2.0 * c.h2) - c.h1 / (2.0 * c.h2)
    if radicand < 0.0:
        raise NegativeRadicandError("quartic root", radicand)
    return math.sqrt(radicand)


@dataclass(frozen=True)
class RootSearch:
    """Outcome of a bracketed root search: ``root`` is None when the
    endpoint values ``f_lo`` / ``f_hi`` do not change sign."""

    root: float | None
    f_root: float | None
    f_lo: float
    f_hi: float


def bisect(f: Callable[[float], float], lo: float, hi: float, xtol: float = BISECTION_XTOL) -> RootSearch:
    """Plain bisection, refined until the bracket is below ``xtol``.

    Raises ValueError on an invalid interval, or when ``f`` is NaN at an
    endpoint (a NaN has no sign to bracket a root with).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid search interval [{lo}, {hi}]")
    f_lo = f(lo)
    f_hi = f(hi)
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise ValueError(f"f is NaN at an endpoint of [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}")
    if f_lo == 0.0:
        return RootSearch(root=lo, f_root=0.0, f_lo=f_lo, f_hi=f_hi)
    if f_hi == 0.0:
        return RootSearch(root=hi, f_root=0.0, f_lo=f_lo, f_hi=f_hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        return RootSearch(root=None, f_root=None, f_lo=f_lo, f_hi=f_hi)
    a, b, fa = lo, hi, f_lo
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0.0:
            return RootSearch(root=mid, f_root=0.0, f_lo=f_lo, f_hi=f_hi)
        if (fa > 0.0) == (fm > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    root = 0.5 * (a + b)
    return RootSearch(root=root, f_root=f(root), f_lo=f_lo, f_hi=f_hi)


_EXACT_FUNCTIONS = {"f1": exact_f1, "f3": exact_f3}


def exact_boundary(
    which: str,
    fixed_axis: str,
    fixed_value: float,
    search_interval: tuple[float, float],
    xtol: float = BISECTION_XTOL,
) -> RootSearch:
    """Bisection root of the exact f1 or f3 along one axis.

    ``fixed_axis`` names the axis held constant ('alpha' or 'beta'); the
    search runs over the other axis on ``search_interval``.  Returns a
    no-sign-change result (root None, endpoint values filled in) when the
    bracket does not straddle a zero.
    """
    if which not in _EXACT_FUNCTIONS:
        raise ValueError(f"unknown sign function {which!r}; expected 'f1' or 'f3'")
    if fixed_axis not in ("alpha", "beta"):
        raise ValueError(f"unknown axis {fixed_axis!r}; expected 'alpha' or 'beta'")
    func = _EXACT_FUNCTIONS[which]
    if fixed_axis == "alpha":
        line = lambda beta: float(func(fixed_value, beta))
    else:
        line = lambda alpha: float(func(alpha, fixed_value))
    lo, hi = search_interval
    return bisect(line, float(lo), float(hi), xtol=xtol)


@dataclass(frozen=True)
class BoundarySample:
    """One row of a traced boundary: the fixed coordinate, the located
    crossing (or None), the exact sign-function value at the crossing, and
    a status ('ok', 'no_sign_change', or 'domain_error:<reason>')."""

    fixed: float
    root: float | None
    f_value: float | None
    status: str


@dataclass(frozen=True)
class BoundaryCurve:
    samples: tuple[BoundarySample, ...]
    method: str  # "exact-rootfind" | "published-approximation"


def trace_boundary(
    which: str,
    fixed_axis: str,
    fixed_values: Sequence[float],
    method: str = "exact",
    search_interval: tuple[float, float] | None = None,
) -> BoundaryCurve:
    """Boundary samples for a list of fixed coordinates.

    With method='exact' each sample is a bisection root along the free
    axis (default search interval: the full domain of that axis).  With
    method='published' the printed g1/g3 formulas are evaluated (fixed
    axis must be beta since they give alpha as a function of beta); the
    f_value recorded is the EXACT sign function at the published point,
    so the column doubles as an approximation-error report.
    """
    if which not in _EXACT_FUNCTIONS:
        raise ValueError(f"unknown sign function {which!r}; expected 'f1' or 'f3'")
    samples = []
    if method == "exact":
        if search_interval is None:
            search_interval = (1e-6, 1.0) if fixed_axis == "beta" else (1e-6, 2.0)
        for fixed in fixed_values:
            result = exact_boundary(which, fixed_axis, fixed, search_interval)
            if result.root is None:
                samples.append(
                    BoundarySample(fixed=fixed, root=None, f_value=None, status="no_sign_change")
                )
            else:
                samples.append(
                    BoundarySample(
                        fixed=fixed, root=result.root, f_value=result.f_root, status="ok"
                    )
                )
        return BoundaryCurve(samples=tuple(samples), method="exact-rootfind")
    if method == "published":
        if fixed_axis != "beta":
            raise ValueError("published boundaries give alpha as a function of beta")
        formula = g1_published if which == "f1" else g3_published
        exact = _EXACT_FUNCTIONS[which]
        for beta in fixed_values:
            try:
                alpha = formula(beta)
            except ApproxDomainError as err:
                samples.append(
                    BoundarySample(
                        fixed=beta,
                        root=None,
                        f_value=None,
                        status=f"domain_error:{type(err).__name__}",
                    )
                )
            else:
                samples.append(
                    BoundarySample(
                        fixed=beta,
                        root=alpha,
                        f_value=float(exact(alpha, beta)),
                        status="ok",
                    )
                )
        return BoundaryCurve(samples=tuple(samples), method="published-approximation")
    raise ValueError(f"unknown method {method!r}; expected 'exact' or 'published'")


@dataclass(frozen=True)
class DomainAudit:
    """Where each published boundary formula is real-valued on (0, 1),
    measured by scanning: intervals of consecutive valid samples, plus the
    failure reason per invalid run."""

    n_samples: int
    g1_intervals: tuple[tuple[float, float], ...]
    g3_intervals: tuple[tuple[float, float], ...]
    g1_failures: tuple[tuple[float, float, str], ...]
    g3_failures: tuple[tuple[float, float, str], ...]


def _scan_domain(formula: Callable[[float], float], betas: np.ndarray):
    status = []
    for beta in betas:
        try:
            formula(float(beta))
        except ApproxDomainError as err:
            which = getattr(err, "which", None)
            status.append(type(err).__name__ + (f":{which}" if which else ""))
        else:
            status.append("ok")
    intervals = []
    failures = []
    run_start = 0
    for i in range(1, len(betas) + 1):
        if i == len(betas) or status[i] != status[run_start]:
            lo, hi = float(betas[run_start]), float(betas[i - 1])
            if status[run_start] == "ok":
                intervals.append((lo, hi))
            else:
                failures.append((lo, hi, status[run_start]))
            run_start = i
    return tuple(intervals), tuple(failures)


def audit_published_domains(n_samples: int = 1999) -> DomainAudit:
    """Scan beta over (0, 1) and report where g1 and g3 evaluate to real
    numbers.  No agreement target is required anywhere; this only measures."""
    betas = (np.arange(n_samples) + 0.5) / n_samples
    g1_intervals, g1_failures = _scan_domain(g1_published, betas)
    g3_intervals, g3_failures = _scan_domain(g3_published, betas)
    return DomainAudit(
        n_samples=n_samples,
        g1_intervals=g1_intervals,
        g3_intervals=g3_intervals,
        g1_failures=g1_failures,
        g3_failures=g3_failures,
    )


@dataclass(frozen=True, eq=False)
class RasterGrid:
    """Cell-centred classification of a rectangle of the parameter plane:
    the exact sign functions f1 and f3, the masses, and ``labels``, which
    holds RegionLabel members.

    Arrays are indexed [beta_row, alpha_column]; beta is the vertical axis
    of the reproduced figures.
    """

    alpha_axis: np.ndarray
    beta_axis: np.ndarray
    f1: np.ndarray
    f3: np.ndarray
    m: np.ndarray
    M: np.ndarray
    labels: np.ndarray


def cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """n cell-centre coordinates of [lo, hi]: open intervals are sampled
    strictly inside, matching the raster convention used everywhere."""
    if n < 1:
        raise ValueError("resolution must be at least 1")
    if not hi > lo:
        raise ValueError(f"empty range ({lo}, {hi})")
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step


def _grid_axes(alpha_range, beta_range, n_alpha: int, n_beta: int):
    """The checked cell-centre axes of a grid."""
    alphas = cell_centers(*alpha_range, n_alpha)
    betas = cell_centers(*beta_range, n_beta)
    if alphas[0] <= 0.0 or alphas[-1] > 1.0:
        raise ValueError("alpha samples must lie in (0, 1]")
    if betas[0] <= 0.0:
        raise ValueError("beta samples must be positive")
    return alphas, betas


def row_blocks(n_alpha: int, n_beta: int):
    """Slices of consecutive beta rows, about _BLOCK_CELLS cells each and
    at least one row, that cover an ``n_beta`` by ``n_alpha`` grid in order."""
    rows = max(1, _BLOCK_CELLS // n_alpha)
    return [slice(start, min(start + rows, n_beta)) for start in range(0, n_beta, rows)]


def _exact_signs(alphas, betas):
    """Exact f1 and f3 with alpha going in as a row and beta as a column:
    every cell gets the same elementwise operations as on a full meshgrid,
    so the same bits, whichever rows are evaluated together."""
    a, b = distance_cubes_values(alphas, betas)
    f1, _, f3 = sign_values(a, b, alphas)
    return f1, f3


def raster(
    alpha_range: tuple[float, float],
    beta_range: tuple[float, float],
    n_alpha: int,
    n_beta: int,
    tol: float = DEGENERACY_TOL,
) -> RasterGrid:
    """Classify a cell-centred grid of the parameter rectangle, every cell
    in one vectorised pass.  Degenerate cells get ``nan`` masses and the
    DEGENERATE label.

    Raises OverflowError when a distance cube or a mass overflows, which
    only a beta range far outside the figures' can do.
    """
    alphas, betas = _grid_axes(alpha_range, beta_range, n_alpha, n_beta)
    try:
        with np.errstate(over="raise"):
            a, b = distance_cubes_values(alphas[None, :], betas[:, None])
            m, M, f1, _, f3 = mass_values(a, b, alphas[None, :])
            degenerate = is_degenerate(f3, a, b, tol)
    except FloatingPointError as err:
        raise OverflowError(f"the sign functions overflow: {err}") from None
    m = np.where(degenerate, np.nan, m)
    M = np.where(degenerate, np.nan, M)
    labels = region_label(m, M)
    labels[degenerate] = RegionLabel.DEGENERATE
    return RasterGrid(
        alpha_axis=alphas,
        beta_axis=betas,
        f1=f1,
        f3=f3,
        m=m,
        M=M,
        labels=labels,
    )


def top_indices(values, count: int):
    """Flat indices of the ``count`` largest ``values``, largest first:
    always ``np.argsort(values.ravel())[::-1][:count]``.

    ``np.argpartition`` keeps the count + 1 largest and only those are
    sorted.  argsort orders equal values its own way, so when a NaN or a
    tie is among those count + 1 the full argsort decides.
    """
    values = values.ravel()
    if values.size > count + 1:
        kth = values.size - count - 1
        candidates = np.argpartition(values, kth)[kth:]
        top = values[candidates]
        if not np.isnan(top).any() and np.unique(top).size == top.size:
            return candidates[np.argsort(top)[::-1][:count]]
    return np.argsort(values)[::-1][:count]


@dataclass(frozen=True, eq=False)
class ApproxReport:
    """Exact-versus-published comparison over a raster grid: sign agreement
    fractions, absolute deviation statistics, the disagreeing cells, and
    the (alpha, beta, exact, approx) of the WORST_CELLS cells of largest
    absolute deviation, largest first."""

    f1_sign_agreement: float
    f3_sign_agreement: float
    f1_max_abs_deviation: float
    f1_mean_abs_deviation: float
    f3_max_abs_deviation: float
    f3_mean_abs_deviation: float
    f1_disagreements: tuple[tuple[float, float], ...]
    f3_disagreements: tuple[tuple[float, float], ...]
    f1_worst_cells: tuple[tuple[float, float, float, float], ...]
    f3_worst_cells: tuple[tuple[float, float, float, float], ...]


def compare_exact_vs_approx(
    alpha_range: tuple[float, float],
    beta_range: tuple[float, float],
    n_alpha: int,
    n_beta: int,
) -> ApproxReport:
    """Compare the exact f1, f3 with the published surrogates on the grid
    :func:`raster` classifies, with its bits.

    The grid is evaluated a block of beta rows at a time; only the two
    ``|exact - approx|`` grids are kept whole, so the mean keeps numpy's
    pairwise sum over the full grid and the worst cells their order.  The
    exact and approximate values of the worst cells are evaluated again
    on their rows.
    """
    alphas, betas = _grid_axes(alpha_range, beta_range, n_alpha, n_beta)
    row = alphas[None, :]
    surrogates = (f1_approx, f3_approx)
    agree = [0, 0]
    cells = ([], [])
    dev = (np.empty((n_beta, n_alpha)), np.empty((n_beta, n_alpha)))
    for rows in row_blocks(n_alpha, n_beta):
        column = betas[rows, None]
        for k, exact in enumerate(_exact_signs(row, column)):
            approx = surrogates[k](row, column)
            same = np.sign(exact) == np.sign(approx)
            agree[k] += int(np.count_nonzero(same))
            block_rows, cols = np.nonzero(~same)
            cells[k].extend(zip(alphas[cols].tolist(), column[block_rows, 0].tolist()))
            np.abs(exact - approx, out=dev[k][rows])

    def worst_cells(k):
        i, j = np.unravel_index(top_indices(dev[k], WORST_CELLS), dev[k].shape)
        column = betas[i, None]
        cell = np.arange(i.size), j
        exact = _exact_signs(row, column)[k][cell]
        approx = surrogates[k](row, column)[cell]
        return tuple(zip(alphas[j].tolist(), betas[i].tolist(), exact.tolist(), approx.tolist()))

    # a count over the cell count: the same float as numpy's mean of a mask
    size = n_alpha * n_beta
    return ApproxReport(
        f1_sign_agreement=agree[0] / size,
        f3_sign_agreement=agree[1] / size,
        f1_max_abs_deviation=float(dev[0].max()),
        f1_mean_abs_deviation=float(dev[0].mean()),
        f3_max_abs_deviation=float(dev[1].max()),
        f3_mean_abs_deviation=float(dev[1].mean()),
        f1_disagreements=tuple(cells[0]),
        f3_disagreements=tuple(cells[1]),
        f1_worst_cells=worst_cells(0),
        f3_worst_cells=worst_cells(1),
    )
