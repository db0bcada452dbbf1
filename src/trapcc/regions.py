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

import itertools
import math
from typing import Callable, NamedTuple, Sequence

from ._numpy import np
from .geometry import BETA_MAX, distance_cubes_values
from .masses import REGION_LABELS, RegionLabel, is_degenerate, mass_values, region_code, sign_values

BISECTION_XTOL = 1e-12
AUDIT_SAMPLES = 1999
WORST_CELLS = 10
_BLOCK_CELLS = 2**14  # cells evaluated together: a block of rows, a node of compare-approx


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


def approx_coefficients(beta):
    """Coefficients ``(h0, h1, h2)`` of the published quartic surrogate
    f3aprox = h2 * alpha^4 + h1 * alpha^2 + h0, each a function of beta."""
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
    return h0, h1, h2


def f3_approx(alpha, beta):
    """Published quartic surrogate for f3."""
    h0, h1, h2 = approx_coefficients(beta)
    return h2 * alpha**4 + h1 * alpha**2 + h0


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
    h0, h1, h2 = approx_coefficients(beta)
    discriminant = h1**2 - 4.0 * h0 * h2
    if discriminant < 0.0:
        raise NegativeDiscriminantError(discriminant)
    radicand = -math.sqrt(discriminant) / (2.0 * h2) - h1 / (2.0 * h2)
    if radicand < 0.0:
        raise NegativeRadicandError("quartic root", radicand)
    return math.sqrt(radicand)


def bisect(
    f: Callable[[float], float], lo: float, hi: float, xtol: float = BISECTION_XTOL
) -> float | None:
    """Plain bisection, refined until the bracket is below ``xtol``: the
    root as a float, or None when ``f(lo)`` and ``f(hi)`` have one sign.

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
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        return None
    a, b, fa = lo, hi, f_lo
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa > 0.0) == (fm > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


_EXACT_FUNCTIONS = {"f1": exact_f1, "f3": exact_f3}


def _exact_line(which: str, fixed_axis: str, fixed) -> Callable[[float], float]:
    """``float(exact_f1(alpha, beta))`` (``which`` "f1") or that of
    ``exact_f3`` as a function of the free coordinate, with ``fixed_axis``
    held at ``fixed``, bit for bit.

    :func:`distance_cubes_values` and :func:`sign_values` are written out
    in their order of operations, the fixed coordinate's square is taken
    once, and an f1 line skips f2 and f3.
    """
    if fixed_axis == "alpha":
        alpha = fixed
        near, far = (0.5 - 0.5 * alpha) ** 2, (0.5 + 0.5 * alpha) ** 2

        def f1(beta):
            square = beta**2
            a, b = (near + square) ** 1.5, (far + square) ** 1.5
            return float(a + b - 2.0 * a * b)

        def f3(beta):
            square = beta**2
            a, b = (near + square) ** 1.5, (far + square) ** 1.5
            return float(a + b - 2.0 * a * b + alpha * (a - b))

    else:
        square = fixed**2

        def f1(alpha):
            a = ((0.5 - 0.5 * alpha) ** 2 + square) ** 1.5
            b = ((0.5 + 0.5 * alpha) ** 2 + square) ** 1.5
            return float(a + b - 2.0 * a * b)

        def f3(alpha):
            a = ((0.5 - 0.5 * alpha) ** 2 + square) ** 1.5
            b = ((0.5 + 0.5 * alpha) ** 2 + square) ** 1.5
            return float(a + b - 2.0 * a * b + alpha * (a - b))

    return f1 if which == "f1" else f3


class BoundarySample(NamedTuple):
    """One row of a traced boundary: the fixed coordinate, the located
    crossing (or None), the exact sign-function value at the crossing, and
    a status ('ok', 'no_sign_change', or 'domain_error:<reason>')."""

    fixed: float
    root: float | None
    f_value: float | None
    status: str


class BoundaryCurve(NamedTuple):
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

    With method='exact' each sample is a :func:`bisect` root along the
    free axis (default search interval: the full domain of that axis) and
    the exact sign function there; a fixed value or an interval end off
    the plane (see :func:`_check_plane`) raises ValueError first.  With
    method='published' the printed g1/g3 formulas are evaluated (fixed
    axis must be beta since they give alpha as a function of beta); the
    f_value recorded is the EXACT sign function at the published point,
    so the column doubles as an approximation-error report.
    """
    if which not in _EXACT_FUNCTIONS:
        raise ValueError(f"unknown sign function {which!r}; expected 'f1' or 'f3'")
    if fixed_axis not in ("alpha", "beta"):
        raise ValueError(f"unknown axis {fixed_axis!r}; expected 'alpha' or 'beta'")
    exact = _EXACT_FUNCTIONS[which]
    samples = []
    if method == "exact":
        if search_interval is None:
            search_interval = (1e-6, 1.0) if fixed_axis == "beta" else (1e-6, BETA_MAX)
        lo, hi = map(float, search_interval)
        ends = (lo, hi)
        _check_plane(*((fixed_values, ends) if fixed_axis == "alpha" else (ends, fixed_values)))
        for fixed in fixed_values:
            line = _exact_line(which, fixed_axis, fixed)
            root = bisect(line, lo, hi)
            samples.append(
                BoundarySample(fixed, None, None, "no_sign_change") if root is None
                else BoundarySample(fixed, root, line(root), "ok")
            )
        return BoundaryCurve(samples=tuple(samples), method="exact-rootfind")
    if method == "published":
        if fixed_axis != "beta":
            raise ValueError("published boundaries give alpha as a function of beta")
        formula = g1_published if which == "f1" else g3_published
        for beta in fixed_values:
            try:
                alpha = formula(beta)
            except ApproxDomainError as err:
                sample = BoundarySample(beta, None, None, f"domain_error:{type(err).__name__}")
            else:
                sample = BoundarySample(beta, alpha, float(exact(alpha, beta)), "ok")
            samples.append(sample)
        return BoundaryCurve(samples=tuple(samples), method="published-approximation")
    raise ValueError(f"unknown method {method!r}; expected 'exact' or 'published'")


class DomainAudit(NamedTuple):
    """Where each published boundary formula is real-valued on (0, 1),
    measured by scanning: intervals of consecutive valid samples, plus the
    failure reason per invalid run."""

    n_samples: int
    g1_intervals: tuple[tuple[float, float], ...]
    g3_intervals: tuple[tuple[float, float], ...]
    g1_failures: tuple[tuple[float, float, str], ...]
    g3_failures: tuple[tuple[float, float, str], ...]


def _scan_domain(formula: Callable[[float], float], betas: np.ndarray):
    betas = betas.tolist()
    status = []
    for beta in betas:
        try:
            formula(beta)
        except ApproxDomainError as err:
            which = getattr(err, "which", None)
            status.append(type(err).__name__ + (f":{which}" if which else ""))
        else:
            status.append("ok")
    intervals = []
    failures = []
    for state, run in itertools.groupby(zip(betas, status), key=lambda pair: pair[1]):
        run = [beta for beta, _ in run]
        if state == "ok":
            intervals.append((run[0], run[-1]))
        else:
            failures.append((run[0], run[-1], state))
    return tuple(intervals), tuple(failures)


def audit_published_domains() -> DomainAudit:
    """Scan AUDIT_SAMPLES cell-centred betas over (0, 1) and report where g1
    and g3 evaluate to real numbers.  No agreement target is required
    anywhere; this only measures."""
    betas = (np.arange(AUDIT_SAMPLES) + 0.5) / AUDIT_SAMPLES
    g1_intervals, g1_failures = _scan_domain(g1_published, betas)
    g3_intervals, g3_failures = _scan_domain(g3_published, betas)
    return DomainAudit(
        n_samples=AUDIT_SAMPLES,
        g1_intervals=g1_intervals,
        g3_intervals=g3_intervals,
        g1_failures=g1_failures,
        g3_failures=g3_failures,
    )


class RasterGrid(NamedTuple):
    """Cell-centred classification of beta rows of a rectangle of the
    parameter plane: the rows' betas, the exact sign functions f1 and f3,
    the masses, and ``labels``, which holds ``int8`` region codes: each
    cell's RegionLabel is ``REGION_LABELS[code]``.

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
    return _centers(lo, hi, n, np.arange(n))


def _centers(lo: float, hi: float, n: int, k) -> np.ndarray:
    """The centres of the cells ``k`` (an index array) of the ``n`` cells
    of [lo, hi], with the bits of ``cell_centers(lo, hi, n)[k]``."""
    if n < 1:
        raise ValueError("resolution must be at least 1")
    if not hi > lo:
        raise ValueError(f"empty range ({lo}, {hi})")
    step = (hi - lo) / n
    return lo + (k + 0.5) * step


def _check_plane(alphas, betas) -> None:
    """Raise ValueError unless each alpha lies in (0, 1] and each beta is
    positive: the plane that raster and trace_boundary sample."""
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha samples must lie in (0, 1], not {alpha!r}")
    for beta in betas:
        if not beta > 0.0:
            raise ValueError(f"beta samples must be positive, not {beta!r}")


def _grid_axes(alpha_range, beta_range, n_alpha: int, n_beta: int, rows=slice(0)):
    """The checked cell-centre alphas of a grid, and the betas of its beta
    rows ``rows`` (a slice or row indices; default none), then its top row's."""
    alphas = cell_centers(*alpha_range, n_alpha)
    ends = _centers(*beta_range, n_beta, np.array([0, n_beta - 1]))
    _check_plane(alphas[[0, -1]].tolist(), ends[:1].tolist())  # the centres increase
    k = np.arange(*rows.indices(n_beta)) if isinstance(rows, slice) else np.arange(n_beta)[rows]
    return alphas, np.append(_centers(*beta_range, n_beta, k), ends[1])


def row_blocks(n_alpha: int, n_beta: int):
    """Slices of consecutive beta rows, about _BLOCK_CELLS cells each and
    at least one row, that cover an ``n_beta`` by ``n_alpha`` grid in order."""
    rows = max(1, _BLOCK_CELLS // n_alpha)
    return [slice(start, min(start + rows, n_beta)) for start in range(0, n_beta, rows)]


def _evaluate(alphas, betas, values):
    """``a``, ``b`` and ``values(a, b, alpha)`` (:func:`sign_values`, or
    :func:`mass_values` for the masses too) on the grid of ``alphas`` and
    ``betas``, whose last is the grid's top row.

    Alpha goes in as a row and beta as a column, so a cell gets the same
    bits whichever rows are evaluated with it.  Raises OverflowError when
    any of these overflow on any row of the grid: the top row, where they
    are largest, is evaluated with every call.
    """
    try:
        with np.errstate(over="raise"):
            a, b = distance_cubes_values(alphas[None, :], betas[:, None])
            return a, b, values(a, b, alphas[None, :])
    except FloatingPointError as err:
        raise OverflowError(f"the sign functions overflow: {err}") from None


def raster(
    alpha_range: tuple[float, float],
    beta_range: tuple[float, float],
    n_alpha: int,
    n_beta: int,
    rows=slice(None),
) -> RasterGrid:
    """Classify the beta rows ``rows`` (a slice or an array of row indices;
    default all) of a cell-centred grid of the parameter rectangle.
    Degenerate cells get ``nan`` masses and the DEGENERATE code.

    A cell gets the same bits whichever rows are evaluated with it.
    Raises OverflowError when a distance cube or a mass of any row of the
    grid overflows, which only a beta range far outside the figures' can
    do.
    """
    alphas, betas = _grid_axes(alpha_range, beta_range, n_alpha, n_beta, rows)
    a, b, (m, M, f1, _, f3) = _evaluate(alphas, betas, mass_values)
    degenerate = is_degenerate(f3, a, b)[:-1]
    m = np.where(degenerate, np.nan, m[:-1])
    M = np.where(degenerate, np.nan, M[:-1])
    labels = region_code(m, M)
    labels[degenerate] = REGION_LABELS.index(RegionLabel.DEGENERATE)
    return RasterGrid(
        alpha_axis=alphas,
        beta_axis=betas[:-1],
        f1=f1[:-1],
        f3=f3[:-1],
        m=m,
        M=M,
        labels=labels,
    )


def _worst(dev):
    """Positions of the WORST_CELLS worst deviations of the flat ``dev``
    (all when fewer), worst first: NaN before every number, then the
    largest, and equal ones by ascending position.  numpy's partition
    sorts NaN last, so all above the WORST_CELLS-th worst are kept, and
    those equal to it fill the rest in order."""
    kth = dev.size - WORST_CELLS
    threshold = np.partition(dev, kth)[kth] if kth > 0 else -math.inf  # else all are kept
    if np.isnan(threshold):
        keep = np.flatnonzero(np.isnan(dev))[:WORST_CELLS]
    else:
        above = np.flatnonzero(~(dev <= threshold))  # and the NaNs
        keep = np.append(above, np.flatnonzero(dev == threshold)[: WORST_CELLS - above.size])
    top = dev[keep]
    return keep[np.lexsort((keep, -top, ~np.isnan(top)))]


def _pairwise(start: int, stop: int, leaf):
    """numpy's pairwise sum of the flat cells ``[start, stop)``, with
    ``leaf(first, last)`` the sum of each node of at most _BLOCK_CELLS
    cells, called on the nodes in order.

    numpy sums a run of at most 128 float64 values alone, so no such node
    is split, and splits a longer one in two halves, the first ending at a
    multiple of 8 values; the node sums are added in that tree's order, so
    a leaf that is ``np.add.reduce`` of its node gives ``np.add.reduce`` of
    the whole.
    """
    n = stop - start
    if n <= max(_BLOCK_CELLS, 128):
        return leaf(start, stop)
    half = n // 2 - n // 2 % 8
    return _pairwise(start, start + half, leaf) + _pairwise(start + half, stop, leaf)


class ApproxReport(NamedTuple):
    """Exact-versus-published comparison of one sign function over a raster
    grid: the fraction of cells where the signs agree, absolute deviation
    statistics, the (alpha, beta) of the disagreeing cells as the rows of
    a read-only ``(n, 2)`` float array in flat grid order, and the
    (alpha, beta, exact, approx) of the WORST_CELLS cells of largest
    absolute deviation, worst first: NaN first, equal ones in flat order."""

    sign_agreement: float
    max_abs_deviation: float
    mean_abs_deviation: float
    disagreements: np.ndarray
    worst_cells: tuple[tuple[float, float, float, float], ...]


def compare_exact_vs_approx(
    alpha_range: tuple[float, float],
    beta_range: tuple[float, float],
    n_alpha: int,
    n_beta: int,
) -> dict[str, ApproxReport]:
    """Compare the exact f1, f3 with the published surrogates on the grid
    :func:`raster` classifies, with its bits: one report each, under the
    keys ``"f1"`` and ``"f3"``.

    The flat grid is walked as numpy's pairwise sum walks it (see
    :func:`_pairwise`): the signs are evaluated on the beta rows each node
    touches, with :func:`raster`'s evaluator, and the node's cells are
    reduced into the statistics, which have the bits of whole-grid numpy.
    A node inside the rows evaluated last reuses them, so on rows wider
    than a node each row is evaluated at most twice.
    The worst cells are ordered by ``|exact - approx|``, NaN first, then
    largest first, and equal deviations by ascending flat cell index: each
    node keeps its WORST_CELLS worst (:func:`_worst`) with their values,
    and the worst of those, kept in node order, are the grid's.
    """
    alphas, top = _grid_axes(alpha_range, beta_range, n_alpha, n_beta)  # top: its row's beta
    size = n_alpha * n_beta
    agree = [0, 0]
    maximum = [-math.inf, -math.inf]
    cells = ([], [])  # the flat indices of each node's disagreeing cells
    worst = ([], [])  # (deviations, flat indices, exact, approx) of each node's worst cells
    held = [slice(0, 0), None]  # the rows evaluated last and their (exact, approx) pairs

    def leaf(first, last):
        start, stop = first // n_alpha, (last - 1) // n_alpha + 1
        if not held[0].start <= start < stop <= held[0].stop:  # else the nodes share rows
            held[:] = slice(start, stop), None  # the rows held before are dropped first
            betas = np.append(_centers(*beta_range, n_beta, np.arange(start, stop)), top)
            f1, _, f3 = _evaluate(alphas, betas, sign_values)[2]
            approx = f1_approx(alphas, betas[:-1, None]), f3_approx(alphas, betas[:-1, None])
            held[1] = tuple(zip((f1[:-1], f3[:-1]), approx))
        node = slice(first - held[0].start * n_alpha, last - held[0].start * n_alpha)
        sums = []
        for k, (exact, approx) in enumerate(held[1]):
            exact, approx = exact.ravel()[node], approx.ravel()[node]
            same = np.sign(exact) == np.sign(approx)
            agree[k] += int(np.count_nonzero(same))
            cells[k].append(np.flatnonzero(~same) + first)
            dev = np.abs(exact - approx)
            maximum[k] = np.maximum(maximum[k], dev.max())
            keep = _worst(dev)
            worst[k].append((dev[keep], keep + first, exact[keep], approx[keep]))
            sums.append(np.add.reduce(dev))
        return np.array(sums)

    sums = _pairwise(0, size, leaf)
    held.clear()

    def coordinates(flat):
        """The alphas and the betas of the flat cells ``flat``."""
        return alphas[flat % n_alpha], _centers(*beta_range, n_beta, flat // n_alpha)

    def report(k):
        dev, flat, exact, approx = (np.concatenate(column) for column in zip(*worst[k]))
        order = _worst(dev)  # equal deviations lie in flat order
        columns = (*coordinates(flat[order]), exact[order], approx[order])
        worst_cells = tuple(zip(*(column.tolist() for column in columns)))
        flat = np.concatenate(cells[k])
        cells[k].clear()
        disagreements = np.empty((flat.size, 2))  # no stacked copy
        disagreements[:, 0], disagreements[:, 1] = coordinates(flat)
        disagreements.flags.writeable = False
        return ApproxReport(
            # a count over the cell count: the same float as numpy's mean of a mask
            sign_agreement=agree[k] / size,
            max_abs_deviation=float(maximum[k]),
            mean_abs_deviation=float(sums[k] / size),
            disagreements=disagreements,
            worst_cells=worst_cells,
        )

    return {name: report(k) for k, name in enumerate(("f1", "f3"))}
