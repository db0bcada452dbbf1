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
from bisect import bisect_right
from typing import Callable, NamedTuple, Sequence

from ._numpy import np
from .geometry import BETA_MAX, distance_cubes_values
from .masses import REGION_LABELS, RegionLabel, is_degenerate, mass_values, region_code, sign_values

BISECTION_XTOL = 1e-12
AUDIT_SAMPLES = 1999
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
            if fixed_axis == "alpha":
                line = lambda beta: float(exact(fixed, beta))
            else:
                line = lambda alpha: float(exact(alpha, fixed))
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
    if n < 1:
        raise ValueError("resolution must be at least 1")
    if not hi > lo:
        raise ValueError(f"empty range ({lo}, {hi})")
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step


def _check_plane(alphas, betas) -> None:
    """Raise ValueError unless each alpha lies in (0, 1] and each beta is
    positive: the plane that raster and trace_boundary sample."""
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha samples must lie in (0, 1], not {alpha!r}")
    for beta in betas:
        if not beta > 0.0:
            raise ValueError(f"beta samples must be positive, not {beta!r}")


def _grid_axes(alpha_range, beta_range, n_alpha: int, n_beta: int):
    """The checked cell-centre axes of a grid."""
    alphas = cell_centers(*alpha_range, n_alpha)
    betas = cell_centers(*beta_range, n_beta)
    _check_plane(alphas[[0, -1]].tolist(), betas[:1].tolist())  # the centres increase
    return alphas, betas


def row_blocks(n_alpha: int, n_beta: int):
    """Slices of consecutive beta rows, about _BLOCK_CELLS cells each and
    at least one row, that cover an ``n_beta`` by ``n_alpha`` grid in order."""
    rows = max(1, _BLOCK_CELLS // n_alpha)
    return [slice(start, min(start + rows, n_beta)) for start in range(0, n_beta, rows)]


def _evaluate(alphas, betas, rows, values):
    """``a``, ``b`` and ``values(a, b, alpha)`` (:func:`sign_values`, or
    :func:`mass_values` for the masses too) on the beta rows ``rows`` of
    the grid of ``alphas`` and ``betas``, and last on its top row.

    Alpha goes in as a row and beta as a column, so a cell gets the same
    bits whichever rows are evaluated with it.  Raises OverflowError when
    any of these overflow on any row of the grid: the top row, where they
    are largest, is evaluated with every call.
    """
    column = np.append(betas[rows], betas[-1])[:, None]
    try:
        with np.errstate(over="raise"):
            a, b = distance_cubes_values(alphas[None, :], column)
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
    alphas, betas = _grid_axes(alpha_range, beta_range, n_alpha, n_beta)
    a, b, (m, M, f1, _, f3) = _evaluate(alphas, betas, rows, mass_values)
    degenerate = is_degenerate(f3, a, b)[:-1]
    m = np.where(degenerate, np.nan, m[:-1])
    M = np.where(degenerate, np.nan, M[:-1])
    labels = region_code(m, M)
    labels[degenerate] = REGION_LABELS.index(RegionLabel.DEGENERATE)
    return RasterGrid(
        alpha_axis=alphas,
        beta_axis=betas[rows],
        f1=f1[:-1],
        f3=f3[:-1],
        m=m,
        M=M,
        labels=labels,
    )


def _largest(values, count: int):
    """Indices of the ``count`` largest of the flat ``values``, largest
    first, or None when ``np.argsort`` would have to decide them.

    ``np.argpartition`` keeps the count + 1 largest and only those are
    sorted.  argsort orders equal values its own way, so a NaN or a tie
    among those count + 1, or fewer values than that, gives None.
    """
    if values.size < count + 1:
        return None
    kth = values.size - count - 1
    candidates = np.argpartition(values, kth)[kth:]
    top = values[candidates]
    if np.isnan(top).any() or np.unique(top).size < top.size:
        return None
    return candidates[np.argsort(top)[::-1][:count]]


def top_indices(values, count: int):
    """Flat indices of the ``count`` largest ``values``, largest first:
    always ``np.argsort(values.ravel())[::-1][:count]``, which decides only
    where :func:`_largest` cannot."""
    values = values.ravel()
    top = _largest(values, count)
    return np.argsort(values)[::-1][:count] if top is None else top


class _BlockedStats:
    """The maximum, the mean and the ``count`` largest values of a flat
    float64 array that arrives in consecutive blocks, ending at ``ends``,
    with the bits numpy gives the whole array; no array of the whole size
    is held.

    numpy sums float64 pairwise: a run of at most 128 values is summed
    alone, and a longer one is split in two halves, the first ending at a
    multiple of 8 values; ``np.add.reduce`` is ``0.0`` plus that sum, and
    ``np.mean`` divides it by the size.  The tree depends only on the size
    and the ends are known first, so each run of the tree that lies inside
    one block is one ``np.add.reduce`` of it, a run of at most 128 values
    that crosses an end waits for the blocks it needs, and the run sums
    are added in tree order at the end.

    Each block keeps its count + 1 largest values and their flat indices;
    :meth:`top` picks the largest from those by :func:`_largest`'s rule.
    """

    def __init__(self, ends: Sequence[int], count: int):
        self.size = ends[-1] if ends else 0
        self.count = count
        self.runs = []  # (start, stop) of each run, in order
        self.tree = self._split(0, self.size, ends[:-1]) if self.size else None
        self.sums = []
        self.waiting = []  # the values of a run that crosses a block end
        self.start = 0  # of the next block
        self.maximum = -math.inf
        self.values = [np.empty(0)]
        self.indices = [np.empty(0, dtype=np.intp)]

    def _split(self, start: int, stop: int, cuts: Sequence[int]):
        """The pairwise-sum tree of [start, stop) down to the runs summed
        whole: the index of a run, or a pair of subtrees."""
        n = stop - start
        cut = bisect_right(cuts, start)
        if n <= 128 or cut == len(cuts) or cuts[cut] >= stop:
            self.runs.append((start, stop))
            return len(self.runs) - 1
        half = n // 2 - n // 2 % 8
        return self._split(start, start + half, cuts), self._split(start + half, stop, cuts)

    def add(self, block) -> None:
        """Take the next block of values, a flat float64 array."""
        start, stop = self.start, self.start + block.size
        self.start = stop
        self.maximum = np.maximum(self.maximum, block.max())
        kth = max(block.size - self.count - 1, 0)
        keep = np.argpartition(block, kth)[kth:]
        self.values.append(block[keep])
        self.indices.append(keep + start)
        runs, sums = self.runs, self.sums
        while len(sums) < len(runs) and runs[len(sums)][1] <= stop:
            first, last = runs[len(sums)]
            if first >= start:
                sums.append(float(np.add.reduce(block[first - start:last - start])))
            else:
                self.waiting.append(block[:last - start])
                sums.append(float(np.add.reduce(np.concatenate(self.waiting))))
                self.waiting = []
        if len(sums) < len(runs) and runs[len(sums)][0] < stop:
            self.waiting.append(block[max(runs[len(sums)][0] - start, 0):].copy())

    def mean(self) -> float:
        def total(node):
            return self.sums[node] if isinstance(node, int) else total(node[0]) + total(node[1])

        whole = total(self.tree) if self.size else 0.0
        return float(np.float64(whole) / self.size)  # nan for no values, as np.mean

    def top(self):
        """Flat indices of the ``count`` largest values, largest first, or
        None when a NaN or a tie among the count + 1 largest, or fewer
        values than that, leaves their order to ``np.argsort``."""
        values = np.concatenate(self.values)
        top = _largest(values, self.count)
        return None if top is None else np.concatenate(self.indices)[top]


class ApproxReport(NamedTuple):
    """Exact-versus-published comparison of one sign function over a raster
    grid: the fraction of cells where the signs agree, absolute deviation
    statistics, the (alpha, beta) of the disagreeing cells, and the
    (alpha, beta, exact, approx) of the WORST_CELLS cells of largest
    absolute deviation, largest first."""

    sign_agreement: float
    max_abs_deviation: float
    mean_abs_deviation: float
    disagreements: tuple[tuple[float, float], ...]
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

    The signs are evaluated a block of beta rows at a time, as
    :func:`raster` evaluates them, and each block is reduced into the
    statistics (see :class:`_BlockedStats`), which have the bits of
    whole-grid numpy; only when ties, NaNs or too few cells leave the
    worst cells' order to ``np.argsort`` is a whole ``|exact - approx|``
    grid built again.
    The exact and approximate values of the worst cells are evaluated
    again on their rows.
    """
    alphas, betas = _grid_axes(alpha_range, beta_range, n_alpha, n_beta)
    blocks = row_blocks(n_alpha, n_beta)
    ends = [rows.stop * n_alpha for rows in blocks]
    stats = (_BlockedStats(ends, WORST_CELLS), _BlockedStats(ends, WORST_CELLS))
    agree = [0, 0]
    cells = ([], [])

    def pairs(rows):
        """(exact, approx) of f1 and of f3 on the beta rows ``rows``."""
        f1, _, f3 = _evaluate(alphas, betas, rows, sign_values)[2]
        column = betas[rows, None]
        return (f1[:-1], f1_approx(alphas, column)), (f3[:-1], f3_approx(alphas, column))

    for rows in blocks:
        for k, (exact, approx) in enumerate(pairs(rows)):
            same = np.sign(exact) == np.sign(approx)
            agree[k] += int(np.count_nonzero(same))
            block_rows, cols = np.nonzero(~same)
            cells[k].extend(zip(alphas[cols].tolist(), betas[rows][block_rows].tolist()))
            stats[k].add(np.abs(exact - approx).ravel())

    def report(k):
        top = stats[k].top()
        if top is None:  # argsort orders them, over the whole grid
            whole = [np.abs(np.subtract(*pairs(rows)[k])) for rows in blocks]
            top = top_indices(np.concatenate(whole, axis=None), WORST_CELLS)
        i, j = np.unravel_index(top, (n_beta, n_alpha))
        exact, approx = pairs(i)[k]
        cell = np.arange(i.size), j
        return ApproxReport(
            # a count over the cell count: the same float as numpy's mean of a mask
            sign_agreement=agree[k] / (n_alpha * n_beta),
            max_abs_deviation=float(stats[k].maximum),
            mean_abs_deviation=stats[k].mean(),
            disagreements=tuple(cells[k]),
            worst_cells=tuple(
                zip(alphas[j].tolist(), betas[i].tolist(), exact[cell].tolist(),
                    approx[cell].tolist())
            ),
        )

    return {name: report(k) for k, name in enumerate(("f1", "f3"))}
