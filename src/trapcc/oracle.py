"""Generic planar N-body central-configuration checker.

A configuration is central when every body's gravitational acceleration is
proportional to its position relative to the centre of mass, with a single
proportionality constant lambda:

    sum_{j != k} m_j (r_j - r_k) / |r_j - r_k|^3  =  -lambda (r_k - c)

This module is deliberately model independent: it knows nothing about the
trapezoid family and simply measures the defect of that equation for any
:class:`PlanarSystem`, its masses a float tuple and its positions
``(x, y)`` float tuples, with G = 1.  Negative masses are allowed (sign
analysis of the mass formulas needs them); only non-finite values, a total
mass that vanishes to rounding or coincident bodies are rejected.  Points
such as the centre of mass are ``(x, y)`` float tuples too.

The checks, and the RK4 step of :mod:`trapcc.dynamics`, run on Python
floats in straight-line code generated per body count (:func:`_kernels`),
with correctly rounded operations only (products, sums, quotients and
square roots), so their bits are the same on every IEEE CPU and equal
those of the numpy array code kept in ``tests/array_reference.py``.  A
check of fewer than 8 bodies never executes numpy.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, NamedTuple

from ._numpy import np
from .geometry import TrapezoidParams, build_configuration

MIN_SEPARATION = 1e-9
DEFAULT_CC_TOL = 1e-10
MAX_BODIES = 90  # the most bodies of a system: its kernels' compile peaks at about 250 MB


class CoincidentBodiesError(ValueError):
    """Two bodies of a system are closer than the separation it allows."""


class PlanarSystem(
    NamedTuple("PlanarSystem", [
        ("masses", "tuple[float, ...]"), ("positions", "tuple[tuple[float, float], ...]"),
    ])
):
    """An ordered list of point masses in the plane, G = 1: the masses as
    a float tuple and the positions as ``(x, y)`` float tuples, copied
    from the arguments (lists, tuples or arrays).

    Masses and positions must be finite, positions pairwise distinct
    (separation above 1e-9) and the total mass must not vanish.  Masses may
    carry either sign.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, masses, positions):
        masses, positions = _bodies(masses, positions)
        coords = _flat(positions)
        _check_bodies(masses, coords)
        # the centre of mass divides by a plain float sum of the masses,
        # which is only known to about n * eps * sum |m|: a total inside
        # that error vanishes as far as the centre can tell
        total = math.fsum(masses)
        noise = len(masses) * sys.float_info.epsilon * math.fsum(map(abs, masses))
        if abs(total) <= noise:
            raise ValueError(f"total mass must not vanish: {total!r} is within rounding of 0")
        nearest = _min_separation(coords)
        if nearest < MIN_SEPARATION:
            raise CoincidentBodiesError(
                f"bodies closer than {MIN_SEPARATION:g}: min separation {nearest:.3e}"
            )
        return super().__new__(cls, masses, positions)


def _bodies(masses, positions, *vectors) -> tuple:
    """``masses`` as a float tuple, and ``positions`` and each of
    ``vectors`` as tuples of float tuples, copied from lists, tuples or
    arrays.  Raise ValueError unless there is one ``(x, y)`` position per
    mass."""
    # an array as nested lists, so that each item is a float or a list
    masses, *vectors = (
        v.tolist() if hasattr(v, "tolist") else v for v in (masses, positions, *vectors)
    )
    try:
        masses = tuple(map(float, masses))
        positions, *vectors = (tuple(tuple(map(float, v)) for v in items) for items in vectors)
    except TypeError as err:  # a number where a sequence belongs, or the reverse
        raise ValueError(f"one (x, y) position per mass required: {err}") from None
    if len(positions) != len(masses) or any(len(p) != 2 for p in positions):
        raise ValueError(
            f"one (x, y) position per mass required: {len(masses)} masses, "
            f"{len(positions)} positions of {sorted({len(p) for p in positions})} coordinates"
        )
    return (masses, positions, *vectors)


def _flat(positions) -> list[float]:
    """The coordinates ``[x_0, y_0, x_1, y_1, ...]`` of ``(x, y)`` pairs."""
    return [c for position in positions for c in position]


def _check_bodies(masses, coords, velocities=None) -> None:
    """Raise ValueError unless there are 2 <= N <= MAX_BODIES masses and
    the masses, the flat coordinates and, when given, the flat velocities
    are all finite.  The caller has checked that there are 2N coordinates
    and velocities; nothing is compiled before these checks."""
    if len(masses) < 2:
        raise ValueError("at least 2 bodies required")
    if len(masses) > MAX_BODIES:
        raise ValueError(f"at most {MAX_BODIES} bodies allowed, got {len(masses)}")
    for name, values in (("masses", masses), ("positions", coords), ("velocities", velocities)):
        if values is not None and not all(map(math.isfinite, values)):
            raise ValueError(f"{name} must be finite")


class ResidualReport(NamedTuple):
    """Everything measured in one central-configuration check.

    ``lambda_per_body`` holds the least-squares multiplier fitting each
    body's attraction to -(r_k - c); it is NaN for a body sitting at the
    centre of mass.  ``lambda_energy`` is potential / (2 * moment) with the
    moment taken about the centre of mass.  ``max_residual`` is the largest
    defect norm; compare it against ``attraction_scale`` (the mean
    attraction norm) to get a dimensionless residual.
    """

    lambda_per_body: tuple[float, ...]
    lambda_energy: float
    potential: float
    moment: float
    max_residual: float
    attraction_scale: float
    com: tuple[float, float]


def _sum(values: list[float]) -> float:
    """The sum numpy gives a 1-D float64 array of ``values``, bit for bit:
    left to right from 0.0 for fewer than 8 values, else numpy's own
    pairwise sum.  Python's own ``sum`` is neither."""
    if len(values) < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    return float(np.add.reduce(np.array(values, dtype=float)))


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every pair ``(i, j)`` of n bodies with i < j, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _listed(items) -> str:
    """Source of a comma list whose trailing comma keeps a single item a tuple."""
    return "".join(f"{item}, " for item in items)


def _source(n: int, name: str) -> str:
    """The source of the kernel ``name`` of n bodies (see :func:`_kernels`).

    A point set ``p`` is held in the locals ``{p}x0, {p}y0, {p}x1, ...``,
    the masses in ``m0, m1, ...``.  Each sum is written once, below, as a
    fragment of source that the kernels are assembled from.
    """
    pairs, bodies = _pairs(n), range(n)
    suffixes = [f"{axis}{k}" for k in bodies for axis in "xy"]

    def flat(p):
        return [p + suffix for suffix in suffixes]

    def each(q, term):  # q = term(suffix) for every flat coordinate
        return "".join(f"    {q}{suffix} = {term(suffix)}\n" for suffix in suffixes)

    def unpack(p, argument):
        return f"    {_listed(flat(p))}= {argument}\n"

    def body_sum(terms):  # numpy's sum of one term per body, as _sum adds
        terms = list(terms)
        return f"(0.0 + {' + '.join(terms)})" if n < 8 else f"_sum(({_listed(terms)}))"

    def offsets(p):
        return "".join(
            f"    dx{i}_{j} = {p}x{j} - {p}x{i}\n    dy{i}_{j} = {p}y{j} - {p}y{i}\n"
            for i, j in pairs
        )

    # each pair's square s = dx * dx + dy * dy, its distance sqrt(s) and its
    # force weight 1.0 / (s * sqrt(s)): correctly rounded operations, so the
    # same bits on every IEEE CPU, which numpy's power and dot do not promise
    squares = [f"dx{i}_{j} * dx{i}_{j} + dy{i}_{j} * dy{i}_{j}" for i, j in pairs]
    nearest = f"min({', '.join(squares)})" if n > 2 else squares[0]

    # the fragments: the centre, the potential, the half moment and the force

    def centre(p, q):  # (comx, comy) of point set p, and q = p - com
        return f"    total = {body_sum(f'm{k}' for k in bodies)}\n" + "".join(
            f"    com{axis} = (0.0{''.join(f' + m{k} * {p}{axis}{k}' for k in bodies)}) / total\n"
            for axis in "xy"
        ) + each(q, lambda suffix: f"{p}{suffix} - com{suffix[0]}")

    def potential(p):
        # sum m_i m_j / d_ij from 0.0 in pair order, one statement per pair:
        # an expression of N(N-1)/2 terms overflows the compiler's recursion
        # from 78 bodies on
        return offsets(p) + "    potential = 0.0\n" + "".join(
            f"    potential += m{i} * m{j} / sqrt({square})\n"
            for (i, j), square in zip(pairs, squares)
        )

    def half_moment(p):  # 0.5 * sum m_k |p_k|^2
        return "0.5 * " + body_sum(
            f"m{k} * ({p}x{k} * {p}x{k} + {p}y{k} * {p}y{k})" for k in bodies
        )

    def force(p, a):
        # body k's acceleration adds its pairs' terms in pair order, as a loop
        # over the pairs would: + m_j (r_j - r_k) w for (k, j), - m_i (r_k - r_i)
        # w for (i, k), from 0.0
        terms = {suffix: "" for suffix in suffixes}
        for i, j in pairs:
            for axis in "xy":
                terms[f"{axis}{i}"] += f" + m{j} * d{axis}{i}_{j} * w{i}_{j}"
                terms[f"{axis}{j}"] += f" - m{i} * d{axis}{i}_{j} * w{i}_{j}"
        return (
            offsets(p)
            # one statement of all the weights: with a statement per pair,
            # the step kernel of MAX_BODIES bodies took 290 MB to compile
            + f"    {_listed(f'w{i}_{j}' for i, j in pairs)}="
            f" [1.0 / (r2 * sqrt(r2)) for r2 in ({_listed(squares)})]\n"
            + each(a, lambda suffix: f"0.0{terms[suffix]}")
        )

    def residual(p, coords):
        # the report of point set p (the list coords) at the multiplier lam,
        # with its forces from the function field
        per_body = "".join(
            f"    ex = ax{k} + lam * ux{k}\n    ey = ay{k} + lam * uy{k}\n"
            f"    defect{k} = sqrt(ex * ex + ey * ey)\n"
            f"    norm{k} = sqrt(ax{k} * ax{k} + ay{k} * ay{k})\n"
            f"    u2 = ux{k} * ux{k} + uy{k} * uy{k}\n"
            f"    lam{k} = nan if u2 < TINY else -(ax{k} * ux{k} + ay{k} * uy{k}) / u2\n"
            for k in bodies
        )
        defects = [f"defect{k}" for k in bodies]
        # numpy's max is the first NaN when there is one; Python's skips a
        # NaN that is not first
        first_nan = "".join(f"{d} if {d} != {d} else " for d in defects)
        return (
            centre(p, "u")
            + f"    forces = field(masses, {coords})\n"
            + unpack("a", "forces")
            + per_body
            + potential("u")
            + f"    moment = {half_moment('u')}\n"
            "    report = ResidualReport(\n"
            f"        ({_listed(f'lam{k}' for k in bodies)}),\n"
            "        potential / (2.0 * moment) if moment != 0.0 else inf,\n"
            "        potential,\n"
            "        moment,\n"
            f"        {first_nan}max({', '.join(defects)}),\n"
            f"        {body_sum(f'norm{k}' for k in bodies)} / {n},\n"
            "        (comx, comy),\n"
            "    )\n"
        )

    def stage(v, scale, a):  # the stage positions s = p + scale * v, and their forces a
        return each("s", lambda suffix: f"{suffix} + {scale} * {v}{suffix}") + force("s", a)

    head = f"    {_listed(f'm{k}' for k in bodies)}= masses\n"
    kernels = {
        "field": lambda: (
            "def field(masses, coords):\n" + head + unpack("", "coords") + force("", "a")
            + f"    return [{', '.join(flat('a'))}]\n"
        ),
        "min_separation": lambda: (
            "def min_separation(coords):\n" + unpack("", "coords") + offsets("")
            + f"    return sqrt({nearest})\n"
        ),
        "distances": lambda: (
            "def distances(coords):\n" + unpack("", "coords") + offsets("")
            + f"    return ({_listed(f'sqrt({square})' for square in squares)})\n"
        ),
        "potential": lambda: (
            "def potential(masses, coords):\n" + head + unpack("", "coords") + potential("")
            + "    return potential\n"
        ),
        "half_moment": lambda: (
            f"def half_moment(masses, coords):\n{head}{unpack('', 'coords')}"
            f"    return {half_moment('')}\n"
        ),
        "residual": lambda: (
            "def residual(masses, coords, lam, field):\n" + head + unpack("", "coords")
            + residual("", "coords") + "    return report\n"
        ),
        # is_central_configuration: lam from the centred system, then the
        # report of that system, which centres it once more
        "central": lambda: (
            "def central(masses, coords, field):\n" + head + unpack("", "coords")
            + centre("", "c") + potential("c") + f"    moment = {half_moment('c')}\n"
            "    checked = moment != 0.0\n"
            "    lam = potential / (2.0 * moment) if checked else 0.0\n"
            + residual("c", f"[{', '.join(flat('c'))}]") + "    return checked, report\n"
        ),
        # one classical RK4 step of size h: k1..k4 of the velocities are the
        # forces a, b, c, e, those of the positions are v, k, l, q; each
        # update is elementwise in the order of the (N, 2) array expression
        "step": lambda: (
            "def step(masses, pos, vel, h):\n" + head + unpack("", "pos") + unpack("v", "vel")
            + "    half = 0.5 * h\n    sixth = h / 6.0\n"
            + force("", "a")
            + each("k", lambda suffix: f"v{suffix} + half * a{suffix}")
            + stage("v", "half", "b")
            + each("l", lambda suffix: f"v{suffix} + half * b{suffix}")
            + stage("k", "half", "c")
            + each("q", lambda suffix: f"v{suffix} + h * c{suffix}")
            + stage("l", "h", "e")
            + "    return ["
            + ", ".join(f"{s} + sixth * (v{s} + 2.0 * k{s} + 2.0 * l{s} + q{s})" for s in suffixes)
            + "], ["
            + ", ".join(f"v{s} + sixth * (a{s} + 2.0 * b{s} + 2.0 * c{s} + e{s})" for s in suffixes)
            + "]\n"
        ),
    }
    return kernels[name]()


class _Kernels(dict):
    """The kernels of n bodies by name, each compiled on its first lookup."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, name: str) -> Callable:
        namespace = {
            "sqrt": math.sqrt, "nan": math.nan, "inf": math.inf,
            "TINY": MIN_SEPARATION**2, "_sum": _sum, "ResidualReport": ResidualReport,
        }
        code = compile(_source(self.n, name), f"<trapcc {name} kernel, {self.n} bodies>", "exec")
        exec(code, namespace)
        self[name] = namespace[name]
        return self[name]


@functools.lru_cache(maxsize=None)
def _kernels(n: int) -> _Kernels:
    """The straight-line code of n bodies, by name, each function generated
    and compiled on its first lookup:

    * ``field(masses, coords)``: the accelerations;
    * ``min_separation(coords)`` and ``distances(coords)``, a tuple of
      the pair distances;
    * ``potential(masses, coords)`` and ``half_moment(masses, coords)``;
    * ``residual(masses, coords, lam, field)``, the :class:`ResidualReport`
      at ``lam``, and ``central(masses, coords, field)``, which infers lam
      from the centred system as :func:`is_central_configuration` does and
      returns ``(moment != 0, report)``; both take their forces from one
      call of ``field``;
    * ``step(masses, pos, vel, h)``, one RK4 step of size h: the new flat
      positions and velocities.

    Each function unpacks the masses and the flat coordinates
    ``[x_0, y_0, x_1, y_1, ...]`` into locals and spells out every pair of
    :func:`_pairs` in order, so it pays for its arithmetic, not for loops
    over bodies and pairs, and calls numpy only to sum 8 or more bodies
    (:func:`_sum`).  Only fixed literals, n
    and the integers of ``_pairs(n)`` enter the source.
    """
    return _Kernels(n)


def center_of_mass(system: PlanarSystem) -> tuple[float, float]:
    """The mass-weighted centre, as the residual report takes it."""
    return cc_residual(system, 0.0).com


def _min_separation(coords: list[float]) -> float:
    """The smallest pair distance, from flat coordinates."""
    return _kernels(len(coords) // 2)["min_separation"](coords)


def _pair_distances(coords) -> tuple[float, ...]:
    """The distance of every pair of :func:`_pairs`, from flat coordinates:
    ``sqrt`` of the pair's square, the distance the potential takes."""
    return _kernels(len(coords) // 2)["distances"](coords)


def _potential(masses: list[float], coords: list[float]) -> float:
    """Self-potential ``sum m_i m_j / |r_i - r_j|`` over the pairs, summed
    in pair order."""
    return _kernels(len(masses))["potential"](masses, coords)


def attraction_field(masses: list[float], coords: list[float]) -> list[float]:
    """Gravitational acceleration of every body, G = 1, on Python floats.

    The one force coding of the package.  Takes masses and flat coordinates
    ``[x_0, y_0, x_1, y_1, ...]`` and returns the accelerations in the same
    layout.  Body k's acceleration is ``sum_j (m_j * (r_j - r_k)) * w_kj``,
    with ``w = 1.0 / (s * sqrt(s))`` of the pair's square ``s``, summed
    over j in increasing order, term by term as a numpy sum over the
    body axis would, so the bits equal those of the ``(N, N, 2)`` array
    coding kept in ``tests/array_reference.py``; the trapezoid-specialised
    formulas there are the independent second coding of the same law.
    """
    return _kernels(len(masses))["field"](masses, coords)


def _half_mass_squares(masses: list[float], coords: list[float]) -> float:
    """``0.5 * sum m_k |v_k|^2`` of flat vectors, summed as numpy would:
    the half moment of positions, the kinetic energy of velocities."""
    return _kernels(len(masses))["half_moment"](masses, coords)


def potential_and_moment(system: PlanarSystem) -> tuple[float, float]:
    """Self-potential over all unordered pairs and the half moment
    ``0.5 * sum m_i |r_i|^2`` about the origin (translate the system first
    when the centre of mass matters)."""
    masses, coords = system.masses, _flat(system.positions)
    return _potential(masses, coords), _half_mass_squares(masses, coords)


def cc_residual(system: PlanarSystem, lam: float) -> ResidualReport:
    """Defect of the central-configuration equation at a given multiplier.

    For each body the defect vector is

        A_k + lam * (r_k - c),    A_k = sum_{j != k} m_j (r_j - r_k)/d^3

    with c the mass-weighted centre.  The report carries the largest defect
    norm, the mean attraction norm for normalisation, per-body least-squares
    multipliers, and the energy-ratio multiplier potential/(2*moment) with
    the moment taken about c.
    """
    residual = _kernels(len(system.masses))["residual"]
    return residual(system.masses, _flat(system.positions), lam, attraction_field)


def is_central_configuration(
    system: PlanarSystem, tol: float = DEFAULT_CC_TOL
) -> tuple[bool, ResidualReport]:
    """Check centrality with the multiplier inferred from the system itself.

    The system is recentred, lambda is taken as potential/(2*moment), and
    the verdict is ``max_residual <= tol * attraction_scale``, making the
    tolerance dimensionless, and False unless both are finite (an
    overflowing system has ``inf <= tol * inf``) and the moment is not 0
    (the report is then taken at lambda 0).  The report is that of the
    centred system, which is centred once more: its potential, moment and
    lambda_energy come from the twice-centred positions.  The full report
    is returned either way.
    """
    central = _kernels(len(system.masses))["central"]
    checked, report = central(system.masses, _flat(system.positions), attraction_field)
    residual, scale = report.max_residual, report.attraction_scale
    finite = math.isfinite(residual) and math.isfinite(scale)
    return checked and finite and residual <= tol * scale, report


def trapezoid_system(params: TrapezoidParams, m: float, M: float) -> PlanarSystem:
    """The four-body system for a trapezoid shape and pair masses, in the
    body order 1..4 (lower, upper, upper, lower)."""
    return PlanarSystem((M, m, m, M), build_configuration(params, m, M).positions)
