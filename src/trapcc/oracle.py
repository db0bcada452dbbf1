"""Generic planar N-body central-configuration checker.

A configuration is central when every body's gravitational acceleration is
proportional to its position relative to the centre of mass, with a single
proportionality constant lambda:

    sum_{j != k} m_j (r_j - r_k) / |r_j - r_k|^3  =  -lambda (r_k - c)

This module is deliberately model independent: it knows nothing about the
trapezoid family and simply measures the defect of that equation for any
:class:`PlanarSystem`, masses ``(N,)`` and positions ``(N, 2)`` held as
read-only float arrays, with G = 1.  Negative masses are allowed (sign
analysis of the mass formulas needs them); only non-finite values, a total
mass that vanishes to rounding or coincident bodies are rejected.  Points
such as the centre of mass are ``(x, y)`` float tuples.

The checks run on Python floats, through pair code generated once per body
count (:func:`_kernels`), and return the bits of the numpy array code kept
in ``tests/array_reference.py``.
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


class CoincidentBodiesError(ValueError):
    """Two bodies of a system are closer than the separation it allows."""


class PlanarSystem(
    NamedTuple("PlanarSystem", [("masses", "np.ndarray"), ("positions", "np.ndarray")])
):
    """An ordered list of point masses in the plane, G = 1: masses ``(N,)``
    and positions ``(N, 2)``, kept as read-only float copies of the
    arguments.

    Masses and positions must be finite, positions pairwise distinct
    (separation above 1e-9) and the total mass must not vanish.  Masses may
    carry either sign.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, masses, positions):
        masses, positions = _read_only(masses), _read_only(positions)
        mass_list, coords = _check_bodies(masses, positions)
        # the centre of mass divides by a plain float sum of the masses,
        # which is only known to about n * eps * sum |m|: a total inside
        # that error vanishes as far as the centre can tell
        total = math.fsum(mass_list)
        noise = len(mass_list) * sys.float_info.epsilon * math.fsum(map(abs, mass_list))
        if abs(total) <= noise:
            raise ValueError(f"total mass must not vanish: {total!r} is within rounding of 0")
        nearest = _min_separation(coords)
        if nearest < MIN_SEPARATION:
            raise CoincidentBodiesError(
                f"bodies closer than {MIN_SEPARATION:g}: min separation {nearest:.3e}"
            )
        return super().__new__(cls, masses, positions)


def _read_only(values) -> np.ndarray:
    """A float64 copy of ``values`` that cannot be written to."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def _check_bodies(masses: np.ndarray, positions: np.ndarray, velocities=None) -> list[list[float]]:
    """Raise ValueError unless ``masses`` is ``(N,)`` with N >= 2, and
    ``positions`` and, when given, ``velocities`` are ``(N, 2)``, all finite;
    return the given arrays as flat float lists."""
    if masses.ndim != 1 or positions.shape != (len(masses), 2):
        raise ValueError(
            f"one (x, y) position per mass required: masses {masses.shape}, "
            f"positions {positions.shape}"
        )
    if velocities is not None and velocities.shape != positions.shape:
        raise ValueError(f"velocities {velocities.shape} must match positions {positions.shape}")
    if len(masses) < 2:
        raise ValueError("at least 2 bodies required")
    lists = []
    for name, values in (("masses", masses), ("positions", positions), ("velocities", velocities)):
        if values is not None:
            lists.append(values.ravel().tolist())
            if not all(map(math.isfinite, lists[-1])):
                raise ValueError(f"{name} must be finite")
    return lists


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


def _centre(masses: list[float], coords: list[float]) -> tuple[tuple[float, float], list[float]]:
    """The mass-weighted centre and the flat coordinates relative to it."""
    xs, ys = coords[0::2], coords[1::2]
    cx = cy = 0.0
    for m, x, y in zip(masses, xs, ys):
        cx += m * x
        cy += m * y
    total = _sum(masses)
    cx, cy = cx / total, cy / total
    return (cx, cy), [c for x, y in zip(xs, ys) for c in (x - cx, y - cy)]


def center_of_mass(system: PlanarSystem) -> tuple[float, float]:
    com, _ = _centre(system.masses.tolist(), system.positions.ravel().tolist())
    return com


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every pair ``(i, j)`` of n bodies with i < j, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@functools.lru_cache(maxsize=None)
def _kernels(n: int) -> dict[str, Callable]:
    """The pair code of n bodies, generated and compiled on first use: the
    functions ``field``, ``min_separation``, ``distances`` and ``potential``
    by name.

    Each function unpacks the masses and the flat coordinates
    ``[x_0, y_0, x_1, y_1, ...]`` into locals and spells out every pair of
    :func:`_pairs` in order, so a force evaluation pays for its arithmetic
    and one numpy call, not for a loop over index pairs.  Only the integers
    of ``_pairs(n)`` enter the source.
    """
    pairs = _pairs(n)

    def listed(items):  # a trailing comma keeps a single pair a tuple
        return "".join(f"{item}, " for item in items)

    masses = listed(f"m{k}" for k in range(n))
    coords = listed(f"x{k}, y{k}" for k in range(n))
    offsets = "".join(
        f"    dx{i}_{j} = x{j} - x{i}\n    dy{i}_{j} = y{j} - y{i}\n" for i, j in pairs
    )
    squares = [f"dx{i}_{j} * dx{i}_{j} + dy{i}_{j} * dy{i}_{j}" for i, j in pairs]
    # body k's acceleration adds its pairs' terms in pair order, as a loop
    # over the pairs would: + m_j (r_j - r_k) w for (k, j), - m_i (r_k - r_i) w
    # for (i, k), from 0.0
    field = [
        "0.0" + "".join(
            f" + m{j} * d{axis}{i}_{j} * w{i}_{j}" if i == k
            else f" - m{i} * d{axis}{i}_{j} * w{i}_{j}"
            for i, j in pairs if k in (i, j)
        )
        for k in range(n) for axis in "xy"
    ]
    weights = listed(f"w{i}_{j}" for i, j in pairs)
    nearest = f"min({', '.join(squares)})" if n > 2 else squares[0]
    potential = "".join(f" + m{i} * m{j} / d{i}_{j}" for i, j in pairs)
    source = (
        "def field(masses, coords):\n"
        f"    {masses}= masses\n"
        f"    {coords}= coords\n"
        f"{offsets}"
        # numpy's vectorised power differs from libm's pow (Python's **) on
        # about one input in twenty; its result for a value does not depend
        # on the array's length
        f"    {weights}= np.power(({listed(squares)}), -1.5).tolist()\n"
        f"    return [{', '.join(field)}]\n"
        "def min_separation(coords):\n"
        f"    {coords}= coords\n"
        f"{offsets}"
        f"    return sqrt({nearest})\n"
        "def distances(coords):\n"
        f"    {coords}= coords\n"
        f"    return np.hypot(({listed(f'x{j} - x{i}' for i, j in pairs)}),"
        f" ({listed(f'y{j} - y{i}' for i, j in pairs)}))\n"
        "def potential(masses, coords):\n"
        f"    {masses}= masses\n"
        f"    {listed(f'd{i}_{j}' for i, j in pairs)}= distances(coords).tolist()\n"
        f"    return 0.0{potential}\n"
    )
    namespace = {"np": np, "sqrt": math.sqrt}
    exec(compile(source, f"<trapcc pair kernels, {n} bodies>", "exec"), namespace)
    return namespace


def _min_separation(coords: list[float]) -> float:
    """The smallest pair distance, from flat coordinates."""
    return _kernels(len(coords) // 2)["min_separation"](coords)


def _pair_distances(coords) -> np.ndarray:
    """The distance of every pair of :func:`_pairs`, from flat coordinates.
    The coordinates may be array rows, one column per system: the result
    is then ``(P, S)``.

    ``np.hypot``, not ``math.hypot``: the two round differently on a few
    inputs in a thousand, and every output keeps numpy's bits.
    """
    return _kernels(len(coords) // 2)["distances"](coords)


def _potential(masses: list[float], coords: list[float]) -> float:
    """Self-potential ``sum m_i m_j / |r_i - r_j|`` over the pairs, summed
    in pair order."""
    return _kernels(len(masses))["potential"](masses, coords)


def attraction_field(masses: list[float], coords: list[float]) -> list[float]:
    """Gravitational acceleration of every body, G = 1, on Python floats.

    The one force coding of the package.  Takes masses and flat coordinates
    ``[x_0, y_0, x_1, y_1, ...]`` and returns the accelerations in the same
    layout.  Body k's acceleration is ``sum_j (m_j * (r_j - r_k)) * d_kj^-1.5``
    summed over j in increasing order, term by term as a numpy sum over the
    body axis would, so the bits equal those of the ``(N, N, 2)`` array
    coding kept in ``tests/array_reference.py``; the trapezoid-specialised
    formulas there are the independent second coding of the same law.
    """
    return _kernels(len(masses))["field"](masses, coords)


def _half_mass_squares(masses: list[float], coords: list[float]) -> float:
    """``0.5 * sum m_k |v_k|^2`` of flat vectors, summed as numpy would:
    the half moment of positions, the kinetic energy of velocities."""
    return 0.5 * _sum([m * (x * x + y * y) for m, x, y in zip(masses, coords[0::2], coords[1::2])])


def _potential_and_moment(masses: list[float], coords: list[float]) -> tuple[float, float]:
    return _potential(masses, coords), _half_mass_squares(masses, coords)


def potential_and_moment(system: PlanarSystem) -> tuple[float, float]:
    """Self-potential over all unordered pairs and the half moment
    ``0.5 * sum m_i |r_i|^2`` about the origin (translate the system first
    when the centre of mass matters)."""
    return _potential_and_moment(system.masses.tolist(), system.positions.ravel().tolist())


def _residual(masses: list[float], coords: list[float], lam: float) -> ResidualReport:
    n = len(masses)
    com, rel = _centre(masses, coords)
    attractions = attraction_field(masses, coords)
    # one batched ``attractions[k] @ rel[k]``: numpy's dot may fuse the
    # multiply-add, so a dot of two floats is not ``a0 * r0 + a1 * r1``
    both = np.array((attractions, rel))
    dots = (both[0].reshape(n, 1, 2) @ both[1].reshape(n, 2, 1)).ravel().tolist()
    defect_norms, attraction_norms, lam_body = [], [], []
    bodies = zip(attractions[0::2], attractions[1::2], rel[0::2], rel[1::2], dots)
    for ax, ay, ux, uy, dot in bodies:
        dx, dy = ax + lam * ux, ay + lam * uy
        defect_norms.append(math.sqrt(dx * dx + dy * dy))
        attraction_norms.append(math.sqrt(ax * ax + ay * ay))
        u2 = ux * ux + uy * uy
        lam_body.append(math.nan if u2 < MIN_SEPARATION**2 else -dot / u2)

    # rel is the system translated to its centre of mass
    potential, moment = _potential_and_moment(masses, rel)
    lambda_energy = potential / (2.0 * moment) if moment != 0.0 else math.inf
    # numpy's max is the first NaN when there is one; Python's skips a NaN
    # that is not first
    nans = [norm for norm in defect_norms if norm != norm]

    return ResidualReport(
        lambda_per_body=tuple(lam_body),
        lambda_energy=lambda_energy,
        potential=potential,
        moment=moment,
        max_residual=nans[0] if nans else max(defect_norms),
        attraction_scale=_sum(attraction_norms) / n,
        com=com,
    )


def cc_residual(system: PlanarSystem, lam: float) -> ResidualReport:
    """Defect of the central-configuration equation at a given multiplier.

    For each body the defect vector is

        A_k + lam * (r_k - c),    A_k = sum_{j != k} m_j (r_j - r_k)/d^3

    with c the mass-weighted centre.  The report carries the largest defect
    norm, the mean attraction norm for normalisation, per-body least-squares
    multipliers, and the energy-ratio multiplier potential/(2*moment) with
    the moment taken about c.
    """
    return _residual(system.masses.tolist(), system.positions.ravel().tolist(), lam)


def is_central_configuration(
    system: PlanarSystem, tol: float = DEFAULT_CC_TOL
) -> tuple[bool, ResidualReport]:
    """Check centrality with the multiplier inferred from the system itself.

    The system is recentred, lambda is taken as potential/(2*moment), and
    the verdict is ``max_residual <= tol * attraction_scale``, making the
    tolerance dimensionless, and False unless both are finite (an
    overflowing system has ``inf <= tol * inf``).  The full report is
    returned either way.
    """
    masses = system.masses.tolist()
    _, centred = _centre(masses, system.positions.ravel().tolist())
    potential, moment = _potential_and_moment(masses, centred)
    if moment == 0.0:
        return False, _residual(masses, centred, 0.0)
    # _residual centres once more; the reported potential, moment and
    # lambda_energy come from those twice-centred positions, lam from these
    report = _residual(masses, centred, potential / (2.0 * moment))
    residual, scale = report.max_residual, report.attraction_scale
    verdict = math.isfinite(residual) and math.isfinite(scale) and residual <= tol * scale
    return verdict, report


def trapezoid_system(params: TrapezoidParams, m: float, M: float) -> PlanarSystem:
    """The four-body system for a trapezoid shape and pair masses, in the
    body order 1..4 (lower, upper, upper, lower)."""
    return PlanarSystem((M, m, m, M), build_configuration(params, m, M).positions)
