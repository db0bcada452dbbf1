"""Seeded inputs and output checks for the benchmark workloads.

The benchmark has two workloads, each made of two parts:

* ``plane`` classifies the (alpha, beta) plane: the ``raster_csv`` part
  (``trapcc raster``, where CSV text formatting in cli does the work) and
  the ``plane_audit`` part (``trapcc compare-approx`` and ``trapcc boundary``,
  where vectorised regions compute, surrogates and bisection do the work);
* ``points`` works on single configurations: the ``rigid_orbit`` part
  (``trapcc simulate``, the RK4 integrator and its force kernel) and the
  ``point_verify`` part (what ``trapcc verify`` does, run in process over
  many points: scalar masses, geometry dataclasses and oracle loops).

A change to the grid path moves ``plane`` and leaves ``points`` alone, and
the other way round.  Each ``prepare_*`` function turns a seed into the
operations of one part of a pass: the argv of a trapcc CLI command (or the
point list of the in-process loop), the files it writes, and a check that
reads those outputs.  A check returns the pass's work counts and raises
``CheckFailed`` when an output is wrong.  Inputs depend only on the seed, so
every pass of a run repeats the same work and must repeat the same counts.

Input generation (including the beta* root finding for on-locus points and
the reference masses of the point loop) is benchmark set-up: it runs before
anything is timed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from trapcc.geometry import TrapezoidParams
from trapcc.masses import classify, solve_masses, solve_masses_linear
from trapcc.oracle import is_central_configuration, trapezoid_system
from trapcc.regions import exact_f1, exact_f3

RASTER_SHAPES = [(256, 256), (384, 160), (192, 320)]  # (n_alpha, n_beta); the last crosses f3 = 0
RASTER_CHECKED_CELLS = 24
AUDIT_SHAPES = [(1000, 1000), (800, 1250), (1250, 800)]
BOUNDARY_VALUES = 2000
BOUNDARY_STEP = 1e-9
ORBIT_LOCUS_POINTS = 1
ORBIT_PERIODS = 1  # one short command per point: the benchmark keeps each command's fastest time
ORBIT_DT = 1e-3
POINTS_RANDOM = 6000
POINTS_LOCUS = 8
POINTS_DEGENERATE = 4
POINT_CHUNKS = 3  # child processes per pass, each running an equal share of the points
MASS_RTOL = 1e-9


class CheckFailed(Exception):
    pass


class SetupError(Exception):
    pass


@dataclass
class Op:
    """One operation of a pass.

    ``argv`` holds trapcc CLI arguments, or for the point loop the input and
    result file names.  ``attempted`` is the number of operations it counts
    for: 1 for a CLI command, one per point for the point loop.
    """

    argv: list[str]
    check: Callable[[object], Counter]
    outputs: list[Path] = field(default_factory=list)
    attempted: int = 1
    points: bool = False
    part: str = ""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def f3_value(alpha: float, beta: float) -> tuple[float, float]:
    """f3 and a + b, written out here from the model (not from trapcc)."""
    a = ((0.5 - 0.5 * alpha) ** 2 + beta**2) ** 1.5
    b = ((0.5 + 0.5 * alpha) ** 2 + beta**2) ** 1.5
    return a + b - 2.0 * a * b + alpha * (a - b), a + b


def degenerate_beta(alpha: float) -> float:
    """The beta where f3(alpha, .) changes sign, to the last float."""
    lo, hi = 0.05, 1.45
    f_lo = f3_value(alpha, lo)[0]
    if f_lo * f3_value(alpha, hi)[0] >= 0.0:
        raise SetupError(f"no f3 sign change on [{lo}, {hi}] at alpha={alpha!r}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f3_value(alpha, mid)[0]
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return min((lo, hi), key=lambda beta: abs(f3_value(alpha, beta)[0]))


def locus_beta(alpha: float) -> float:
    """beta* on the central-configuration locus from the Dziobek relation
    (s_a - s)^2 = (1 - s)(alpha^-3 - s), s_a = 1/a, s_b = 1/b, s = (s_a + s_b)/2,
    confirmed with the trapcc oracle."""

    def relation(beta):
        s_a = ((0.5 - 0.5 * alpha) ** 2 + beta**2) ** -1.5
        s_b = ((0.5 + 0.5 * alpha) ** 2 + beta**2) ** -1.5
        s = 0.5 * (s_a + s_b)
        return (s_a - s) ** 2 - (1.0 - s) * (alpha**-3 - s)

    beta = 1.0 if alpha == 1.0 else brentq(relation, 0.5, 1.5, xtol=1e-15)
    params = TrapezoidParams(alpha=alpha, beta=beta)
    solution = solve_masses(params)
    verdict, _ = is_central_configuration(trapezoid_system(params, solution.m, solution.M))
    if not verdict or not (solution.m > 0.0 and solution.M > 0.0):
        raise SetupError(f"locus point ({alpha!r}, {beta!r}) is not a positive-mass central configuration")
    return beta


def cell_centers(lo: float, hi: float, n: int) -> list[float]:
    """Cell centres as the README's raster convention defines them."""
    step = (hi - lo) / n
    return [lo + (k + 0.5) * step for k in range(n)]


def read_csv(path: Path) -> tuple[dict[str, int], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expect(len(rows) >= 1, f"{path.name}: empty file")
    return {name: i for i, name in enumerate(rows[0])}, rows[1:]


def envelope(outcome) -> dict:
    try:
        return json.loads(outcome.stdout)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"stdout is not one JSON document: {err}")


def file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths)


# --- raster_csv -----------------------------------------------------------


def label_of(m: float, M: float) -> str:
    if m > 0.0 and M > 0.0:
        return "BothPositive"
    if M > 0.0:
        return "OnlyMLowerPositive"
    if m > 0.0:
        return "OnlyMUpperPositive"
    return "NonePositive"


def seeded_range(rng: random.Random, top: float, min_span: float, max_span: float):
    span = rng.uniform(min_span, max_span)
    lo = rng.uniform(0.0, top - span)
    return lo, lo + span


def crossing_ranges(rng: random.Random, n_alpha: int, n_beta: int):
    """Ranges whose grid puts one cell centre on the degenerate curve."""
    alpha_range = seeded_range(rng, 0.9, 0.3, 0.6)
    alpha = cell_centers(*alpha_range, n_alpha)[rng.randrange(n_alpha)]
    beta0 = degenerate_beta(alpha)
    span, row = rng.uniform(0.3, 0.6), rng.randrange(n_beta)
    lo = beta0 - (row + 0.5) * span / n_beta
    for _ in range(64):
        center = cell_centers(lo, lo + span, n_beta)[row]
        if center == beta0:
            break
        lo += beta0 - center
    f3, scale = f3_value(alpha, cell_centers(lo, lo + span, n_beta)[row])
    if abs(f3) > 1e-14 * scale:
        raise SetupError(f"could not place a cell on f3 = 0 at alpha={alpha!r}")
    return alpha_range, (lo, lo + span)


def raster_op(rng: random.Random, work: Path, index: int, crossing: bool) -> Op:
    n_alpha, n_beta = RASTER_SHAPES[index]
    if crossing:
        alpha_range, beta_range = crossing_ranges(rng, n_alpha, n_beta)
    else:
        alpha_range = seeded_range(rng, 1.0, 0.3, 0.9)
        beta_range = seeded_range(rng, 1.5, 0.4, 1.2)
    out = work / f"raster{index}.csv"
    meta = Path(f"{out}.meta.json")
    cells = n_alpha * n_beta
    sampled = random.Random(rng.random()).sample(range(cells), RASTER_CHECKED_CELLS)
    alphas = cell_centers(*alpha_range, n_alpha)
    betas = cell_centers(*beta_range, n_beta)

    def check(outcome) -> Counter:
        doc = envelope(outcome)
        expect(doc["payload"]["rows"] == cells, "stdout rows != n_alpha * n_beta")
        sidecar = json.loads(meta.read_text(encoding="utf-8"))
        label_counts = sidecar["payload"]["label_counts"]
        expect(sum(label_counts.values()) == cells, "sidecar label_counts do not sum to the cell count")
        col, rows = read_csv(out)
        expect(len(rows) == cells, f"{len(rows)} CSV rows for {cells} cells")
        labels = Counter(row[col["label"]] for row in rows)
        expect(dict(labels) == label_counts, "CSV labels disagree with the sidecar label_counts")
        degenerate = [i for i, row in enumerate(rows) if row[col["label"]] == "Degenerate"]
        expect(not crossing or degenerate, "no Degenerate cell on a grid placed across f3 = 0")
        for i in sorted(set(sampled) | set(degenerate)):
            row = rows[i]
            alpha, beta = float(row[col["alpha"]]), float(row[col["beta"]])
            expect(alpha == alphas[i % n_alpha] and beta == betas[i // n_alpha],
                   f"row {i}: ({alpha!r}, {beta!r}) is not its cell centre")
            m, M, label = float(row[col["m"]]), float(row[col["M"]]), row[col["label"]]
            params = TrapezoidParams(alpha=alpha, beta=beta)
            expect(label == classify(params).value, f"row {i}: label {label} differs from classify")
            if label == "Degenerate":
                expect(math.isnan(m) and math.isnan(M), f"row {i}: Degenerate cell with finite masses")
                continue
            solution = solve_masses(params)
            expect(close(m, solution.m, MASS_RTOL) and close(M, solution.M, MASS_RTOL),
                   f"row {i}: masses ({m!r}, {M!r}) differ from solve_masses")
        return Counter(cells=cells, rows=len(rows) + 1, bytes=file_bytes([out, meta]),
                       degenerate_cells=len(degenerate))

    argv = ["raster", "--alpha-range", "%r,%r" % alpha_range, "--beta-range", "%r,%r" % beta_range,
            "--resolution", f"{n_alpha}x{n_beta}", "--out", str(out)]
    return Op(argv, check, [out, meta])


def prepare_raster_csv(rng: random.Random, work: Path) -> list[Op]:
    last = len(RASTER_SHAPES) - 1
    return [raster_op(rng, work, i, crossing=i == last) for i in range(len(RASTER_SHAPES))]


# --- plane_audit ----------------------------------------------------------


def compare_op(rng: random.Random, work: Path) -> Op:
    n_alpha, n_beta = AUDIT_SHAPES[rng.randrange(len(AUDIT_SHAPES))]
    out = work / "compare.json"

    def check(outcome) -> Counter:
        doc = envelope(outcome)
        expect(json.loads(out.read_text(encoding="utf-8")) == doc, "--out file differs from stdout")
        payload = doc["payload"]
        for which in ("f1", "f3"):
            part = payload[which]
            expect(0.0 <= part["sign_agreement"] <= 1.0, f"{which} sign_agreement outside [0, 1]")
            expect(0 <= part["disagreement_count"] <= n_alpha * n_beta, f"{which} disagreement_count")
            expect(len(part["worst_cells"]) == 10, f"{which}: expected 10 worst cells")
        expect(payload["published_domains"]["n_samples"] == 1999, "audit n_samples != 1999")
        return Counter(cells=n_alpha * n_beta, bytes=file_bytes([out]))

    return Op(["compare-approx", "--resolution", f"{n_alpha}x{n_beta}", "--out", str(out)], check, [out])


def boundary_op(rng: random.Random, work: Path, which: str, axis: str) -> Op:
    top = 1.0 if axis == "alpha" else 1.5
    fixed = sorted(rng.uniform(0.001, top) for _ in range(BOUNDARY_VALUES))
    interval = (1e-6, 2.0) if axis == "alpha" else (1e-6, 1.0)
    out = work / f"boundary_{which}_{axis}.csv"
    func = exact_f1 if which == "f1" else exact_f3

    def check(outcome) -> Counter:
        expect(envelope(outcome)["payload"]["rows"] == len(fixed), "stdout rows != fixed values")
        col, rows = read_csv(out)
        expect(len(rows) == len(fixed), f"{len(rows)} rows for {len(fixed)} fixed values")
        roots, at = [], []
        for value, row in zip(fixed, rows):
            expect(float(row[col["fixed"]]) == value, f"row fixed {row[col['fixed']]} != {value!r}")
            expect(row[col["method"]] == "exact-rootfind", "method is not exact-rootfind")
            if row[col["root"]] == "no_sign_change":
                continue
            root = float(row[col["root"]])
            expect(interval[0] <= root <= interval[1], f"root {root!r} outside the search interval")
            roots.append(root)
            at.append(value)
        if roots:
            root, at = np.array(roots), np.array(at)
            pair = (lambda x: func(at, x)) if axis == "alpha" else (lambda x: func(x, at))
            changes = pair(root - BOUNDARY_STEP) * pair(root + BOUNDARY_STEP) <= 0.0
            expect(bool(changes.all()), f"{int((~changes).sum())} roots without a sign change of {which}")
        return Counter(rows=len(rows) + 1, roots=len(roots), bytes=file_bytes([out]))

    argv = ["boundary", "--which", which, "--axis", axis, "--method", "exact",
            "--fixed", ",".join(map(repr, fixed)), "--out", str(out)]
    return Op(argv, check, [out])


def prepare_plane_audit(rng: random.Random, work: Path) -> list[Op]:
    ops = [compare_op(rng, work)]
    for which in ("f1", "f3"):
        for axis in ("alpha", "beta"):
            ops.append(boundary_op(rng, work, which, axis))
    return ops


# --- rigid_orbit ----------------------------------------------------------


def simulate_op(work: Path, index: int, alpha: float, beta: float) -> Op:
    out = work / f"orbit{index}.csv"
    t_end = ORBIT_PERIODS * 2.0 * math.pi

    def check(outcome) -> Counter:
        payload = envelope(outcome)["payload"]
        deviation = payload["max_distance_deviation"]
        expect(deviation <= 1e-5, f"distance deviation {deviation!r} > 1e-5 on the locus")
        col, rows = read_csv(out)
        expect(len(rows) == payload["samples"], f"{len(rows) + 1} CSV rows for {payload['samples']} samples")
        last = float(rows[-1][col["t"]])
        expect(close(last, t_end, 1e-12), f"last t {last!r} != periods * 2 pi")
        return Counter(samples=payload["samples"], rows=len(rows) + 1, bytes=file_bytes([out]))

    argv = ["simulate", "--alpha", repr(alpha), "--beta", repr(beta), "--periods", str(ORBIT_PERIODS),
            "--dt", repr(ORBIT_DT), "--out", str(out)]
    return Op(argv, check, [out])


def prepare_rigid_orbit(rng: random.Random, work: Path) -> list[Op]:
    points = [(1.0, 1.0)]
    for _ in range(ORBIT_LOCUS_POINTS):
        alpha = rng.uniform(0.3, 1.0)
        points.append((alpha, locus_beta(alpha)))
    return [simulate_op(work, i, alpha, beta) for i, (alpha, beta) in enumerate(points)]


# --- point_verify ---------------------------------------------------------


def prepare_point_verify(rng: random.Random, work: Path) -> list[Op]:
    random_points = [(1.0 - rng.random(), 1.5 * (1.0 - rng.random())) for _ in range(POINTS_RANDOM)]
    locus_alphas = [1.0] + [rng.uniform(0.05, 1.0) for _ in range(POINTS_LOCUS - 1)]
    locus = [(alpha, locus_beta(alpha)) for alpha in locus_alphas]
    degenerate_alphas = [rng.uniform(0.05, 0.9) for _ in range(POINTS_DEGENERATE)]
    degenerate = [(alpha, degenerate_beta(alpha)) for alpha in degenerate_alphas]
    points = random_points + locus + degenerate
    kinds = ["random"] * len(random_points) + ["locus"] * len(locus) + ["degenerate"] * len(degenerate)
    return [points_op(work, i, points[i::POINT_CHUNKS], kinds[i::POINT_CHUNKS]) for i in range(POINT_CHUNKS)]


def reference_masses(kind: str, alpha: float, beta: float):
    """(m, M, rtol) from solve_masses_linear, or None on f3 = 0."""
    if kind == "degenerate":
        return None
    # normwise: the linear solve loses digits of (m, M) in proportion to 1 / |f3|
    f3, scale = f3_value(alpha, beta)
    m_lin, M_lin = solve_masses_linear(TrapezoidParams(alpha=alpha, beta=beta))
    return m_lin, M_lin, MASS_RTOL * max(1.0, scale / abs(f3))


def points_op(work: Path, index: int, points: list, kinds: list[str]) -> Op:
    """One child running ``points``; the reference masses are worked out
    here, before anything is timed, since every pass repeats the points."""
    points_in, results_out = work / f"points{index}.json", work / f"results{index}.json"
    points_in.write_text(json.dumps(points), encoding="utf-8")

    references = [reference_masses(kind, alpha, beta) for kind, (alpha, beta) in zip(kinds, points)]

    def check_point(kind, alpha, beta, reference, result) -> None:
        status = result[0]
        if kind == "degenerate":
            expect(status == "degenerate", f"({alpha!r}, {beta!r}) on f3 = 0 did not raise: {result}")
            return
        expect(status == "ok", f"({alpha!r}, {beta!r}): {result}")
        _, m, M, label, verdict = result
        expect(label == label_of(m, M), f"({alpha!r}, {beta!r}): label {label} for m={m!r}, M={M!r}")
        expect(kind != "locus" or verdict, f"locus point ({alpha!r}, {beta!r}) not central")
        m_lin, M_lin, rtol = reference
        expect(max(abs(m - m_lin), abs(M - M_lin)) <= rtol * max(abs(m), abs(M)),
               f"({alpha!r}, {beta!r}): masses differ from solve_masses_linear")

    def check(outcome) -> Counter:
        results = json.loads(results_out.read_text(encoding="utf-8"))
        expect(len(results) == len(points), f"{len(results)} results for {len(points)} points")
        counts = Counter(points=len(points))
        for kind, (alpha, beta), reference, result in zip(kinds, points, references, results):
            try:
                check_point(kind, alpha, beta, reference, result)
            except Exception as err:  # a malformed result fails its point, not the pass
                counts["failed"] += 1
                outcome.errors.append(f"{type(err).__name__}: {err}")
            counts[result[0]] += 1
            counts["central"] += int(result[0] == "ok" and result[4])
        return counts

    return Op([str(points_in), str(results_out)], check, [results_out], len(points), points=True)


PARTS = {
    "plane": {"raster_csv": prepare_raster_csv, "plane_audit": prepare_plane_audit},
    "points": {"rigid_orbit": prepare_rigid_orbit, "point_verify": prepare_point_verify},
}


def prepare(name: str, rng: random.Random, work: Path) -> list[Op]:
    """The operations of one pass of workload ``name``, part after part."""
    ops = []
    for part, make in PARTS[name].items():
        for op in make(rng, work):
            op.part = part
            ops.append(op)
    return ops
