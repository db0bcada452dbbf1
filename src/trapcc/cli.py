"""Command-line surface: mass solutions, verification, rasters, boundaries,
simulations and the exact-versus-published comparison, all emitting CSV or
JSON suitable for plotting scripts.

Output is deterministic: identical invocations produce byte-identical
bytes (floats are rendered with their shortest round-trip representation,
files use UTF-8 with LF line endings, and no timestamps are recorded).

Exit codes: 0 success, 1 verification failed, 2 degenerate parameters,
3 collision abort, 64 usage error, 65 refused unphysical run, 70 internal
error (a bug: one ``internal error: ...`` line on stderr), 74 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import sys
from typing import Sequence

from . import _MODULE_OF, _NAMES, __version__
from ._numpy import default_one_blas_thread, np

# A command binds the layer names it calls with _load, from the package's
# table, and imports only its own modules: ``--version`` imports no layer.  A
# caller that replaces a name (perfbench/spans.py wraps ``cli.raster`` and so
# on) is the one the command calls: _load keeps a name that is already set,
# and looking a layer name up here first loads every layer.


def _load(*modules: str) -> None:
    """Import each layer module and bind its public names here, keeping any set."""
    for module in modules:
        namespace = vars(importlib.import_module(f"{__package__}.{module}"))
        for name in _NAMES[module]:
            globals().setdefault(name, namespace[name])


def __getattr__(name: str):
    if name not in _MODULE_OF:  # such as ``__path__``, which ``from trapcc.cli import`` asks for
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(*_NAMES)
    return globals()[name]


EX_OK = 0
EX_VERIFY_FAILED = 1
EX_DEGENERATE = 2
EX_COLLISION = 3
EX_USAGE = 64
EX_REFUSED = 65
EX_SOFTWARE = 70
EX_IO = 74

MAX_CELLS = 10**8  # the most cells a plane command evaluates: 10,000 x 10,000

MASSES_CSV_HEADER = "alpha,beta,a,b,f1,f2,f3,m,M,lambda,r_A,r_B,label"
RASTER_CSV_HEADER = "alpha,beta,f1,f3,m,M,label"
BOUNDARY_CSV_HEADER = "fixed,root,f_value,method"
TRAJECTORY_CSV_HEADER = "t,x1,y1,x2,y2,x3,y3,x4,y4,energy,angmom"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 64 on bad flags instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def fnum(x) -> str:
    """Shortest round-trip decimal rendering of a float."""
    return repr(float(x))


def envelope(command: str, parameters: dict, payload, warnings: list[str]) -> dict:
    return {
        "tool": "trapcc",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "payload": payload,
        "warnings": warnings,
    }


def emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


@contextlib.contextmanager
def _opened(path: str):
    """``path`` opened for writing UTF-8 text with LF line ends.  An OSError
    on opening, writing or closing it (a buffered write fails there too)
    becomes one ``cannot write`` IOError, which exits 74."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as err:
        raise IOError(f"cannot write {path}: {err}") from err


def write_text(out, text: str) -> None:
    """Write ``text`` to the file :func:`_opened` gave, or to the path ``out``."""
    if isinstance(out, str):
        with _opened(out) as fh:
            fh.write(text)
    else:
        out.write(text)


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects LO,HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{flag} expects numbers, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"{flag} values must be finite, got {text!r}")
    if not hi > lo:
        raise UsageError(f"{flag} needs LO < HI, got {text!r}")
    return lo, hi


def _checked(convert, valid, requirement: str):
    """An argparse type: ``convert`` the text, then refuse a value that is
    not ``valid``, which argparse reports as a usage error (exit 64)."""

    def parse(text: str):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_finite = _checked(float, math.isfinite, "finite")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and non-negative")
_positive_int = _checked(int, lambda v: v >= 1, "at least 1")


def _parse_resolution(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--resolution expects N or NxM, got {text!r}")
    if len(values) == 1:
        values = [values[0], values[0]]
    if len(values) != 2 or values[0] < 1 or values[1] < 1:
        raise UsageError(f"--resolution must be positive, got {text!r}")
    if values[0] * values[1] > MAX_CELLS:
        raise UsageError(f"--resolution {text!r} asks for more than {MAX_CELLS} cells")
    return values[0], values[1]


def _params_or_usage(alpha: float, beta: float) -> TrapezoidParams:
    try:
        return TrapezoidParams(alpha=alpha, beta=beta)
    except ValueError as err:
        raise UsageError(str(err))


def cmd_masses(args) -> int:
    _load("geometry", "masses")
    params = _params_or_usage(args.alpha, args.beta)
    try:
        solution = solve_masses(params)
    except DegenerateConfigurationError as err:
        print(f"degenerate: {err}", file=sys.stderr)
        return EX_DEGENERATE
    label = region_label(solution.m, solution.M)
    config = build_configuration(params, solution.m, solution.M)
    fields = {
        "alpha": params.alpha,
        "beta": params.beta,
        "a": solution.a,
        "b": solution.b,
        "f1": solution.f1,
        "f2": solution.f2,
        "f3": solution.f3,
        "m": solution.m,
        "M": solution.M,
        "lambda": 1.0,
        "r_A": config.r_A,
        "r_B": config.r_B,
    }
    if args.format == "csv":
        row = ",".join(fnum(fields[k]) for k in MASSES_CSV_HEADER.split(",")[:-1])
        print(MASSES_CSV_HEADER)
        print(f"{row},{label.value}")
    else:
        payload = dict(fields)
        payload["label"] = label.value
        emit_json(
            envelope("masses", {"alpha": params.alpha, "beta": params.beta}, payload, [])
        )
    return EX_OK


def _relative_residual(report) -> float:
    """The check's largest force defect over its mean attraction."""
    if report.attraction_scale > 0.0:
        return report.max_residual / report.attraction_scale
    return math.inf


def cmd_verify(args) -> int:
    _load("geometry", "masses", "oracle")
    params = _params_or_usage(args.alpha, args.beta)
    try:
        solution = solve_masses(params)
        system = trapezoid_system(params, solution.m, solution.M)
    except (DegenerateConfigurationError, CoincidentBodiesError) as err:
        print(f"degenerate: {err}", file=sys.stderr)
        return EX_DEGENERATE
    warnings = []
    if solution.m <= 0.0 or solution.M <= 0.0:
        warnings.append(
            f"NEGATIVE-MASS: m={fnum(solution.m)}, M={fnum(solution.M)}; "
            "the check is algebraic, not physical"
        )
    verdict, report = is_central_configuration(system, tol=args.tol)
    relative = _relative_residual(report)
    payload = {
        "alpha": params.alpha,
        "beta": params.beta,
        "m": solution.m,
        "M": solution.M,
        "is_central_configuration": verdict,
        "tol": args.tol,
        "max_residual": report.max_residual,
        "attraction_scale": report.attraction_scale,
        "relative_residual": relative,
        "lambda_energy": report.lambda_energy,
        "lambda_per_body": list(report.lambda_per_body),
        "potential": report.potential,
        "moment": report.moment,
        "com": list(report.com),
    }
    emit_json(
        envelope(
            "verify",
            {"alpha": params.alpha, "beta": params.beta, "tol": args.tol},
            payload,
            warnings,
        )
    )
    return EX_OK if verdict else EX_VERIFY_FAILED


def raster_csv(grid, header: bool = True):
    """The raster CSV text of ``grid``'s cells, one string per beta row,
    after the header line when ``header`` is set.

    The alphas are formatted once, and each row's values become Python
    floats in one ``.tolist()``; ``repr`` of a Python float is what
    :func:`fnum` writes.  A label code indexes the labels' values.
    """
    _load("masses")
    values = [label.value for label in REGION_LABELS]
    alphas = [repr(alpha) for alpha in grid.alpha_axis.tolist()]
    if header:
        yield f"{RASTER_CSV_HEADER}\n"
    for i, beta in enumerate(map(repr, grid.beta_axis.tolist())):
        row = zip(
            alphas,
            grid.f1[i].tolist(),
            grid.f3[i].tolist(),
            grid.m[i].tolist(),
            grid.M[i].tolist(),
            grid.labels[i].tolist(),
        )
        yield "".join(
            f"{alpha},{beta},{f1!r},{f3!r},{m!r},{M!r},{values[code]}\n"
            for alpha, f1, f3, m, M, code in row
        )


def cmd_raster(args) -> int:
    _load("regions", "masses")
    alpha_range = _parse_range(args.alpha_range, "--alpha-range")
    beta_range = _parse_range(args.beta_range, "--beta-range")
    n_alpha, n_beta = _parse_resolution(args.resolution)

    def evaluate(rows):
        try:
            return raster(alpha_range, beta_range, n_alpha, n_beta, rows)
        except ValueError as err:
            raise UsageError(str(err))
        except OverflowError:
            raise UsageError("the sign functions overflow: --beta-range too large")

    blocks = map(evaluate, row_blocks(n_alpha, n_beta))
    block = next(blocks)  # each block checks the whole grid: a refused one writes no file
    header = True
    counts = 0  # an array from the first block on: numpy loads in raster, not here
    # one block of rows is held at a time, and the text of one of its rows:
    # evaluated, written a row at a time, counted, dropped
    with _opened(args.out) as fh:
        while block is not None:
            for text in raster_csv(block, header):
                write_text(fh, text)
            counts += np.bincount(block.labels.ravel(), minlength=len(REGION_LABELS))
            block, header = None, False  # dropped before the next block is evaluated
            block = next(blocks, None)
    label_counts = {
        label.value: count for label, count in zip(REGION_LABELS, counts.tolist()) if count
    }
    meta = envelope(
        "raster",
        {
            "alpha_range": list(alpha_range),
            "beta_range": list(beta_range),
            "n_alpha": n_alpha,
            "n_beta": n_beta,
            "out": args.out,
        },
        {"rows": n_alpha * n_beta, "label_counts": label_counts},
        [],
    )
    write_text(args.out + ".meta.json", json.dumps(meta, indent=2) + "\n")
    emit_json(meta)
    return EX_OK


def cmd_boundary(args) -> int:
    _load("regions")
    fixed_values = []
    if args.fixed:
        for chunk in args.fixed.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                value = float(chunk)
            except ValueError:
                raise UsageError(f"--fixed expects numbers, got {chunk!r}")
            if not math.isfinite(value):
                raise UsageError(f"--fixed values must be finite, got {chunk!r}")
            fixed_values.append(value)
    search_interval = None
    if args.search_interval:
        search_interval = _parse_range(args.search_interval, "--search-interval")
    try:
        curve = trace_boundary(
            args.which, args.axis, fixed_values, method=args.method,
            search_interval=search_interval,
        )
    except ValueError as err:
        raise UsageError(str(err))
    except OverflowError:  # the sign functions cube distances in Python floats
        raise UsageError("the sign functions overflow: --fixed or --search-interval too large")

    lines = [BOUNDARY_CSV_HEADER]
    for sample in curve.samples:
        root = fnum(sample.root) if sample.root is not None else sample.status
        f_value = fnum(sample.f_value) if sample.f_value is not None else ""
        lines.append(f"{fnum(sample.fixed)},{root},{f_value},{curve.method}")
    write_text(args.out, "\n".join(lines) + "\n")
    emit_json(
        envelope(
            "boundary",
            {
                "which": args.which,
                "axis": args.axis,
                "fixed": fixed_values,
                "method": args.method,
                "out": args.out,
            },
            {"rows": len(curve.samples)},
            [],
        )
    )
    return EX_OK


def cmd_simulate(args) -> int:
    _load("dynamics", "oracle", "masses", "geometry")
    params = _params_or_usage(args.alpha, args.beta)
    if args.periods < 0:
        raise UsageError("--periods must be non-negative")
    t_end = args.periods * 2.0 * math.pi
    if math.isinf(t_end):
        raise UsageError(f"--periods too large: {args.periods!r} periods overflow the end time")
    if args.dt <= 0:
        raise UsageError("--dt must be positive")
    if t_end / args.dt > MAX_STEPS:
        raise UsageError(
            f"--periods and --dt ask for {t_end / args.dt:.3g} RK4 steps, more than {MAX_STEPS}"
        )
    try:
        # integrate's run checks, before any work: every other one is made
        # above, so this refuses more than dynamics.MAX_SAMPLES samples
        importlib.import_module(f"{__package__}.dynamics")._step_count(args.dt, t_end, args.stride)
    except ValueError as err:
        raise UsageError(str(err))
    try:
        initial = init_relative_equilibrium(params, force=args.force)
    except (DegenerateConfigurationError, CoincidentBodiesError) as err:
        print(f"degenerate: {err}", file=sys.stderr)
        return EX_DEGENERATE
    except UnphysicalParametersError as err:
        print(f"refused: {err}", file=sys.stderr)
        return EX_REFUSED
    # the closed-form masses balance only two of the three equations, so
    # off the central-configuration locus the motion is not a rigid rotation
    system = PlanarSystem(initial.masses, initial.positions)
    central, report = is_central_configuration(system)
    if not central:
        print(
            f"warning: (alpha={params.alpha!r}, beta={params.beta!r}) is not a central "
            f"configuration: relative residual {_relative_residual(report):.3g} exceeds "
            f"{DEFAULT_CC_TOL:g}, so the motion will not be a rigid rotation",
            file=sys.stderr,
        )

    def write_trajectory(traj) -> None:
        # the CSV leaves out the velocities: each row is t and the positions,
        # then the energy and the angular momentum.  A block of rows is
        # formatted and written at a time, so the text is never held whole
        samples = traj.samples
        positions_end = 1 + (samples.shape[1] - 3) // 2
        with _opened(args.out) as fh:
            for start in range(0, len(samples), 1024):
                lines = [TRAJECTORY_CSV_HEADER] if start == 0 else []
                lines.extend(
                    ",".join(map(fnum, (*row[:positions_end], *row[-2:])))
                    for row in samples[start:start + 1024].tolist()
                )
                write_text(fh, "\n".join(lines) + "\n")

    parameters = {
        "alpha": params.alpha,
        "beta": params.beta,
        "periods": args.periods,
        "dt": args.dt,
        "stride": args.stride,
        "out": args.out,
        "force": args.force,
    }
    if args.periods == 0:
        write_text(args.out, TRAJECTORY_CSV_HEADER + "\n")
        payload = {**RigidityReport(0.0, 0.0, 0.0)._asdict(), "samples": 0}
        emit_json(envelope("simulate", parameters, payload, []))
        return EX_OK

    try:
        trajectory = integrate(initial, dt=args.dt, t_end=t_end, output_stride=args.stride)
    except CollisionError as err:
        write_trajectory(err.trajectory)
        print(f"collision: {err}", file=sys.stderr)
        return EX_COLLISION

    write_trajectory(trajectory)
    report = rigidity_metrics(trajectory)
    payload = {**report._asdict(), "samples": len(trajectory.samples)}
    emit_json(envelope("simulate", parameters, payload, []))
    return EX_OK if report.max_distance_deviation <= 1e-5 else EX_VERIFY_FAILED


def cmd_compare_approx(args) -> int:
    _load("regions")
    n_alpha, n_beta = _parse_resolution(args.resolution)
    try:
        reports = compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), n_alpha, n_beta)
    except ValueError as err:
        raise UsageError(str(err))
    audit = audit_published_domains()
    payload = {
        name: {
            "sign_agreement": report.sign_agreement,
            "max_abs_deviation": report.max_abs_deviation,
            "mean_abs_deviation": report.mean_abs_deviation,
            "disagreement_count": len(report.disagreements),
            "disagreement_cells": report.disagreements[:50].tolist(),
            "worst_cells": [
                dict(zip(("alpha", "beta", "exact", "approx"), cell))
                for cell in report.worst_cells
            ],
        }
        for name, report in reports.items()
    }
    payload["published_domains"] = {
        "n_samples": audit.n_samples,
        "g1_real_intervals": [list(iv) for iv in audit.g1_intervals],
        "g3_real_intervals": [list(iv) for iv in audit.g3_intervals],
        "g1_failures": [list(f) for f in audit.g1_failures],
        "g3_failures": [list(f) for f in audit.g3_failures],
    }
    doc = envelope("compare-approx", {"resolution": f"{n_alpha}x{n_beta}"}, payload, [])
    if args.out:
        write_text(args.out, json.dumps(doc, indent=2) + "\n")
    emit_json(doc)
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trapcc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"trapcc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("masses", parents=[], help="closed-form masses and the region label")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_masses)

    p = sub.add_parser("verify", help="check the full per-body force balance")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("raster", help="classify a grid of the parameter plane to CSV")
    p.add_argument("--alpha-range", default="0,1")
    p.add_argument("--beta-range", default="0,1")
    p.add_argument("--resolution", default="400", help="N or NxM (alpha x beta)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_raster)

    p = sub.add_parser("boundary", help="trace a zero set of f1 or f3 to CSV")
    p.add_argument("--which", choices=("f1", "f3"), required=True)
    p.add_argument("--axis", choices=("alpha", "beta"), required=True,
                   help="the axis held fixed")
    p.add_argument("--fixed", default="", help="comma-separated fixed coordinates")
    p.add_argument("--method", choices=("exact", "published"), default="exact")
    p.add_argument("--search-interval", default=None, help="LO,HI for the free axis")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("simulate", help="integrate a rigid-rotation candidate")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--periods", type=_finite, default=1.0)
    p.add_argument("--dt", type=_finite, default=1e-3)
    p.add_argument("--stride", type=_positive_int, default=100)
    p.add_argument("--force", action="store_true",
                   help="integrate even with non-positive masses")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare-approx", help="exact versus published surrogates")
    p.add_argument("--resolution", default="100")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare_approx)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    default_one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EX_USAGE
    except IOError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EX_IO
    except Exception as err:
        # every expected failure has its own code above; the rest are bugs,
        # and exit 1 would read as "verification failed"
        print(f"internal error: {err!r}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
