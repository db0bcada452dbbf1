"""Benchmark-owned child process.

    child.py cli SPANS_OUT ARG...          trapcc.cli.main(ARG...) with spans
    child.py points IN OUT SPANS_OUT|-     the in-process point loop

The ``cli`` form installs the span wrappers and then runs the CLI exactly as
``python -m trapcc.cli ARG...`` would.  The ``points`` form runs what
``trapcc verify`` does for every point of IN (solve_masses, classify,
trapezoid_system, is_central_configuration) and writes one result per
point to OUT.
"""

from __future__ import annotations

import json
import sys


def run_cli(spans_out: str, argv: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    import trapcc.cli

    try:
        return trapcc.cli.main(argv)
    finally:
        tracer.dump(spans_out)


def run_points(points_in: str, results_out: str, spans_out: str) -> int:
    from trapcc import masses, oracle
    from trapcc.geometry import TrapezoidParams

    tracer = None
    if spans_out != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with open(points_in, encoding="utf-8") as fh:
        points = json.load(fh)

    results = []
    for alpha, beta in points:
        try:
            params = TrapezoidParams(alpha=alpha, beta=beta)
            try:
                solution = masses.solve_masses(params)
            except masses.DegenerateConfigurationError:
                results.append(["degenerate"])
                continue
            label = masses.classify(params)
            system = oracle.trapezoid_system(params, solution.m, solution.M)
            verdict, _ = oracle.is_central_configuration(system)
            results.append(["ok", solution.m, solution.M, label.value, bool(verdict)])
        except Exception as err:  # one failed point must not end the loop
            results.append(["error", f"{type(err).__name__}: {err}"])

    if tracer is not None:
        tracer.dump(spans_out)
    with open(results_out, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(run_cli(rest[0], rest[1:]))
    sys.exit(run_points(*rest))
