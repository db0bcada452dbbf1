"""Span recording for traced benchmark children.

Wrappers replace public trapcc functions at the attribute each caller looks
up (``dynamics`` imports ``attraction_field`` by name, ``cli`` imports
``raster``, and so on), so every call a module makes into another layer is
seen.  Spans carry name, start, end and parent; they stay in memory and are
reduced to per-name totals when the child ends.  Self time is a span's time
minus the time of its direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (module, attribute, span name): every place a caller looks a layer function up.
WRAPPED = [
    ("cli", "cmd_masses", "cli.cmd"),
    ("cli", "cmd_verify", "cli.cmd"),
    ("cli", "cmd_raster", "cli.cmd"),
    ("cli", "cmd_boundary", "cli.cmd"),
    ("cli", "cmd_simulate", "cli.cmd"),
    ("cli", "cmd_compare_approx", "cli.cmd"),
    ("cli", "write_text", "cli.write"),
    ("cli", "emit_json", "cli.emit_json"),
    ("cli", "raster", "regions.raster"),
    ("cli", "compare_exact_vs_approx", "regions.compare"),
    ("cli", "audit_published_domains", "regions.audit"),
    ("cli", "trace_boundary", "regions.boundary"),
    ("cli", "f1_approx", "regions.approx"),
    ("cli", "f3_approx", "regions.approx"),
    ("regions", "f1_approx", "regions.approx"),
    ("regions", "f3_approx", "regions.approx"),
    ("regions", "distance_cubes_values", "geometry.distance_cubes"),
    ("geometry", "distance_cubes_values", "geometry.distance_cubes"),
    ("cli", "build_configuration", "geometry.build_configuration"),
    ("oracle", "build_configuration", "geometry.build_configuration"),
    ("dynamics", "build_configuration", "geometry.build_configuration"),
    ("regions", "mass_values", "masses.mass_values"),
    ("masses", "solve_masses", "masses.solve_masses"),
    ("cli", "solve_masses", "masses.solve_masses"),
    ("dynamics", "solve_masses", "masses.solve_masses"),
    ("masses", "classify", "masses.classify"),
    ("cli", "classify", "masses.classify"),
    ("dynamics", "classify", "masses.classify"),
    ("oracle", "attraction_field", "oracle.attraction_field"),
    ("dynamics", "attraction_field", "oracle.attraction_field"),
    ("oracle", "trapezoid_system", "oracle.system_build"),
    ("cli", "trapezoid_system", "oracle.system_build"),
    ("oracle", "is_central_configuration", "oracle.check"),
    ("cli", "is_central_configuration", "oracle.check"),
    ("cli", "init_relative_equilibrium", "dynamics.init"),
    ("cli", "integrate", "dynamics.integrate"),
    ("dynamics", "total_energy", "dynamics.sample"),
    ("dynamics", "total_angular_momentum", "dynamics.sample"),
    ("cli", "rigidity_metrics", "dynamics.rigidity"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child time]
        self.stack = []
        self.counts = Counter()

    def wrap(self, fn, name, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][4] += span[2] - span[1]
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def install(self):
        import trapcc.cli
        import trapcc.dynamics

        modules = {name: getattr(trapcc, name) for name in
                   ("cli", "regions", "geometry", "masses", "oracle", "dynamics")}
        after = {
            "cli.write": self._count_bytes,
            "regions.raster": self._count_cells,
            "regions.boundary": self._count_roots,
            "oracle.check": self._count_verdict,
            "dynamics.integrate": self._count_samples,
        }
        for module, attr, name in WRAPPED:
            fn = getattr(modules[module], attr)
            setattr(modules[module], attr, self.wrap(fn, name, after.get(name)))
        # counted, not timed: each evaluation bisect makes, and each RK4 step
        # (integrate checks the separation once per step it takes)
        regions, dynamics = modules["regions"], modules["dynamics"]
        regions.bisect = self._counting_bisect(regions.bisect)
        dynamics._min_separation = self._counting(dynamics._min_separation, "steps")
        state = trapcc.dynamics.SystemState
        state.from_arrays = staticmethod(self.wrap(state.from_arrays, "dynamics.sample"))

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _counting_bisect(self, bisect):
        counts = self.counts

        def counted(f, *args, **kwargs):
            def g(x):
                counts["bisect_evals"] += 1
                return f(x)
            return bisect(g, *args, **kwargs)

        return counted

    def _count_bytes(self, result, args, kwargs):
        self.counts["bytes_written"] += len(args[1].encode("utf-8"))

    def _count_cells(self, grid, args, kwargs):
        self.counts["cells"] += int(grid.f1.size)

    def _count_roots(self, curve, args, kwargs):
        self.counts["boundary_samples"] += len(curve.samples)
        self.counts["roots"] += sum(1 for s in curve.samples if s.status == "ok")

    def _count_verdict(self, result, args, kwargs):
        self.counts["checks"] += 1
        self.counts["central"] += int(bool(result[0]))

    def _count_samples(self, trajectory, args, kwargs):
        self.counts["samples"] += len(trajectory.samples)

    def summary(self) -> dict:
        """Per-name call count, total time and self time, plus the counters."""
        names = {}
        for name, start, end, _, child in self.spans:
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return {"spans": names, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def layer_metrics(spans: dict, counts: dict) -> dict:
    """Per-module metrics (value, unit) from one pass's summed span totals."""

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def fraction(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    return {
        "cli.format_s": (self_time("cli.cmd"), "s"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.bytes_written": (counts.get("bytes_written", 0), "count"),
        "cli.emit_json_s": (total("cli.emit_json"), "s"),
        "regions.raster_s": (total("regions.raster"), "s"),
        "regions.raster_self_s": (self_time("regions.raster"), "s"),
        "regions.cells": (counts.get("cells", 0), "count"),
        "regions.compare_s": (total("regions.compare"), "s"),
        "regions.audit_s": (total("regions.audit"), "s"),
        "regions.approx_s": (total("regions.approx"), "s"),
        "regions.boundary_s": (total("regions.boundary"), "s"),
        "regions.bisect_evals": (counts.get("bisect_evals", 0), "count"),
        "regions.root_fraction": (fraction("roots", "boundary_samples"), "fraction"),
        "geometry.distance_cubes_s": (total("geometry.distance_cubes"), "s"),
        "geometry.build_configuration_calls": (calls("geometry.build_configuration"), "count"),
        "masses.mass_values_s": (total("masses.mass_values"), "s"),
        "masses.solve_masses_calls": (calls("masses.solve_masses"), "count"),
        "masses.solve_masses_s": (total("masses.solve_masses"), "s"),
        "masses.classify_s": (total("masses.classify"), "s"),
        "oracle.attraction_field_calls": (calls("oracle.attraction_field"), "count"),
        "oracle.attraction_field_s": (total("oracle.attraction_field"), "s"),
        "oracle.system_build_s": (total("oracle.system_build"), "s"),
        "oracle.check_s": (total("oracle.check"), "s"),
        "oracle.central_fraction": (fraction("central", "checks"), "fraction"),
        "dynamics.integrate_s": (total("dynamics.integrate"), "s"),
        "dynamics.steps": (counts.get("steps", 0), "count"),
        "dynamics.step_self_s": (self_time("dynamics.integrate"), "s"),
        "dynamics.samples": (counts.get("samples", 0), "count"),
        "dynamics.sample_s": (total("dynamics.sample"), "s"),
        "dynamics.rigidity_s": (total("dynamics.rigidity"), "s"),
    }
