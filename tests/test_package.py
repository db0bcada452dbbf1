"""The package surface and what each entry point imports.

``import trapcc`` and ``trapcc.cli`` load a layer module only when one of
its names is first used, so these tests run fresh interpreters where the
answer depends on what is already loaded.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import trapcc

SRC = str(Path(trapcc.__file__).resolve().parents[1])
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the public names, by defining module, in the order of trapcc.__all__
SURFACE = {
    "geometry": [
        "DegenerateMassError", "DistanceCubes", "PlanarPoint", "TrapezoidConfiguration",
        "TrapezoidParams", "build_configuration", "compute_distance_cubes",
        "reconstruct_positions",
    ],
    "masses": [
        "DegenerateConfigurationError", "MassSolution", "RegionLabel", "SignTriple",
        "classify", "sign_functions", "solve_masses", "solve_masses_linear",
    ],
    "oracle": [
        "PlanarSystem", "ResidualReport", "cc_residual", "center_of_mass",
        "is_central_configuration", "potential_and_moment", "trapezoid_system",
    ],
    "dynamics": [
        "CollisionError", "RigidityReport", "SystemState", "Trajectory",
        "UnphysicalParametersError", "init_relative_equilibrium", "integrate",
        "rigidity_metrics", "trapezoid_accelerations",
    ],
    "regions": [
        "ApproxCoefficients", "ApproxReport", "BoundaryCurve", "BoundarySample",
        "DomainAudit", "NegativeDiscriminantError", "NegativeRadicandError", "RasterGrid",
        "RootSearch", "audit_published_domains", "compare_exact_vs_approx",
        "exact_boundary", "exact_f1", "exact_f3", "f1_approx", "f3_approx", "g1_published",
        "g3_published", "raster", "trace_boundary",
    ],
}
PUBLIC = [name for names in SURFACE.values() for name in names]


def fresh(tmp_path, script: str) -> str:
    """The last stdout line of ``script`` run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_all_lists_the_same_names_in_the_same_order():
    assert trapcc.__all__ == ["__version__", *PUBLIC]
    assert len(trapcc.__all__) == 53


@pytest.mark.parametrize("module, name", [(m, n) for m, names in SURFACE.items() for n in names])
def test_each_name_is_the_defining_modules_object(module, name):
    assert getattr(trapcc, name) is getattr(importlib.import_module(f"trapcc.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from trapcc import *", namespace)
    assert set(trapcc.__all__) <= set(namespace)


def test_dir_lists_every_name():
    assert set(trapcc.__all__) <= set(dir(trapcc))


@pytest.mark.parametrize("module", ["trapcc", "trapcc.cli"])
def test_unknown_attribute_raises(module):
    namespace = importlib.import_module(module)
    with pytest.raises(AttributeError, match="no_such_name"):
        namespace.no_such_name


def test_bare_import_loads_no_layer_but_names_its_modules(tmp_path):
    script = (
        "import sys, trapcc\n"
        "before = sorted(m for m in sys.modules if m.startswith('trapcc.'))\n"
        "print(before, trapcc.regions.__name__, trapcc.raster.__module__)\n"
    )
    assert fresh(tmp_path, script) == "[] trapcc.regions trapcc.regions"


LAYERS = {"geometry", "masses", "oracle", "dynamics", "regions"}
BOUNDARY = ["boundary", "--which", "f1", "--axis", "alpha", "--fixed", "0.5", "--out", "b.csv"]
SIMULATE = ["simulate", "--alpha", "1", "--beta", "1", "--periods", "0.01", "--out", "s.csv"]


@pytest.mark.parametrize(
    "code, absent",
    [
        ("main(['--version'])", LAYERS),
        (f"main({BOUNDARY!r})", {"oracle", "dynamics", "numpy"}),
        (f"main({SIMULATE!r})", {"regions"}),
        ("from trapcc import masses, oracle", {"regions", "dynamics"}),
    ],
)
def test_each_entry_point_loads_only_its_modules(tmp_path, code, absent):
    script = (
        "import sys\n"
        "from trapcc.cli import main\n"
        f"{code}\n"
        "names = {m.split('.')[1] for m in sys.modules if m.startswith('trapcc.')}\n"
        "names |= {'numpy'} if any(m.startswith('numpy.') for m in sys.modules) else set()\n"
        "print(sorted(names))\n"
    )
    loaded = set(eval(fresh(tmp_path, script)))
    assert loaded.isdisjoint(absent), loaded & absent


def wrapped_points():
    """perfbench/spans.py's WRAPPED: every (module, attribute, span) it wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


def test_every_tracer_wrap_point_resolves(tmp_path):
    points = [(module, attr) for module, attr, _ in wrapped_points()]
    assert ("cli", "raster") in points
    script = (
        "import trapcc, trapcc.cli\n"
        f"for module, attr in {points!r}:\n"
        "    assert callable(getattr(getattr(trapcc, module), attr)), (module, attr)\n"
        "print('ok')\n"
    )
    assert fresh(tmp_path, script) == "ok"


def test_a_wrapper_on_the_cli_is_the_function_the_command_calls(tmp_path):
    # cli.raster is set before the command loads regions into the cli, and
    # cli.trace_boundary is looked up first, as the tracer does; a wrapper
    # set after a first call replaces the function for the next one
    script = (
        "import trapcc.cli as cli\n"
        "from trapcc import regions\n"
        "calls = []\n"
        "def counting(fn):\n"
        "    def counted(*args, **kwargs):\n"
        "        calls.append(fn.__name__)\n"
        "        return fn(*args, **kwargs)\n"
        "    return counted\n"
        "cli.raster = counting(regions.raster)\n"
        "cli.trace_boundary = counting(cli.trace_boundary)\n"
        f"boundary = {BOUNDARY!r}\n"
        "assert cli.main(['raster', '--resolution', '2x2', '--out', 'r.csv']) == 0\n"
        "assert cli.main(boundary) == 0\n"
        "cli.trace_boundary = counting(regions.trace_boundary)\n"
        "assert cli.main(boundary) == 0\n"
        "print(calls)\n"
    )
    assert fresh(tmp_path, script) == str(["raster", "trace_boundary", "trace_boundary"])


def test_raster_csv_runs_before_any_command(tmp_path):
    # scripts/make_figure_data.py writes its raster with it, outside main
    script = (
        "import trapcc\n"
        "from trapcc.cli import raster_csv\n"
        "grid = trapcc.raster((0.0, 1.0), (0.0, 1.0), 2, 2)\n"
        "print(len(''.join(raster_csv(grid)).splitlines()))\n"
    )
    assert fresh(tmp_path, script) == "5"
