"""The package surface and what each entry point imports.

``import trapcc`` and ``trapcc.cli`` load a layer module only when one of
its names is first used, so these tests run fresh interpreters where the
answer depends on what is already loaded.
"""

import ast
import builtins
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trapcc

SRC = str(Path(trapcc.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# the public names, by defining module, in the order of trapcc.__all__
SURFACE = {
    "geometry": [
        "DegenerateMassError", "TrapezoidConfiguration", "TrapezoidParams",
        "build_configuration",
    ],
    "masses": [
        "DegenerateConfigurationError", "MassSolution", "REGION_LABELS", "RegionLabel",
        "classify", "region_label", "solve_masses", "solve_masses_linear",
    ],
    "oracle": [
        "CoincidentBodiesError", "DEFAULT_CC_TOL", "MAX_BODIES", "PlanarSystem",
        "ResidualReport", "cc_residual", "center_of_mass", "is_central_configuration",
        "potential_and_moment", "trapezoid_system",
    ],
    "dynamics": [
        "CollisionError", "MAX_STEPS", "RigidityReport", "SystemState", "Trajectory",
        "UnphysicalParametersError", "init_relative_equilibrium", "integrate",
        "rigidity_metrics",
    ],
    "regions": [
        "ApproxReport", "BoundaryCurve", "BoundarySample", "DomainAudit",
        "NegativeDiscriminantError", "NegativeRadicandError", "RasterGrid",
        "audit_published_domains", "compare_exact_vs_approx", "exact_f1", "exact_f3", "f1_approx",
        "f3_approx", "g1_published", "g3_published", "raster", "row_blocks", "trace_boundary",
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
    assert len(trapcc.__all__) == 50


@pytest.mark.parametrize("module, name", [(m, n) for m, names in SURFACE.items() for n in names])
def test_each_name_is_the_defining_modules_object(module, name):
    assert getattr(trapcc, name) is getattr(importlib.import_module(f"trapcc.{module}"), name)


def test_the_readme_library_section_names_every_public_name():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    words = {w for span in re.findall(r"`([^`]+)`", library) for w in re.findall(r"\w+", span)}
    assert [name for name in trapcc.__all__ if name not in words] == []


def test_every_name_a_command_reads_is_bound_before_it_runs():
    # a command reads its layer names from the globals that _load binds for
    # the modules it names; any other name that is neither a builtin nor
    # defined in cli is a NameError on that command's path
    tree = ast.parse(Path(SRC, "trapcc", "cli.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    # _load keeps a name that is set, so cli's own would hide the layer's
    assert defined.isdisjoint(trapcc._MODULE_OF)
    defined |= set(dir(builtins))
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and (node.name.startswith("cmd_") or node.name == "raster_csv")]
    assert len(commands) == 7
    for command in commands:
        nodes = list(ast.walk(command))
        loaded = {arg.value for node in nodes if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "_load"
                  for arg in node.args}
        local = {node.arg for node in nodes if isinstance(node, ast.arg)}
        local |= {node.id for node in nodes
                  if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
        local |= {node.name for node in nodes
                  if isinstance(node, (ast.FunctionDef, ast.ExceptHandler)) and node.name}
        read = {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unbound = sorted(name for name in read - local - defined
                         if trapcc._MODULE_OF.get(name) not in loaded)
        assert unbound == [], command.name


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
        # building the pair kernels waits for their first call
        ("from trapcc import masses, oracle", {"regions", "dynamics", "numpy"}),
        ("main(['masses', '--alpha', '0.5', '--beta', '1'])",
         {"numpy", "oracle", "dynamics", "regions"}),
        ("main(['verify', '--alpha', '0.5', '--beta', '1'])", {"regions", "dynamics"}),
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


@pytest.mark.parametrize(
    "argv", [["masses", "--alpha", "0.5", "--beta", "1"], BOUNDARY], ids=["masses", "boundary"]
)
def test_scalar_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    # the records are named tuples: building them loads neither module,
    # which together cost a fresh process about 4 ms
    script = (
        "import sys\n"
        "from trapcc.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert fresh(tmp_path, script) == "[]"


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


def test_the_tracer_patches_and_counts_through_every_hook(tmp_path):
    # besides WRAPPED, Tracer.install replaces regions.bisect (to count its
    # evaluations), dynamics._min_separation (one call per RK4 step) and
    # SystemState.from_arrays (a dynamics.sample span); spans.py is loaded
    # as it is, and each hook must still be found and still see the work
    script = (
        "import importlib.util\n"
        "import trapcc.cli as cli\n"
        "from trapcc import dynamics, regions\n"
        f"spec = importlib.util.spec_from_file_location('spans', {str(SPANS)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "hooks = lambda: (regions.bisect, dynamics._min_separation,\n"
        "                 dynamics.SystemState.from_arrays)\n"
        "before = hooks()\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "assert all(new is not old for new, old in zip(hooks(), before))\n"
        f"assert cli.main({BOUNDARY!r}) == 0\n"
        f"assert cli.main({SIMULATE!r}) == 0\n"
        "summary = tracer.summary()\n"
        "print(summary['counts'], summary['spans']['dynamics.sample'][0])\n"
    )
    counts, sample_spans = fresh(tmp_path, script).rsplit(" ", 1)
    counts = eval(counts)
    # one root, bracketed and then bisected through the counting wrapper
    assert counts["roots"] == 1 and counts["bisect_evals"] > 2
    # 0.01 periods at dt = 1e-3: ceil(0.02 * pi / 1e-3) steps
    assert counts["steps"] == 63
    # energy and angular momentum per sample, and from_arrays once
    assert int(sample_spans) == 2 * counts["samples"] + 1


def test_the_tracer_records_one_span_per_call_of_a_wrapped_function(tmp_path):
    # spans.py wraps masses.solve_masses before cli.solve_masses, and
    # oracle.trapezoid_system before cli.trapezoid_system: the cli row must
    # wrap the layer's own function, not the module row's wrapper.  The
    # check takes its forces through oracle.attraction_field, once
    script = (
        "import importlib.util\n"
        "import trapcc.cli as cli\n"
        f"spec = importlib.util.spec_from_file_location('spans', {str(SPANS)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "assert cli.main(['verify', '--alpha', '0.5', '--beta', '1']) == 1\n"
        "recorded = tracer.summary()['spans']\n"
        "print([recorded[name][0] for name in\n"
        "       ('masses.solve_masses', 'oracle.system_build', 'oracle.check',\n"
        "        'oracle.attraction_field')])\n"
    )
    assert fresh(tmp_path, script) == "[1, 1, 1, 1]"


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
        "print(len(''.join(raster_csv(grid)).splitlines()),"
        " len(''.join(raster_csv(grid, header=False)).splitlines()))\n"
    )
    assert fresh(tmp_path, script) == "5 4"
