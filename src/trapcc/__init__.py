"""Central configurations of the isosceles-trapezoid four-body problem.

Closed-form pair masses, sign analysis of the parameter plane, a generic
planar N-body centrality checker, and a fixed-step integrator for
rigid-rotation verification.  See the README for the CLI surface.

``import trapcc`` loads none of the modules below: the first lookup of a
public name (or of a module, ``trapcc.regions``) imports its module
(PEP 562), so a process pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines, in the order of __all__
_NAMES = {
    "geometry": (
        "DegenerateMassError", "TrapezoidConfiguration", "TrapezoidParams",
        "build_configuration",
    ),
    "masses": (
        "DegenerateConfigurationError", "MassSolution", "REGION_LABELS", "RegionLabel",
        "classify", "region_label", "solve_masses", "solve_masses_linear",
    ),
    "oracle": (
        "CoincidentBodiesError", "DEFAULT_CC_TOL", "MAX_BODIES", "PlanarSystem", "ResidualReport",
        "cc_residual", "center_of_mass", "is_central_configuration",
        "potential_and_moment", "trapezoid_system",
    ),
    "dynamics": (
        "CollisionError", "MAX_STEPS", "RigidityReport", "SystemState", "Trajectory",
        "UnphysicalParametersError", "init_relative_equilibrium", "integrate",
        "rigidity_metrics",
    ),
    "regions": (
        "ApproxReport", "BoundaryCurve", "BoundarySample", "DomainAudit",
        "NegativeDiscriminantError", "NegativeRadicandError", "RasterGrid",
        "audit_published_domains", "compare_exact_vs_approx", "exact_f1", "exact_f3", "f1_approx",
        "f3_approx", "g1_published", "g3_published", "raster", "row_blocks", "trace_boundary",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
