"""trapcc's records are named tuples: their fields keep the order they had
as dataclasses, no field can be rebound, and the four records that check
their values refuse a bad one however they are built."""

import math

import pytest

import trapcc

# every record and its fields, in the order they had as frozen dataclasses
FIELDS = {
    "TrapezoidParams": ("alpha", "beta"),
    "TrapezoidConfiguration": ("positions", "r_A", "r_B"),
    "MassSolution": ("m", "M", "a", "b", "f1", "f2", "f3"),
    "PlanarSystem": ("masses", "positions"),
    "ResidualReport": (
        "lambda_per_body", "lambda_energy", "potential", "moment", "max_residual",
        "attraction_scale", "com",
    ),
    "SystemState": ("masses", "positions", "velocities"),
    "Trajectory": ("samples",),
    "RigidityReport": (
        "max_distance_deviation", "max_energy_drift", "max_angular_momentum_drift",
    ),
    "BoundarySample": ("fixed", "root", "f_value", "status"),
    "BoundaryCurve": ("samples", "method"),
    "DomainAudit": ("n_samples", "g1_intervals", "g3_intervals", "g1_failures", "g3_failures"),
    "RasterGrid": ("alpha_axis", "beta_axis", "f1", "f3", "m", "M", "labels"),
    "ApproxReport": (
        "sign_agreement", "max_abs_deviation", "mean_abs_deviation", "disagreements",
        "worst_cells",
    ),
}

# PlanarSystem and SystemState hold float tuples, and Trajectory its
# samples as a read-only memoryview (RasterGrid's arrays stay writable, as
# they were)
FLOAT_TUPLES = {"PlanarSystem", "SystemState"}

TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
ROW = [0.0, *[c for xy in TRIANGLE for c in xy], *[0.0] * 6, 0.0, 0.0]

# (record, valid fields in field order, a bad value of one field, message)
VALIDATING = [
    ("TrapezoidParams", {"alpha": 0.5, "beta": 1.0}, {"alpha": 5.0}, "alpha must not exceed 1"),
    ("TrapezoidParams", {"alpha": 0.5, "beta": 1.0}, {"beta": math.nan}, "must be finite"),
    ("PlanarSystem", {"masses": [1.0, 2.0, 3.0], "positions": TRIANGLE},
     {"positions": [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]}, "bodies closer than"),
    ("SystemState",
     {"masses": [1.0, 2.0, 3.0], "positions": TRIANGLE, "velocities": [[0.0, 0.0]] * 3},
     {"velocities": [[0.0, 0.0], [math.inf, 0.0], [0.0, 0.0]]}, "velocities must be finite"),
    ("Trajectory", {"samples": [ROW, [1.0, *ROW[1:]]]}, {"samples": [ROW, ROW]},
     "strictly increasing"),
]


def test_every_record_is_a_named_tuple_with_its_dataclass_field_order():
    for name, fields in FIELDS.items():
        record = getattr(trapcc, name)
        assert issubclass(record, tuple), name
        assert record._fields == fields, name


@pytest.mark.parametrize("path", ["constructor", "_make", "_replace"])
@pytest.mark.parametrize(
    "name, good, bad, message", VALIDATING,
    ids=["TrapezoidParams-alpha", "TrapezoidParams-beta", "PlanarSystem", "SystemState",
         "Trajectory"],
)
def test_a_checking_record_refuses_a_bad_value_on_every_path(name, good, bad, message, path):
    record = getattr(trapcc, name)
    valid = record(**good)
    assert type(record._make(valid)) is record and type(valid._replace()) is record
    fields = {**good, **bad}
    build = {
        "constructor": lambda: record(**fields),
        "_make": lambda: record._make(fields.values()),
        "_replace": lambda: valid._replace(**bad),
    }[path]
    with pytest.raises(ValueError, match=message):
        build()


def instances():
    """One instance of every record, built through the library."""
    params = trapcc.TrapezoidParams(0.5, 1.0)
    solution = trapcc.solve_masses(params)
    system = trapcc.trapezoid_system(params, solution.m, solution.M)
    state = trapcc.init_relative_equilibrium(trapcc.TrapezoidParams(1.0, 1.0))
    trajectory = trapcc.integrate(state, dt=1e-2, t_end=0.05, output_stride=2)
    curve = trapcc.trace_boundary("f1", "alpha", [0.5])
    return [
        params, trapcc.build_configuration(params, solution.m, solution.M), solution, system,
        trapcc.is_central_configuration(system)[1], state, trajectory,
        trapcc.rigidity_metrics(trajectory), curve.samples[0], curve,
        trapcc.audit_published_domains(), trapcc.raster((0.0, 1.0), (0.0, 1.0), 3, 2),
        trapcc.compare_exact_vs_approx((0.0, 1.0), (0.0, 1.0), 3, 2)["f1"],
    ]


def test_no_field_can_be_rebound_and_no_attribute_added():
    records = instances()
    assert sorted(type(r).__name__ for r in records) == sorted(FIELDS)
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        if type(record).__name__ == "Trajectory":
            assert type(record.samples) is memoryview and record.samples.readonly
        if type(record).__name__ in FLOAT_TUPLES:
            masses, *vectors = record
            assert type(masses) is tuple and all(type(m) is float for m in masses)
            for vector in vectors:
                assert type(vector) is tuple and all(
                    type(p) is tuple and len(p) == 2 and all(type(c) is float for c in p)
                    for p in vector
                )
