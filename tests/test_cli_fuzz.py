"""Every command of the CLI, run in process on drawn arguments: each ends
with a documented exit code other than 70 (internal error), and none prints
a traceback.

The numbers include nan, infinities, signed zeros, subnormals, huge values
and non-numeric text; ``--dt`` is often ``t_end / N`` moved a few ulps.
Grids stay at most 8 cells per axis, or just over one block of rows
(``regions.row_blocks``) so that a run spans two.  A simulation runs at
most 500 RK4 steps, or asks for more than ``dynamics.MAX_STEPS`` and must
be refused with exit 64; step counts in between are skipped for their cost.
A beta range may end at 1e27, where the masses of the top rows overflow.
"""

import contextlib
import io
import math

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from trapcc.cli import main
from trapcc.dynamics import MAX_STEPS

DOCUMENTED = {0, 1, 2, 3, 64, 65, 74}
STEP_BUDGET = 500

SPECIAL = [
    "nan", "-nan", "inf", "-inf", "infinity", "0", "-0", "0.0", "-0.0",
    "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-310", "1e-300",
    "1e308", "-1e308", "1.7976931348623157e308", "1e400", "1e60", "1e-16",
    "abc", "", " ", "1,2", "0x1p3", "1e", "--1", "1_0", "2.5",
]
# text without digits of any script, so that no drawn text parses as a
# large integer resolution
NON_NUMERIC = st.text(
    alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=6
)
numbers = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats().map(repr),
    st.floats(min_value=-3.0, max_value=3.0).map(repr),
    NON_NUMERIC,
)


def mostly(valid):
    """``valid`` four draws in five and any of ``numbers`` the fifth, so
    that most runs get past the argument checks into the solvers."""
    return st.integers(min_value=0, max_value=4).flatmap(lambda i: valid if i else numbers)


def floats_in(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


def range_in(lo, hi):
    pairs = st.tuples(st.floats(min_value=lo, max_value=hi), st.floats(min_value=lo, max_value=hi))
    return mostly(pairs.map(sorted).map(lambda p: f"{p[0]!r},{p[1]!r}"))


side = st.integers(min_value=1, max_value=8).map(str)
resolutions = st.one_of(
    side,
    st.tuples(side, side).map("x".join),
    st.sampled_from(["0", "-1", "8X8", "x", "2x", "1x2x3", "1.5", "nan"]),
    NON_NUMERIC,
    # 16386 or 16385 cells: two blocks of rows
    st.sampled_from(["8193x2", "2x8193", "1x16385"]),
)
alphas = mostly(floats_in(0.0, 1.0))
betas = mostly(floats_in(0.0, 2.0))
# masses overflow from beta about 4.6e25 on
beta_ranges = st.integers(min_value=0, max_value=4).flatmap(
    lambda i: range_in(0.0, 2.0) if i else st.floats(0.0, 1e26).map(lambda lo: f"{lo!r},1e27")
)


def as_float(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def steps_asked(argv):
    """``t_end / dt`` of a simulate argv, as the CLI computes it, or nan when
    either is not a positive finite number."""
    flags = dict(arg[2:].split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg)
    t_end, step = as_float(flags["periods"]) * 2.0 * math.pi, as_float(flags["dt"])
    return t_end / step if 0.0 < t_end < math.inf and 0.0 < step < math.inf else math.nan


@st.composite
def simulate_args(draw):
    periods = draw(mostly(floats_in(0.0, 2.0)))
    t_end = as_float(periods) * 2.0 * math.pi
    if 0.0 < t_end < math.inf and draw(st.integers(min_value=0, max_value=4)):
        # t_end / N moved k ulps: the ratio lands a rounding error off N,
        # where N is within the budget or, one draw in five, over the cap
        steps = draw(st.integers(min_value=0, max_value=4).flatmap(
            lambda i: st.integers(1, STEP_BUDGET - 1) if i else st.integers(MAX_STEPS + 1, 2**53)
        ))
        dt = t_end / steps
        ulps = draw(st.integers(min_value=-3, max_value=3))
        for _ in range(abs(ulps)):
            dt = math.nextafter(dt, math.copysign(math.inf, ulps))
        dt = repr(dt)
    else:
        dt = draw(numbers)
    args = [
        "simulate", f"--alpha={draw(alphas)}", f"--beta={draw(betas)}",
        f"--periods={periods}", f"--dt={dt}",
        f"--stride={draw(mostly(st.integers(min_value=1, max_value=10).map(str)))}",
    ]
    if draw(st.booleans()):
        args.append("--force")
    # a run longer than the budget that the cap lets through is left out
    # for its cost alone
    assume(not STEP_BUDGET < steps_asked(args) <= MAX_STEPS)
    return args


commands = st.one_of(
    st.builds(
        lambda a, b, fmt: ["masses", f"--alpha={a}", f"--beta={b}", f"--format={fmt}"],
        alphas, betas, st.sampled_from(["csv", "json", "xml"]),
    ),
    st.builds(
        lambda a, b, tol: ["verify", f"--alpha={a}", f"--beta={b}", f"--tol={tol}"],
        alphas, betas, mostly(floats_in(0.0, 1e-3)),
    ),
    st.builds(
        lambda a, b, res: ["raster", f"--alpha-range={a}", f"--beta-range={b}",
                           f"--resolution={res}"],
        range_in(0.0, 1.0), beta_ranges, resolutions,
    ),
    st.builds(
        lambda which, axis, fixed, method, interval: [
            "boundary", f"--which={which}", f"--axis={axis}", f"--fixed={fixed}",
            f"--method={method}", *([f"--search-interval={interval}"] if interval else []),
        ],
        st.sampled_from(["f1", "f3", "f2"]), st.sampled_from(["alpha", "beta"]),
        st.lists(mostly(floats_in(0.0, 2.0)), max_size=4).map(",".join),
        st.sampled_from(["exact", "published"]), st.one_of(st.none(), range_in(0.0, 2.0)),
    ),
    simulate_args(),
    st.builds(lambda res: ["compare-approx", f"--resolution={res}"], resolutions),
)


@given(argv=commands, out=st.sampled_from(["out.csv", "missing/out.csv"]))
# finite periods whose end time overflows to inf
@example(argv=["simulate", "--alpha=1", "--beta=1", "--periods=1e308", "--dt=1"], out="out.csv")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_every_command_exits_with_a_documented_code(tmp_path_factory, argv, out):
    if argv[0] in ("raster", "boundary", "simulate"):
        argv = [*argv, f"--out={tmp_path_factory.getbasetemp() / out}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in DOCUMENTED, (code, err)
    if argv[0] == "simulate" and steps_asked(argv) > MAX_STEPS:
        assert code == 64, err
    assert "Traceback" not in err and "internal error" not in err, err
