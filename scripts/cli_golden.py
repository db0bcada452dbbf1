#!/usr/bin/env python3
"""Golden bytes of a fixed set of trapcc CLI commands.

Runs every command below with ``python -m trapcc.cli`` into a fresh
temporary directory and prints, one line each, the exit code and the
SHA-256 of stdout, of stderr and of every file the command writes.  The
temporary directory's path is replaced by ``<tmp>`` before hashing, so two
runs of the same code print the same lines.  Diff the output taken before
and after a refactor: every line that differs is a changed byte.

    python scripts/cli_golden.py [--src DIR] > golden.txt

``--src`` picks the directory trapcc is imported from (default: the
``src`` directory of this checkout), so another checkout's output can be
taken with this script.  ``tests/cli_golden.txt`` holds this output, and
``tests/test_golden.py`` runs the script and names each command whose
line differs from it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LOCUS_BETA = "0.8771966348583974"  # beta* at alpha = 0.5
DEGENERATE_BETA = "0.5558856011724289"  # f3 = 0 at alpha = 0.9
# a 12x9 raster with one cell centre on f3 = 0
CROSSING_ALPHA = "0.3064540816991464,0.793324590166057"
CROSSING_BETA = "0.12259418646498144,0.7053292715980964"
MANY = ",".join(repr((k + 0.5) / 40) for k in range(40))

# (name, argv); an argument "@NAME" is the file NAME in the temporary
# directory, and every such file is hashed with its ".meta.json" sidecar
# when one is written
COMMANDS = [
    ("version", ["--version"]),
    ("no-command", []),
    ("unknown-command", ["frobnicate"]),
    ("masses-json", ["masses", "--alpha", "0.5", "--beta", "1"]),
    ("masses-square", ["masses", "--alpha", "1", "--beta", "1"]),
    ("masses-csv", ["masses", "--alpha", "0.7", "--beta", "0.9", "--format", "csv"]),
    ("masses-negative", ["masses", "--alpha", "0.5", "--beta", "0.5", "--format", "csv"]),
    ("masses-degenerate", ["masses", "--alpha", "0.9", "--beta", DEGENERATE_BETA]),
    ("masses-bad-alpha", ["masses", "--alpha", "0", "--beta", "1"]),
    ("masses-tiny-alpha", ["masses", "--alpha", "1e-16", "--beta", "1"]),
    ("masses-beta-above-cap", ["masses", "--alpha", "0.5", "--beta", "2.5"]),
    ("verify-square", ["verify", "--alpha", "1", "--beta", "1"]),
    ("verify-off-locus", ["verify", "--alpha", "0.5", "--beta", "1"]),
    ("verify-locus", ["verify", "--alpha", "0.5", "--beta", LOCUS_BETA]),
    ("verify-negative", ["verify", "--alpha", "0.5", "--beta", "0.5"]),
    ("verify-zero-tol", ["verify", "--alpha", "1", "--beta", "1", "--tol", "0"]),
    ("verify-negative-tol", ["verify", "--alpha", "1", "--beta", "1", "--tol", "-1"]),
    ("verify-nan-tol", ["verify", "--alpha", "1", "--beta", "1", "--tol", "nan"]),
    ("verify-coincident", ["verify", "--alpha", "1e-10", "--beta", "1"]),
    ("raster-10", ["raster", "--resolution", "10", "--out", "@raster-10.csv"]),
    ("raster-256", ["raster", "--resolution", "256x256", "--out", "@raster-256.csv"]),
    ("raster-8x6", ["raster", "--alpha-range", "0,1", "--beta-range", "0,2",
                    "--resolution", "8x6", "--out", "@raster-8x6.csv"]),
    ("raster-wide", ["raster", "--alpha-range", "0.05,0.95", "--beta-range", "0.1,1.4",
                     "--resolution", "384x160", "--out", "@raster-wide.csv"]),
    ("raster-threads", ["raster", "--resolution", "40x30", "--threads", "3",
                        "--out", "@raster-threads.csv"]),
    ("raster-degenerate", ["raster", "--alpha-range", CROSSING_ALPHA, "--beta-range",
                           CROSSING_BETA, "--resolution", "12x9", "--out", "@raster-deg.csv"]),
    ("raster-20000x2", ["raster", "--resolution", "20000x2", "--out", "@raster-20000x2.csv"]),
    # one alpha column: each block is many beta rows of one cell
    ("raster-1x20000", ["raster", "--resolution", "1x20000", "--out", "@raster-1x20000.csv"]),
    ("raster-overflow", ["raster", "--beta-range", "0,1e60", "--resolution", "2",
                         "--out", "@raster-overflow.csv"]),
    # the first block of rows is finite, the second overflows
    ("raster-overflow-late", ["raster", "--beta-range", "0,1e27", "--resolution", "16384x20",
                              "--out", "@raster-overflow-late.csv"]),
    ("raster-zero-resolution", ["raster", "--resolution", "0", "--out", "@raster-0.csv"]),
    ("raster-over-cell-cap", ["raster", "--resolution", "10001x10000",
                              "--out", "@raster-cap.csv"]),
    ("raster-unwritable", ["raster", "--resolution", "2", "--out", "@missing/x.csv"]),
    ("boundary-f1-alpha", ["boundary", "--which", "f1", "--axis", "alpha", "--fixed",
                           "0.1,0.5,0.9", "--search-interval", "0.5,1", "--out", "@b1.csv"]),
    ("boundary-f3-beta", ["boundary", "--which", "f3", "--axis", "beta", "--fixed",
                          "0.2,0.5,0.8,1.2", "--out", "@b2.csv"]),
    ("boundary-f1-beta", ["boundary", "--which", "f1", "--axis", "beta", "--fixed",
                          "0.3,0.6,0.95", "--out", "@b3.csv"]),
    ("boundary-f3-alpha-many", ["boundary", "--which", "f3", "--axis", "alpha", "--fixed",
                                MANY, "--out", "@b4.csv"]),
    ("boundary-published-f1", ["boundary", "--which", "f1", "--axis", "beta", "--fixed",
                               "0.1,0.5,0.9", "--method", "published", "--out", "@b5.csv"]),
    ("boundary-published-f3", ["boundary", "--which", "f3", "--axis", "beta", "--fixed",
                               "0.1,0.3,0.5,0.7,0.9", "--method", "published", "--out", "@b6.csv"]),
    ("boundary-empty", ["boundary", "--which", "f3", "--axis", "alpha", "--fixed", "",
                        "--out", "@b7.csv"]),
    ("boundary-nan", ["boundary", "--which", "f1", "--axis", "alpha", "--fixed", "nan",
                      "--out", "@b8.csv"]),
    ("boundary-inf", ["boundary", "--which", "f1", "--axis", "beta", "--fixed", "0.5,inf",
                      "--out", "@b9.csv"]),
    ("boundary-overflow", ["boundary", "--which", "f1", "--axis", "alpha", "--fixed", "0.5",
                           "--search-interval", "1e200,1e201", "--out", "@b10.csv"]),
    ("boundary-overflow-fixed", ["boundary", "--which", "f1", "--axis", "beta", "--fixed",
                                 "1e200", "--out", "@b11.csv"]),
    ("boundary-inf-interval", ["boundary", "--which", "f1", "--axis", "alpha", "--fixed", "",
                               "--search-interval", "0,inf", "--out", "@b12.csv"]),
    # fixed values and search-interval ends off the plane
    ("boundary-negative-alpha", ["boundary", "--which", "f1", "--axis", "alpha", "--fixed",
                                 "-0.5", "--out", "@b13.csv"]),
    ("boundary-zero-alpha", ["boundary", "--which", "f3", "--axis", "alpha", "--fixed", "0",
                             "--out", "@b14.csv"]),
    ("boundary-alpha-interval-above-1", ["boundary", "--which", "f3", "--axis", "beta",
                                         "--fixed", "0.5", "--search-interval", "0.5,1.5",
                                         "--out", "@b15.csv"]),
    ("boundary-beta-interval-below-0", ["boundary", "--which", "f1", "--axis", "alpha",
                                        "--fixed", "0.5", "--search-interval=-1,1",
                                        "--out", "@b16.csv"]),
    ("simulate-square", ["simulate", "--alpha", "1", "--beta", "1", "--out", "@s1.csv"]),
    ("simulate-locus", ["simulate", "--alpha", "0.5", "--beta", LOCUS_BETA, "--out", "@s2.csv"]),
    ("simulate-off-locus", ["simulate", "--alpha", "0.5", "--beta", "1.0", "--periods", "0.5",
                            "--out", "@s3.csv"]),
    ("simulate-refused", ["simulate", "--alpha", "0.5", "--beta", "0.5", "--out", "@s4.csv"]),
    ("simulate-force", ["simulate", "--alpha", "0.5", "--beta", "0.5", "--force",
                        "--periods", "0.2", "--dt", "1e-2", "--stride", "3", "--out", "@s5.csv"]),
    ("simulate-zero-periods", ["simulate", "--alpha", "1", "--beta", "1", "--periods", "0",
                               "--out", "@s6.csv"]),
    ("simulate-bad-dt", ["simulate", "--alpha", "1", "--beta", "1", "--dt", "0",
                         "--out", "@s7.csv"]),
    ("simulate-every-step", ["simulate", "--alpha", "0.5", "--beta", LOCUS_BETA, "--periods",
                             "0.05", "--stride", "1", "--out", "@s8.csv"]),
    ("simulate-square-every-step", ["simulate", "--alpha", "1", "--beta", "1", "--stride", "1",
                                    "--out", "@s14.csv"]),
    ("simulate-zero-stride", ["simulate", "--alpha", "1", "--beta", "1", "--stride", "0",
                              "--out", "@s9.csv"]),
    ("simulate-inf-periods", ["simulate", "--alpha", "1", "--beta", "1", "--periods", "inf",
                              "--out", "@s10.csv"]),
    ("simulate-nan-dt", ["simulate", "--alpha", "1", "--beta", "1", "--dt", "nan",
                         "--out", "@s11.csv"]),
    ("simulate-coincident", ["simulate", "--alpha", "1e-10", "--beta", "1",
                             "--out", "@s12.csv"]),
    ("simulate-degenerate", ["simulate", "--alpha", "1", "--beta", "1e-5", "--out", "@s13.csv"]),
    # a step far longer than the run still integrates, to t_end
    ("simulate-huge-dt", ["simulate", "--alpha", "1", "--beta", "1", "--periods", "1",
                          "--dt", "1e13", "--out", "@s15.csv"]),
    # t_end / dt is 10000.000000000004, and 10000 steps already reach t_end
    ("simulate-dt-edge", ["simulate", "--alpha", "1", "--beta", "1", "--periods", "1",
                          "--dt", "0.0006283185307179584", "--out", "@s16.csv"]),
    # 6.3e10 RK4 steps, more than dynamics.MAX_STEPS
    ("simulate-over-step-cap", ["simulate", "--alpha", "1", "--beta", "1", "--periods", "1e-290",
                                "--dt", "1e-300", "--out", "@s17.csv"]),
    ("compare-20", ["compare-approx", "--resolution", "20"]),
    ("compare-1x1", ["compare-approx", "--resolution", "1x1"]),
    ("compare-37x53", ["compare-approx", "--resolution", "37x53", "--out", "@c1.json"]),
    ("compare-1000", ["compare-approx", "--resolution", "1000", "--out", "@c2.json"]),
    ("compare-800x1250", ["compare-approx", "--resolution", "800x1250", "--out", "@c3.json"]),
    ("compare-20000x3", ["compare-approx", "--resolution", "20000x3"]),
    ("compare-3x20000", ["compare-approx", "--resolution", "3x20000", "--out", "@c4.json"]),
    ("compare-1x20000", ["compare-approx", "--resolution", "1x20000", "--out", "@c6.json"]),
    ("compare-zero", ["compare-approx", "--resolution", "0"]),
    ("compare-over-cell-cap", ["compare-approx", "--resolution", "100000"]),
    # the last compare shape of the plane benchmark workload
    ("compare-1250x800", ["compare-approx", "--resolution", "1250x800", "--out", "@c5.json"]),
]


def digest(data: bytes, tmp: str) -> str:
    return hashlib.sha256(data.replace(tmp.encode(), b"<tmp>")).hexdigest()


def run(name: str, argv: list[str], tmp: str, env: dict) -> list[str]:
    files = [Path(tmp, arg[1:]) for arg in argv if arg.startswith("@")]
    argv = [str(Path(tmp, arg[1:])) if arg.startswith("@") else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "trapcc.cli", *argv], env=env, cwd=tmp,
                          capture_output=True)
    lines = [
        f"{name} exit {proc.returncode}",
        f"{name} stdout {digest(proc.stdout, tmp)}",
        f"{name} stderr {digest(proc.stderr, tmp)}",
    ]
    for path in files + [Path(f"{p}.meta.json") for p in files]:
        if path.exists():
            lines.append(f"{name} {path.name} {digest(path.read_bytes(), tmp)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory to import trapcc from")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    with tempfile.TemporaryDirectory(prefix="trapcc-golden-") as tmp:
        for name, command in COMMANDS:
            print("\n".join(run(name, command, tmp, env)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
