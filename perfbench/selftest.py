#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload twice with seed ``SEED`` and ``--trace 1``, and fails if
   a run is incorrect or the two runs disagree on any work count or span
   count.  (Within a run, every pass already repeats the seed's inputs and
   must repeat its counts.)
2. Copies only ``BENCHMARK.json`` and the benchmark's directory into an
   empty directory and checks that the benchmark refuses to run there:
   exit code not 0, no result line.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
SEED = 7
SECONDS = 1.0  # below one pass: every run makes the minimum number of passes


def run(cwd: Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    problems = []
    for workload in sorted(WORKLOADS):
        before, seen = len(problems), []
        for _ in range(2):
            done = run(ROOT, workload)
            if done.returncode != 0:
                problems.append(f"{workload}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
                break
            lines = done.stdout.strip().splitlines()
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            if not result["correct"]:
                problems.append(f"{workload}: incorrect: {record['errors'][:3]}")
            seen.append((record["counts"], record["span_counts"]))
        if len(seen) == 2 and seen[0] != seen[1]:
            problems.append(f"{workload}: counts differ between two runs of seed {SEED}: {seen}")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run(bare, sorted(WORKLOADS)[0])
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 or (lines and lines[-1].startswith("{")):
            problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
        print(f"bare directory: exit {done.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
