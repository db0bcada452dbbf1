"""scripts/bench_json.py pairs benchmark runs by workload and seed and
summarises each metric of both sides."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_json.py"


def run_output(tmp_path, side, seed, wall_s, part_wall_s):
    """A file ending like the stdout of ``perfbench/run.py --trace 0``."""
    record = {"workload": "points", "seed": seed, "machine": {"nproc": 2},
              "parts": {"rigid_orbit": {"wall_s": part_wall_s}}}
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}
    path = tmp_path / f"{side}_{seed}.txt"
    path.write_text(f"points: summary\n{json.dumps({'record': record})}\n{json.dumps(result)}\n")
    return str(path)


def bench_json(parent, change):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent-commit", "e9cac61", "--protocol", "alternating",
         "--parent", *parent, "--change", *change],
        capture_output=True, text=True,
    )


def test_pairs_runs_by_seed_and_counts_the_pairs_the_change_won(tmp_path):
    parent = [run_output(tmp_path, "parent", seed, wall, 0.5)
              for seed, wall in [(1, 1.0), (2, 1.2), (3, 1.1), (4, 1.3)]]
    change = [run_output(tmp_path, "change", seed, wall, 0.4)
              for seed, wall in [(3, 0.7), (1, 0.6), (2, 1.3), (4, 0.8)]]
    proc = bench_json(parent, change)
    assert proc.returncode == 0, proc.stderr
    points = json.loads(proc.stdout)["workloads"]["points"]
    assert points["seeds"] == [1, 2, 3, 4]
    wall = points["metrics"]["wall_s"]
    assert wall["parent"]["per_seed"] == [1.0, 1.2, 1.1, 1.3]
    assert wall["change"]["per_seed"] == [0.6, 1.3, 0.7, 0.8]
    assert wall["parent"]["median"] == pytest.approx(1.15)
    assert wall["change"]["median"] == pytest.approx(0.75)
    assert wall["pairs_better"] == 3
    assert points["metrics"]["rigid_orbit.wall_s"]["pairs_better"] == 4
    assert [run["seed"] for run in points["runs"]["change"]] == [1, 2, 3, 4]


def test_refuses_runs_that_do_not_pair_up(tmp_path):
    parent = [run_output(tmp_path, "parent", seed, 1.0, 0.5) for seed in (1, 2)]
    change = [run_output(tmp_path, "change", seed, 0.9, 0.4) for seed in (1, 3)]
    proc = bench_json(parent, change)
    assert proc.returncode == 2 and "do not pair up" in proc.stderr
