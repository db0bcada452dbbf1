#!/usr/bin/env python3
"""trapcc benchmark: seeded workloads, output checks, end-to-end and
per-module metrics.

    python3 perfbench/run.py --workload plane --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from anywhere; it measures the ``src/trapcc`` next to this directory
and refuses to run without it.  Each run repeats one seeded pass of its
workload (see ``workloads.json``) as a closed loop, one trapcc process at a
time, until ``--seconds`` are used up, and checks every output.

With ``--trace 0`` the last stdout line reports, over the passes:

* ``wall_s``: wall time of one pass, each operation at its fastest;
* ``cpu_s``: user + system CPU time of the trapcc processes of one pass,
  each operation at its fastest;
* ``setup_s``: median time until trapcc is ready for its first operation
  (a ``python -m trapcc.cli --version`` child before each pass);
* ``peak_rss_mb``: peak resident set of any trapcc process of the run.

Every pass repeats the same operations on the same inputs, so each
operation is timed once per pass; ``wall_s`` and ``cpu_s`` add up, over the
operations of a pass, the fastest of each operation's times.  The summary
and the record line also give these sums for each part of the workload
(see ``workloads.py``).

Why the fastest time: on a 2-vCPU Xeon virtual machine shared with other
tenants, CPU speed changed from one tenth of a second to the next by up to
2x and over minutes by up to 1.7x.  CPU time moves with wall time (the work
is slowed on the CPU, not descheduled), so the mean or median pass mostly
measured the neighbours' load: over ten seeded 25 s runs, the quartile
distance over the median of the mean pass reached 0.43.  A program cannot
run faster than the hardware allows, so an operation's fastest time is the
one that least depends on that load, and the longer the run, the surer it
is to hold a fast spell.  In 7 minutes of sub-second timings of a fixed
job, the quartile distance over the median of the fastest time in a window
was 0.22 for 30 s windows and 0.11 for 60 s windows; hence two workloads
and long runs.  Every operation time, set-up sample and speed-probe time is
kept in the record line, so a shift of the machine's own speed can be told
from a change of the program.

With ``--trace 1`` passes alternate between untraced and traced children,
and the last line reports per-module span totals and work counts (see
``spans.py``) plus ``trace.overhead``, traced over untraced pass wall time.
The line before it is a record of the machine, a speed probe that does not
use trapcc (timed before each pass, never used to rescale), the work counts,
the sample counts and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
MIN_PASSES = 3
MAX_SECONDS = 120.0  # hard stop for the pass loop, whatever --seconds says
CHILD_TIMEOUT = 100.0


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float
    spans: dict | None = None
    errors: list[str] = field(default_factory=list)  # failed points of the point loop


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("TRAPCC_THREADS", None)
        self.env["PYTHONPATH"] = str(SRC)

    def spawn(self, cmd: list[str]) -> Outcome:
        out, err = self.work / "child.out", self.work / "child.err"
        launcher = [sys.executable, str(HERE / "launch.py"), str(out), str(err), str(CHILD_TIMEOUT)]
        # own session: on any exit the launcher and its trapcc child are killed together
        proc = subprocess.Popen(launcher + cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            report, _ = proc.communicate(timeout=CHILD_TIMEOUT + 10.0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"launcher exited {proc.returncode}")
        return Outcome(
            stdout=out.read_text(encoding="utf-8", errors="replace"),
            stderr=err.read_text(encoding="utf-8", errors="replace"),
            **json.loads(report),
        )

    def run(self, op, traced: bool) -> Outcome:
        spans_path = self.work / "spans.json"
        if op.points:
            cmd = [sys.executable, str(HERE / "child.py"), "points", *op.argv,
                   str(spans_path) if traced else "-"]
        elif traced:
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path), *op.argv]
        else:
            cmd = [sys.executable, "-m", "trapcc.cli", *op.argv]
        outcome = self.spawn(cmd)
        if traced and spans_path.exists():
            outcome.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return outcome


def speed_probe() -> float:
    """A fixed pure-Python and numpy job that does not touch trapcc."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    a = np.arange(250_000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def machine_record() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def run_pass(runner: Runner, ops, traced: bool, expected_exit) -> dict:
    """Run every operation once; check and delete its outputs."""
    from workloads import CheckFailed

    record = {"wall": [], "cpu": [], "rss_mb": 0.0, "attempted": 0, "failed": 0,
              "counts": Counter(), "spans": {}, "span_counts": Counter(), "errors": []}
    for op in ops:
        outcome = runner.run(op, traced)
        record["wall"].append(outcome.wall)
        record["cpu"].append(outcome.cpu)
        record["rss_mb"] = max(record["rss_mb"], outcome.rss_mb)
        record["attempted"] += op.attempted
        try:
            if outcome.returncode not in expected_exit:
                raise CheckFailed(f"exit {outcome.returncode}: {outcome.stderr.strip()[-300:]}")
            if "Traceback" in outcome.stderr:
                raise CheckFailed(f"traceback on stderr: {outcome.stderr.strip()[-300:]}")
            counts = op.check(outcome)
            record["failed"] += counts.pop("failed", 0)
            record["errors"].extend(outcome.errors)
            record["counts"] += counts
            record["counts"]["exit_" + str(outcome.returncode)] += 1
        except Exception as err:  # any bad output fails the operation
            record["failed"] += op.attempted
            record["errors"].append(f"{' '.join(op.argv)[:120]}: {type(err).__name__}: {err}")
        finally:
            for path in op.outputs:
                path.unlink(missing_ok=True)
        if outcome.spans is not None:
            for name, (calls, total, self_time) in outcome.spans["spans"].items():
                entry = record["spans"].setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_time
            record["span_counts"] += Counter(outcome.spans["counts"])
    return record


def fastest(passes: list[dict], key: str, ops=None, part=None) -> float:
    """One pass (or one part of it) with every operation at the fastest of
    its times."""
    times = [min(t) for t in zip(*(p[key] for p in passes))]
    if part is not None:
        times = [t for t, op in zip(times, ops) if op.part == part]
    return sum(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import workloads
    from spans import layer_metrics

    runner = Runner(work)
    machine = machine_record()
    version = [sys.executable, "-m", "trapcc.cli", "--version"]
    if runner.spawn(version).returncode != 0:  # untimed: fills the bytecode and page caches
        raise workloads.SetupError("`python -m trapcc.cli --version` failed")
    ops = workloads.prepare(name, random.Random(seed), work)
    expected_exit = set(WORKLOADS[name]["expected_exit"])

    setup, plain, traced, probes = [], [], [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        probes.append(speed_probe())
        outcome = runner.spawn(version)  # one set-up sample per pass, spread over the run like the passes
        if outcome.returncode != 0:
            raise workloads.SetupError("`python -m trapcc.cli --version` failed")
        setup.append(outcome.wall)
        plain.append(run_pass(runner, ops, False, expected_exit))
        if trace:
            traced.append(run_pass(runner, ops, True, expected_exit))
        elapsed = time.perf_counter() - start
        step = time.perf_counter() - begin
        limit = seconds if len(plain) >= MIN_PASSES else MAX_SECONDS
        if elapsed + step > min(limit, MAX_SECONDS):
            break
    measured = time.perf_counter() - start

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    for group in (plain, traced):
        for p in group[1:]:
            for key in ("counts", "span_counts"):
                if p[key] != group[0][key]:
                    errors.append(f"{key} differ between passes of one seed: {dict(group[0][key])} vs {dict(p[key])}")

    metrics = {}
    if trace:
        per_pass = [layer_metrics(p["spans"], p["span_counts"]) for p in traced]
        for key, (_, unit) in per_pass[0].items():
            metrics[key] = {"value": statistics.median(m[key][0] for m in per_pass), "unit": unit}
        overhead = fastest(traced, "wall") / fastest(plain, "wall")
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": fastest(plain, "wall"), "unit": "s"},
            "cpu_s": {"value": fastest(plain, "cpu"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(p["rss_mb"] for p in plain), "unit": "MB"},
        }

    machine["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine,
        "measured_s": measured,
        "samples": {"passes": len(plain), "traced_passes": len(traced), "setup": len(setup)},
        "op_wall_s": [p["wall"] for p in plain],  # one list per pass, one time per operation
        "op_cpu_s": [p["cpu"] for p in plain],
        "setup_s": setup,
        "probe_s": probes,
        "parts": {part: {"wall_s": fastest(plain, "wall", ops, part), "cpu_s": fastest(plain, "cpu", ops, part)}
                  for part in workloads.PARTS[name]},
        "counts": dict(plain[0]["counts"]),
        "span_counts": dict(traced[0]["span_counts"]) if traced else {},
        "error_rate": failed / attempted,
        "errors": errors[:20],
    }
    return {
        "record": record,
        "result": {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def summary_lines(name: str, outcome: dict) -> list[str]:
    record, result = outcome["record"], outcome["result"]
    lines = [f"{name}: {record['samples']['passes']} passes in {record['measured_s']:.1f} s, "
             f"speed probe {statistics.median(record['probe_s']) * 1e3:.1f} ms"]
    for key, metric in result["metrics"].items():
        lines.append(f"  {key:36s} {metric['value']:.6g} {metric['unit']}")
    for part, times in record["parts"].items():
        lines.append(f"  {part + ' part':36s} wall_s {times['wall_s']:.6g} s, cpu_s {times['cpu_s']:.6g} s")
    lines.append(f"  {'error_rate':36s} {record['error_rate']:.6g} ratio "
                 f"({result['failed']} failed of {result['attempted']} attempted)")
    lines.extend(f"  ERROR {e}" for e in record["errors"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trapcc" / "__init__.py").is_file():
        print(f"perfbench: no trapcc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trapcc
    from workloads import SetupError

    if Path(trapcc.__file__).resolve().parent != SRC / "trapcc":
        print(f"perfbench: imported trapcc from {trapcc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # run the clean-up below
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        outcomes = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), work) for name in names}
    except SetupError as err:
        print(f"perfbench: set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for name, outcome in outcomes.items():
        print("\n".join(summary_lines(name, outcome)))
    if len(names) == 1:
        outcome = outcomes[names[0]]
        print(json.dumps({"record": outcome["record"]}))
        print(json.dumps(outcome["result"]))
    else:
        results = [o["result"] for o in outcomes.values()]
        print(json.dumps({"records": [o["record"] for o in outcomes.values()]}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{key}": metric for name, o in outcomes.items()
                        for key, metric in o["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
