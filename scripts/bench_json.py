#!/usr/bin/env python3
"""Summarise alternating benchmark runs of two trees as one BENCH_*.json.

    python scripts/bench_json.py --parent-commit SHA --protocol TEXT \\
        --parent parent_1.txt ... --change change_1.txt ... > BENCH_27.json

Each file is the stdout of one ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0`` run, of the parent tree or of the change;
only its last two lines are read, the record (seed, machine, the sums of
each part of the workload) and the result (the end-to-end metrics, whether
every output was correct, the failed operations).  Runs pair up by
workload and seed.  For each workload and each end-to-end metric or part
sum the output holds both sides' per-seed values, medians and quartiles
(``statistics.quantiles``, exclusive method) and the number of pairs in
which the change was better; every metric is better lower.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def read_run(path: str) -> dict:
    """The workload, seed, machine, metrics and error counts of one run."""
    with open(path, encoding="utf-8") as fh:
        *_, record_line, result_line = fh.read().splitlines()
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    for part, sums in record["parts"].items():
        metrics.update({f"{part}.{name}": value for name, value in sums.items()})
    return {
        "workload": record["workload"], "seed": record["seed"], "machine": record["machine"],
        "metrics": metrics, "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--protocol", required=True, help="how the runs were taken")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    runs = {side: {(run["workload"], run["seed"]): run for run in map(read_run, paths)}
            for side, paths in (("parent", args.parent), ("change", args.change))}
    if runs["parent"].keys() != runs["change"].keys():
        parser.error("the parent and change runs do not pair up by workload and seed")

    workloads = {}
    for workload in sorted({workload for workload, _ in runs["parent"]}):
        pairs = sorted(key for key in runs["parent"] if key[0] == workload)
        sides = {side: [runs[side][key] for key in pairs] for side in runs}
        metrics = {}
        for name in sides["parent"][0]["metrics"]:
            values = {side: [run["metrics"][name] for run in sides[side]] for side in sides}
            metrics[name] = {
                **{side: {**summary(v), "per_seed": v} for side, v in values.items()},
                "pairs_better": sum(c < p for p, c in zip(values["parent"], values["change"])),
            }
        workloads[workload] = {
            "seeds": [seed for _, seed in pairs],
            "metrics": metrics,
            "runs": {side: [{key: run[key] for key in ("seed", "correct", "attempted", "failed",
                                                         "machine")} for run in sides[side]]
                     for side in sides},
        }
    json.dump({
        "parent_commit": args.parent_commit,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0",
        "protocol": args.protocol,
        "workloads": workloads,
    }, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
