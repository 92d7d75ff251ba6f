"""Run the benchmark alternately in two checkouts and compare them pair by pair.

Run from anywhere (standard library only)::

    python3 tools/pairs.py --workload library --pairs 10 PARENT CHANGE [--seed 1]

Pair i runs ``python3 perfbench/run.py --workload W --seed S`` once in
each checkout, PARENT first in odd pairs and CHANGE first in even ones,
so a drift in the host's speed falls on both sides alike.  Each pair
prints as it finishes; the summary follows.  For every end-to-end metric
that PARENT's ``BENCHMARK.json`` names, it prints each pair's ratio
CHANGE/PARENT, their median, each side's quartiles and median, and the
pairs CHANGE won by the metric's ``better`` direction (ties count for
neither).  The output is itself a tree document, one metric per root.
A run that exits nonzero or reports incorrect output stops the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int) -> "dict[str, float]":
    """The metric values of one untraced benchmark run in ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, encoding="utf-8")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"pairs: {checkout}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"pairs: {checkout}: the benchmark reports incorrect output")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: "list[str]") -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv[1:])
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    runs: "dict[str, list[dict[str, float]]]" = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.seed))
        print(f"pair {i} {order[0]}-first", flush=True)
        for metric in metrics:
            name = metric["name"]
            print(f" {name} {runs['parent'][-1][name]:.4g} {runs['change'][-1][name]:.4g}", flush=True)

    for metric in metrics:
        name = metric["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        print(f"metric {name}")
        print(f" better {metric['better']}")
        print(" ratios " + " ".join(f"{r:.3f}" for r in ratios))
        print(f" median_ratio {statistics.median(ratios):.3f}")
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(values)
            print(f" {side} q1 {q1:.4g} median {median:.4g} q3 {q3:.4g}")
        print(f" change_wins {wins}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
