"""Reduced-size smoke test of every workload, untraced and traced.

    python3 perfbench/smoke.py

Run from the repository root; it takes about a minute. Each workload runs
through the benchmark's own code path with the reduced sizes in
``workloads.SMOKE_SPECS`` and must pass every check and report every metric.
The metric tables in ``workloads.py`` must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def benchmark_json_problems(root, workloads):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if listed != list(table):
            problems.append(f"BENCHMARK.json {key} does not match workloads.py")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(run.WORKLOADS)}")
    return problems


def main():
    root = os.getcwd()
    if not run.use_checkout(os.path.join(root, "src")):
        return 2
    import workloads

    problems = benchmark_json_problems(root, workloads)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=1.0, trace=trace)
            if run.run_one(args, root, smoke=True) != 0:
                problems.append(f"{name} trace={trace} failed its checks")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
