"""Benchmark of mswavenet: training throughput, serving latency, set-up and memory.

Run from the repository root:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a fresh process. With
``--trace 0`` the run prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics and the tracing overhead instead, and writes the spans to
``.perfbench_out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("train_small", "train_paper", "serve")
BLAS_THREADS = 1  # one client per process; a second BLAS thread gains nothing at these sizes
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
SCOPE = (
    "measures only the benchmark's own process; no cache drop, CPU pinning, "
    "or kernel or cgroup settings"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": BLAS_THREADS,
        "scope": SCOPE,
    }


def code_hash(root):
    """Digest of the package and benchmark sources: counts are compared only
    between runs of the same code."""
    digest = hashlib.sha256()
    for sub in ("src/mswavenet", "perfbench"):
        for name in sorted(os.listdir(os.path.join(root, sub))):
            if name.endswith(".py"):
                with open(os.path.join(root, sub, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def check_counts(path, counts):
    """Compare exact counts with an earlier run of the same code and seed,
    then store the union; returns the names that differ."""
    stored = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    differ = [k for k in counts if k in stored and stored[k] != counts[k]]
    stored.update(counts)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    return differ


def use_checkout(src):
    """Pin the BLAS pool and import mswavenet from this checkout's src/."""
    # the BLAS pool size is read when numpy loads, so set it first
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    import mswavenet

    if not os.path.realpath(mswavenet.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"perfbench: imported mswavenet from {mswavenet.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def run_all(args):
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def run_one(args, root, smoke=False):
    import workloads

    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        out = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run = out["run"]
    e2e = out["end_to_end"]
    counts = {name: run.counts[name] for name in workloads.EXACT_COUNTS if name in run.counts}
    counts["loss_final"] = repr(out["loss_final"])
    os.makedirs(os.path.join(root, OUT_DIR, "counts"), exist_ok=True)
    key = f"{args.workload}-seed{args.seed}-{'smoke-' if smoke else ''}{code_hash(root)}"
    for name in check_counts(os.path.join(root, OUT_DIR, "counts", key + ".json"), counts):
        run.check(False, f"{name} differs from an earlier run of the same code and seed")

    table = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    values = out["per_layer"] if args.trace else e2e
    for name, _unit, _better in table:
        run.check(name in values and values[name] == values[name], f"metric {name} missing or NaN")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in table}
    correct = not run.problems
    env = environment()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "scope"))
    print(f"scope: {SCOPE}")
    for name, unit, better in table:
        alias = out["aliases"].get(name, name)
        print(f"  {alias:<44} {metrics[name]['value']:>18.6f} {unit:<10} {better}")
    alias = out["aliases"]["loss_final"]
    print(f"  {alias:<44} {out['loss_final']:>18.6f} {'norm_mse':<10} lower (checked, not bounded)")
    failed_frac = run.failed / max(run.attempted, 1)
    print(f"  {'failed_frac':<44} {failed_frac:>18.6f} ratio      ({run.failed} of {run.attempted} operations)")
    print("samples " + " ".join(f"{k}={v}" for k, v in out["samples"].items()))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")

    stem = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "spec": out["spec"], "environment": env, "correct": correct,
        "attempted": run.attempted, "failed": run.failed, "failed_frac": failed_frac,
        "problems": run.problems, "end_to_end": e2e, "loss_final": out["loss_final"],
        "aliases": out["aliases"],
        "per_layer": out["per_layer"], "counts": counts, "samples": out["samples"],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        run.tracer.write(stem + ".spans.jsonl")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mswavenet", "__init__.py")):
        print(f"perfbench: no src/mswavenet under {root}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if not use_checkout(src):
        return 2
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
