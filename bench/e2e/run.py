#!/usr/bin/env python3
"""Builds latte_bench from source and runs one workload of the benchmark.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload encode-short --seed 1 --seconds 12 \
        --trace 0 [--out DIR]

The first run configures and builds build-e2e/ (cmake, Release); later runs
only check it is up to date.  latte_bench's own lines go to stdout as it
prints them, build output goes to stderr, and the last stdout line is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  The run's full JSON record is written to
DIR/<workload>.json (default build-e2e/runs/<workload>-seed<n>[-traced]),
and a traced run adds DIR/trace/<workload>.trace.json (Chrome trace) and
DIR/trace/<workload>.layers.json.  Exits non-zero without a result line
when the build fails, and with correct=false when a check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / "build-e2e"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds latte_bench; returns the exit code."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", str(BUILD), "--target", "latte_bench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    code = build()
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code

    suffix = "-traced" if args.trace else ""
    out = args.out or BUILD / "runs" / f"{args.workload}-seed{args.seed}{suffix}"
    cmd = [str(BUILD / "latte_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--out", str(out)]
    if args.trace:
        cmd += ["--trace", str(out / "trace")]
    record = out / f"{args.workload}.json"
    if record.exists():
        record.unlink()
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: latte_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if not record.exists():
        print(f"run.py: latte_bench wrote no record ({code})", file=sys.stderr)
        return code or 1

    run = json.loads(record.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    complete = True
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None \
                or not math.isfinite(got["value"]):
            print(f"run.py: metric {m['name']} missing or malformed: {got}",
                  file=sys.stderr)
            complete = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = code == 0 and run["ops_failed"] == 0 and complete
    print(json.dumps({"correct": correct,
                      "attempted": run["ops_attempted"],
                      "failed": run["ops_failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
