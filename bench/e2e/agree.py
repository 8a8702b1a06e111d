#!/usr/bin/env python3
"""Compares two sets of latte_bench runs metric by metric.

Usage, from the repository root:

    python3 bench/e2e/agree.py BASE_DIR CANDIDATE_DIR [--benchmark BENCHMARK.json]

Each directory is searched recursively for the <workload>.json records
latte_bench writes (run.py --out DIR puts one there per run).  For every
workload in both sets and every end-to-end metric of BENCHMARK.json, it
prints each side's median and quartiles (statistics.quantiles, n=4), the
candidate's change as a share of the base median (positive = better in the
metric's direction) and a status:

    agree       |change| <= bound
    better      improved by more than the bound
    worse       regressed by more than the bound
    unresolved  a side's quartile spread exceeds the bound, so the runs
                cannot tell a change of that size from noise

Traced records are compared the same way for the per-layer metrics, which
have no bound (status "info").  Exits 1 if any metric is worse or
unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory):
    """(workload, mode) -> list of run records."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or record.get("bench") != "latte_e2e":
            continue
        runs.setdefault((record["workload"], record["mode"]), []).append(record)
    return runs


def summarize(values):
    """(median, q1, q3, spread) of a sample; spread = (q3 - q1) / |median|."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else (0.0 if q1 == q3 else float("inf"))
    return median, q1, q3, spread


def compare(base, cand, metric):
    """One table row: both summaries, the directed change and the status."""
    name, bound = metric["name"], metric.get("bound")
    a = [r["metrics"][name]["value"] for r in base]
    b = [r["metrics"][name]["value"] for r in cand]
    sa, sb = summarize(a), summarize(b)
    sign = 1 if metric["better"] == "higher" else -1
    if sa[0]:
        change = sign * (sb[0] - sa[0]) / abs(sa[0])
    else:
        change = 0.0 if sb[0] == sa[0] else sign * float("inf")
    if bound is None:
        status = "info"
    elif max(sa[3], sb[3]) > bound:
        status = "unresolved"
    elif abs(change) <= bound:
        status = "agree"
    else:
        status = "better" if change > 0 else "worse"
    return sa, sb, change, status


def fmt(summary):
    median, q1, q3, _ = summary
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(args.benchmark.read_text())
    base, cand = load_runs(args.base), load_runs(args.candidate)
    tables = {"untraced": spec["end_to_end"], "traced": spec["per_layer"]}
    counts = {}
    header = (f"{'workload':14} {'metric':26} {'base median [q1, q3]':36} "
              f"{'candidate median [q1, q3]':36} {'change':>9} {'bound':>6}  status")
    print(header)
    for key in sorted(set(base) & set(cand)):
        workload, mode = key
        for metric in tables[mode]:
            sa, sb, change, status = compare(base[key], cand[key], metric)
            counts[status] = counts.get(status, 0) + 1
            bound = metric.get("bound")
            print(f"{workload:14} {metric['name']:26} {fmt(sa):36} {fmt(sb):36} "
                  f"{change:+9.4f} {bound if bound is not None else '-':>6}  {status}")
    for key in sorted(set(base) ^ set(cand)):
        print(f"{key[0]} ({key[1]}): runs on one side only")
    runs = {k: (len(base.get(k, [])), len(cand.get(k, []))) for k in set(base) | set(cand)}
    print("runs per side: " + ", ".join(
        f"{w}/{m} {n}+{c}" for (w, m), (n, c) in sorted(runs.items())))
    print("summary: " + ", ".join(f"{s} {n}" for s, n in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("unresolved") else 0


if __name__ == "__main__":
    sys.exit(main())
