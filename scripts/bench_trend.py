#!/usr/bin/env python3
"""Advisory wall-clock trend: the committed BENCH_*.json trajectory of the
repo's benchmark.

    scripts/bench_trend.py

The BENCH_*.json files (repo root and benchmark/baseline/, ordered by PR
number) are printed as a series: per workload and end-to-end metric, the
median over each file's untraced runs, with the change against the
previous point. A file is either what `benchmark/run.sh --runs N --out
FILE` wrote (`{"runs": [...]}`) or a parent/change pair of such sets
(`{"parent": {...}, "change": {...}}`), which contributes two points.
Always exits 0: timing is advisory — the byte-identity gates and
`benchmark/compare.py` are what fail builds.
"""

import glob
import json
import os
import re
import statistics
import sys


def bench_points(root):
    """[(label, runs)] of every committed BENCH_*.json, by PR number."""
    paths = glob.glob(os.path.join(root, "BENCH_*.json"))
    paths += glob.glob(os.path.join(root, "benchmark", "baseline", "BENCH_*.json"))
    numbered = []
    for path in paths:
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m:
            numbered.append((int(m.group(1)), path))
    points = []
    for pr, path in sorted(numbered):
        with open(path) as f:
            doc = json.load(f)
        if "runs" in doc:
            points.append((f"BENCH_{pr}", doc["runs"]))
        else:
            points.append((f"BENCH_{pr}.parent", doc["parent"]["runs"]))
            points.append((f"BENCH_{pr}", doc["change"]["runs"]))
    return points


def bench_series(root):
    points = bench_points(root)
    if not points:
        print("no BENCH_*.json committed yet")
        return
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    print("BENCH_* series (median of untraced runs; delta against the previous point)")
    for w in spec["workloads"]:
        for metric in spec["end_to_end"]:
            cells, last = [], None
            for label, runs in points:
                values = [
                    r["result"]["metrics"][metric["name"]]["value"]
                    for r in runs
                    if r["workload"] == w["name"]
                    and r["trace"] == 0
                    and metric["name"] in r["result"]["metrics"]
                ]
                if not values:
                    continue
                med = statistics.median(values)
                delta = f" ({(med - last) / last * 100.0:+.1f}%)" if last else ""
                cells.append(f"{label} {med:.4g}{delta} n={len(values)}")
                last = med
            if cells:
                print(f"{w['name']}/{metric['name']} [{metric['unit']}]: " + " -> ".join(cells))


def main():
    bench_series(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    return 0


if __name__ == "__main__":
    sys.exit(main())
