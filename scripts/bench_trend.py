#!/usr/bin/env python3
"""Advisory wall-clock trend: the committed BENCH_*.json trajectory of the
repo's benchmark.

    scripts/bench_trend.py

The BENCH_*.json files (repo root and benchmark/baseline/, ordered by PR
number) are printed as a series: per workload and end-to-end metric, the
median over each file's untraced runs, with the change against the
previous point. A file holds its run set in one of three shapes:

- what `benchmark/run.sh --runs N --out FILE` wrote (`{"runs": [...]}`):
  one point;
- a parent/change pair of such sets (`{"parent": {...}, "change": {...}}`):
  two points;
- per-metric paired values for one workload (`{"<workload>_pairs":
  {"<metric>": {"parent": [...], "change": [...]}}}`): two points, for
  the metrics the pairs carry.

The timing is advisory: no median, however far it moves, fails the run;
the byte-identity gates and `benchmark/compare.py` are what fail builds.
But a BENCH file with none of these shapes exits 1 naming the file, so a
file the series cannot read is never skipped silently.
"""

import glob
import json
import os
import re
import statistics
import sys


def run_values(runs):
    """{(workload, metric): [value]} over the untraced runs of one set."""
    values = {}
    for r in runs:
        if r["trace"] != 0:
            continue
        for metric, m in r["result"]["metrics"].items():
            values.setdefault((r["workload"], metric), []).append(m["value"])
    return values


def file_points(pr, doc, workloads):
    """[(label, values)] of one BENCH file, or [] if it holds no run set."""
    if "runs" in doc:
        return [(f"BENCH_{pr}", run_values(doc["runs"]))]
    if "parent" in doc and "change" in doc:
        return [
            (f"BENCH_{pr}.parent", run_values(doc["parent"]["runs"])),
            (f"BENCH_{pr}", run_values(doc["change"]["runs"])),
        ]
    sides = {"parent": {}, "change": {}}
    for w in workloads:
        for metric, pair in doc.get(f"{w}_pairs", {}).items():
            for side, values in sides.items():
                values[(w, metric)] = pair[side]
    if not sides["parent"]:
        return []
    return [(f"BENCH_{pr}.parent", sides["parent"]), (f"BENCH_{pr}", sides["change"])]


def bench_series(root):
    """Prints the series; returns the BENCH files that hold no run set."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    paths = glob.glob(os.path.join(root, "BENCH_*.json"))
    paths += glob.glob(os.path.join(root, "benchmark", "baseline", "BENCH_*.json"))
    numbered = []
    for path in paths:
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m:
            numbered.append((int(m.group(1)), path))
    points, unreadable = [], []
    for pr, path in sorted(numbered):
        with open(path) as f:
            found = file_points(pr, json.load(f), workloads)
        if not found:
            unreadable.append(os.path.relpath(path, root))
        points += found
    if not points:
        print("no BENCH_*.json committed yet")
        return unreadable
    print("BENCH_* series (median of untraced runs; delta against the previous point)")
    for w in workloads:
        for metric in spec["end_to_end"]:
            cells, last = [], None
            for label, values in points:
                v = values.get((w, metric["name"]))
                if not v:
                    continue
                med = statistics.median(v)
                delta = f" ({(med - last) / last * 100.0:+.1f}%)" if last else ""
                cells.append(f"{label} {med:.4g}{delta} n={len(v)}")
                last = med
            if cells:
                print(f"{w}/{metric['name']} [{metric['unit']}]: " + " -> ".join(cells))
    return unreadable


def main():
    unreadable = bench_series(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    for path in unreadable:
        print(f"error: {path} holds no run set (runs, parent/change or <workload>_pairs)", file=sys.stderr)
    return 1 if unreadable else 0


if __name__ == "__main__":
    sys.exit(main())
