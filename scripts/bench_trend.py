#!/usr/bin/env python3
"""Advisory wall-clock trends: the Criterion summaries of two CI runs, and
the committed BENCH_*.json trajectory of the repo's benchmark.

    scripts/bench_trend.py <previous.jsonl> <current.jsonl>
    scripts/bench_trend.py                # the BENCH_* series only

Each .jsonl input is what the in-tree criterion shim writes when
CRITERION_SUMMARY_FILE is set: one object per finished bench with
group, id, mean_ns, min_ns, max_ns, samples. One line is printed per
bench in the current file, with the relative mean delta against the
previous file when the bench exists there.

Then the BENCH_*.json files (repo root and benchmark/baseline/, ordered
by PR number) are printed as a series: per workload and end-to-end
metric, the median over each file's untraced runs, with the change
against the previous point. A file is either what `benchmark/run.sh
--runs N --out FILE` wrote (`{"runs": [...]}`) or a parent/change pair
of such sets (`{"parent": {...}, "change": {...}}`), which contributes
two points. Always exits 0: timing is advisory — the byte-identity gates
and `benchmark/compare.py` are what fail builds.
"""

import glob
import json
import os
import re
import statistics
import sys


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            rows[(r["group"], r["id"])] = r
    return rows


def criterion_trend(prev_path, cur_path):
    prev, cur = load(prev_path), load(cur_path)
    for key, r in cur.items():
        group, bench = key
        mean_ms = r["mean_ns"] / 1e6
        p = prev.get(key)
        if p is None:
            print(f"{group}/{bench}: {mean_ms:.1f} ms (new bench, no previous run)")
        else:
            prev_ms = p["mean_ns"] / 1e6
            delta = (r["mean_ns"] - p["mean_ns"]) / p["mean_ns"] * 100.0
            print(f"{group}/{bench}: {prev_ms:.1f} ms -> {mean_ms:.1f} ms ({delta:+.1f}%)")
    for key in prev.keys() - cur.keys():
        print(f"{key[0]}/{key[1]}: present in previous run only")


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
    args = sys.argv[1:]
    if len(args) not in (0, 2):
        print(f"usage: {sys.argv[0]} [<previous.jsonl> <current.jsonl>]", file=sys.stderr)
        return 2
    if args:
        criterion_trend(*args)
    bench_series(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    return 0


if __name__ == "__main__":
    sys.exit(main())
