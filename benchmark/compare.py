#!/usr/bin/env python3
"""Compare two result sets of the LeakyHammer benchmark.

    benchmark/compare.py PARENT.json CHANGE.json [--layers]

Each file is what `benchmark/run.sh --runs N --out FILE` wrote. For every
pairing of end-to-end metric and workload one row is printed: the parent's
and the change's median and quartiles, how much worse the change's median
is as a share of the parent's, and a verdict against the metric's bound in
BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the run-to-run spread (distance between the quartiles as a
              share of the median, the wider side) exceeds the bound, so a
              difference within the bound cannot be told from noise --
              unless every run of the change reads better than every run
              of the parent
  improved    the change's median is better by more than the parent's own
              spread and the change wins at least nine tenths of the
              seed-matched pairs
  flat        anything else

`--layers` adds the per-layer metrics of the traced runs as rows without a
verdict. The exit status is 1 when any row regressed, a workload's share
of failed operations rose, or a result digest differs between two runs of
the same workload and seed; `--self-test` checks the verdict rules.
"""

import json
import os
import statistics
import sys


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(parent, change, better):
    """Share of the parent's median by which the change's is worse."""
    a, b = statistics.median(parent), statistics.median(change)
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(parent, change, better, bound, pairs=None):
    """The verdict for one (metric, workload) row.

    `parent` and `change` are lists of per-run values; `pairs` is a list
    of seed-matched (parent, change) values when the sets share seeds.
    """
    is_better = (lambda b, a: b < a) if better == "lower" else (lambda b, a: b > a)
    worse = worse_by(parent, change, better)
    if worse > bound:
        return "regressed"
    all_better = all(is_better(b, a) for b in change for a in parent)
    if max(spread(parent), spread(change)) > bound:
        return "improved" if all_better else "unresolved"
    if -worse > spread(parent):
        decided = [(a, b) for a, b in (pairs or []) if a != b]
        wins = sum(1 for a, b in decided if is_better(b, a))
        if all_better or (decided and wins >= 0.9 * len(pairs)):
            return "improved"
    return "flat"


def load(path):
    with open(path) as f:
        runs = json.load(f)["runs"]
    for run in runs:
        if not run["result"]["metrics"]:
            raise SystemExit(f"{path}: a run of {run['workload']} carries no metrics")
    return runs


def values_of(runs, workload, trace, metric):
    """{seed: value} of one metric over one workload's runs."""
    out = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            m = run["result"]["metrics"].get(metric)
            if m is not None:
                out[run["seed"]] = m["value"]
    return out


def fail_share(runs, workload):
    mine = [r["result"] for r in runs if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in mine)
    return sum(r["failed"] for r in mine) / attempted if attempted else 0.0


def cell(q, n):
    """'median [q1, q3] n=N' of one side of a row."""
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={n}"


def compare(spec, parent_runs, change_runs, layers):
    bad = False
    header = (
        f"{'metric':<34} {'workload':<16} {'parent med [q1,q3]':<32} "
        f"{'change med [q1,q3]':<32} {'worse by':>9} {'bound':>6}  verdict"
    )
    print(header)
    groups = [(0, spec["end_to_end"])]
    if layers:
        groups.append((1, spec["per_layer"]))
    for trace, metrics in groups:
        for metric in metrics:
            for w in spec["workloads"]:
                a = values_of(parent_runs, w["name"], trace, metric["name"])
                b = values_of(change_runs, w["name"], trace, metric["name"])
                if not a or not b:
                    continue
                av, bv = list(a.values()), list(b.values())
                pairs = [(a[s], b[s]) for s in sorted(a) if s in b]
                aq, bq = quartiles(av), quartiles(bv)
                worse = worse_by(av, bv, metric["better"])
                if "bound" in metric:
                    v = verdict(av, bv, metric["better"], metric["bound"], pairs)
                    bound = f"{metric['bound']:.2f}"
                    bad |= v == "regressed"
                else:
                    v, bound = "-", "-"
                print(
                    f"{metric['name']:<34} {w['name']:<16} "
                    f"{cell(aq, len(av)):<32} {cell(bq, len(bv)):<32} "
                    f"{worse:>+9.1%} {bound:>6}  {v}"
                )
    for w in spec["workloads"]:
        fa, fb = fail_share(parent_runs, w["name"]), fail_share(change_runs, w["name"])
        rose = fb > fa
        bad |= rose
        print(f"fail_share {w['name']:<16} parent {fa:.6f} change {fb:.6f}" + ("  ROSE" if rose else ""))
        # Simulated results are deterministic: the same workload and seed
        # must carry the same digest in every run of either set.
        digests = {}
        for run in parent_runs + change_runs:
            if run["workload"] == w["name"] and "sim_digest" in run:
                digests.setdefault(run["seed"], set()).add(run["sim_digest"])
        differing = sorted(s for s, d in digests.items() if len(d) > 1)
        if differing:
            bad = True
            print(f"sim_digest {w['name']:<16} DIFFERS at seed(s) {differing}")
        elif digests:
            print(f"sim_digest {w['name']:<16} identical over {len(digests)} seed(s)")
    return 1 if bad else 0


def self_test():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    shifted = lambda k: [v * k for v in steady]
    noisy = [100.0, 130.0, 80.0, 120.0, 85.0, 110.0, 95.0, 125.0, 90.0, 105.0]
    pairs = lambda a, b: list(zip(a, b))
    cases = [
        # Worse by 20 % against a 10 % bound.
        ("regressed", steady, shifted(1.2), "lower", 0.10),
        # 'higher is better' flips the direction.
        ("regressed", steady, shifted(0.8), "higher", 0.10),
        ("improved", steady, shifted(1.1), "higher", 0.10),
        # Within the bound and within the noise.
        ("flat", steady, shifted(1.02), "lower", 0.10),
        ("flat", steady, shifted(0.995), "lower", 0.10),
        # Better by more than the parent's spread on every pair.
        ("improved", steady, shifted(0.9), "lower", 0.10),
        # Spread wider than the bound: neither flat nor improved ...
        ("unresolved", noisy, [v * 1.02 for v in noisy], "lower", 0.10),
        ("unresolved", noisy, [v * 0.95 for v in noisy], "lower", 0.10),
        # ... unless every run of the change beats every run of the parent,
        ("improved", noisy, [v * 0.5 for v in noisy], "lower", 0.10),
        # ... and a median past the bound still regresses.
        ("regressed", noisy, [v * 1.5 for v in noisy], "lower", 0.10),
    ]
    failed = 0
    for want, a, b, better, bound in cases:
        got = verdict(a, b, better, bound, pairs(a, b))
        if got != want:
            failed += 1
            print(f"self-test: wanted {want}, got {got} (worse by {worse_by(a, b, better):+.3f})")
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
    print(f"self-test: {len(cases) - failed}/{len(cases)} verdict cases pass")
    return 1 if failed else 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    files = [a for a in argv if not a.startswith("--")]
    if len(files) != 2:
        print(__doc__)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return compare(spec, load(files[0]), load(files[1]), "--layers" in argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
