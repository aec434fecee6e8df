#!/usr/bin/env python3
"""Compares two result sets of the end-to-end KRR GWAS benchmark.

    python3 perfbench/compare.py <base-set> <change-set>

A result set is a directory with one subdirectory per workload, holding
one `.json` file per run: the standard output of `perfbench/run.py` (only
its last line, the JSON result, is read; other files are skipped).
README.md shows a loop that writes one.

For every workload and metric found in both sets it prints each side's
median and quartiles over the runs and a verdict:

  worse         the change's median is worse than the base's by more than
                the metric's bound in BENCHMARK.json
  better        the change's median is better by more than the base's own
                spread (distance between its quartiles, as a share of its
                median)
  within bound  neither

Per-layer metrics have no bound; their verdict is `up` or `down` when the
medians differ by more than the base's spread, `~` otherwise.  The share
of failed operations of each side is printed per workload.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_set(path):
    """{workload: [result, ...]} from a result-set directory."""
    runs = {}
    for workload in sorted(os.listdir(path)):
        wdir = os.path.join(path, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(wdir, name), encoding="utf-8") as f:
                lines = [line for line in f.read().splitlines() if line.strip()]
            if not lines:
                raise SystemExit(f"{wdir}/{name}: empty result file")
            runs.setdefault(workload, []).append(json.loads(lines[-1]))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    if b_med == 0:
        return "~" if bound is None else "within bound"
    sign = 1.0 if better == "lower" else -1.0
    worse_share = sign * (c_med - b_med) / abs(b_med)
    spread = (b_q3 - b_q1) / abs(b_med)
    if bound is None:
        if abs(c_med - b_med) / abs(b_med) <= spread:
            return "~"
        return "up" if c_med > b_med else "down"
    if worse_share > bound:
        return "worse"
    if -worse_share > spread:
        return "better"
    return "within bound"


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return f"{failed}/{attempted}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_set(sys.argv[1]), load_set(sys.argv[2])

    for workload in sorted(set(base) & set(change)):
        print(f"== {workload}: base {len(base[workload])} runs, failed "
              f"{failed_share(base[workload])}; change "
              f"{len(change[workload])} runs, failed "
              f"{failed_share(change[workload])}")
        print(f"  {'metric':34} {'unit':8} {'base q1/median/q3':32} "
              f"{'change q1/median/q3':32} verdict")
        names = sorted(
            set.intersection(*(set(r["metrics"]) for r in base[workload]))
            & set.intersection(*(set(r["metrics"]) for r in change[workload])))
        for name in names:
            spec_metric = metrics.get(name, {"better": "lower"})
            b = [r["metrics"][name]["value"] for r in base[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            unit = base[workload][0]["metrics"][name]["unit"]
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            result = verdict(b, c, spec_metric["better"],
                             spec_metric.get("bound"))
            print(f"  {name:34} {unit:8} {fmt(b):32} {fmt(c):32} {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
