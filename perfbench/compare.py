#!/usr/bin/env python3
"""Compare two sets of benchmark results. Reports only; gates nothing.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (searched recursively) or files of results
that run.py wrote with --trace 0. For each workload and end-to-end metric it
prints each side's median and quartiles and a verdict:

  improved    at least 10 pairs (runs of both sides with the same seed), the
              change wins at least 9 in 10 of them (ties count for neither),
              and the medians differ, in its favour, by more than the
              parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  either side's quartile spread exceeds the bound, unless every
              run of the change reads better than every run of the parent
  unchanged   otherwise

It also prints fail_frac per side and how many pairs have identical report
digests, i.e. unchanged values and verdicts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import bench

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    p = Path(path)
    files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        doc = json.loads(f.read_text())
        if isinstance(doc, dict) and doc.get("trace") == 0 and "workload" in doc:
            runs.append(doc)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    """Runs of the two sides with the same seed and length, matched in order."""
    def key(r):
        return r["environment"]["seed"], r["environment"]["seconds"]

    waiting = {}
    for r in parent:
        waiting.setdefault(key(r), []).append(r)
    out = []
    for r in change:
        if waiting.get(key(r)):
            out.append((waiting[key(r)].pop(0), r))
    return out


def verdict(metric, a_vals, b_vals, paired):
    """Verdict for one metric; `paired` holds (parent, change) values."""
    def better(x, y):  # x reads better than y
        return x > y if metric.better == "higher" else x < y

    a1, a_med, a3 = quartiles(a_vals)
    b1, b_med, b3 = quartiles(b_vals)
    wins = sum(1 for a, b in paired if better(b, a))
    if (len(paired) >= MIN_PAIRS and wins >= WIN_SHARE * len(paired)
            and better(b_med, a_med) and abs(b_med - a_med) > a3 - a1):
        return "improved"
    spread = max((a3 - a1) / abs(a_med), (b3 - b1) / abs(b_med))
    if spread > metric.bound:
        if all(better(b, a) for a in a_vals for b in b_vals):
            return "unchanged"
        return "unresolved"
    if better(a_med, b_med) and abs(b_med - a_med) > metric.bound * abs(a_med):
        return "worse"
    return "unchanged"


def compare(parent, change):
    lines = []
    for name in bench.WORKLOADS:
        a_runs = [r for r in parent if r["workload"] == name]
        b_runs = [r for r in change if r["workload"] == name]
        if not a_runs or not b_runs:
            continue
        matched = pairs(a_runs, b_runs)
        same = sum(1 for a, b in matched if a["digest"] == b["digest"])
        lines.append(f"{name}: {len(a_runs)} parent runs, {len(b_runs)} change runs, "
                     f"{len(matched)} pairs, identical report digests in {same}/{len(matched)}")
        for label, runs in (("parent", a_runs), ("change", b_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            lines.append(f"  fail_frac {label}: {failed / attempted:.6g} ({failed}/{attempted})")
        for m in bench.END_TO_END:
            a_vals = [r["metrics"][m.name]["value"] for r in a_runs]
            b_vals = [r["metrics"][m.name]["value"] for r in b_runs]
            paired = [(a["metrics"][m.name]["value"], b["metrics"][m.name]["value"])
                      for a, b in matched]
            qa, qb = quartiles(a_vals), quartiles(b_vals)
            lines.append(
                f"  {m.name:<14} {m.unit:<3} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                f"  {verdict(m, a_vals, b_vals, paired)}"
            )
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    if not parent or not change:
        print("no --trace 0 results found on one side", file=sys.stderr)
        return 2
    print(compare(parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
