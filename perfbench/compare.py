"""Compare two result sets of the benchmark, metric by metric, per workload.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of records written by ``run.py``
(``.perfbench/records`` by default; copy each set aside before the next).
For every workload and metric the table gives each set's median and
quartiles, the share of seed-matched pairs that ``NEW`` won, and a verdict:

- ``better``: ``NEW`` won at least nine tenths of the pairs and its median
  improved by more than ``BASE``'s own spread (quartile distance over median);
- ``worse``: ``NEW``'s median is worse than ``BASE``'s by more than the
  metric's bound in ``BENCHMARK.json``;
- ``unresolved``: either set's spread exceeds the bound, unless every run of
  one set beats every run of the other;
- ``within bound`` otherwise.  Per-layer metrics have no bound; they read
  ``better``, ``worse`` (the mirror of ``better``) or ``same``.

The exit code is 1 when any end-to-end metric is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict


def load(folder: str) -> dict:
    """``{(workload, trace): [record, ...]}`` sorted by seed."""
    groups = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(folder, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        groups[(record["workload"], record["trace"])].append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["seed"])
    return groups


def summary(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def pairs(base: list, new: list, name: str) -> list:
    """Seed-matched ``(base, new)`` values of one metric."""
    by_seed = defaultdict(list)
    for record in base:
        by_seed[record["seed"]].append(record)
    matched = []
    for record in new:
        if by_seed[record["seed"]]:
            other = by_seed[record["seed"]].pop(0)
            matched.append((value(other, name), value(record, name)))
    return matched


def value(record: dict, name: str) -> float:
    return record["result"]["metrics"][name]["value"]


def verdict(a: list, b: list, matched: list, lower: bool, bound) -> tuple:
    sign = 1.0 if lower else -1.0
    med_a, med_b = summary(a)[1], summary(b)[1]
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    won = [sign * (y - x) < 0 for x, y in matched if x != y]
    lost = [sign * (y - x) > 0 for x, y in matched if x != y]
    share = sum(won) / len(matched) if matched else 0.0
    loss_share = sum(lost) / len(matched) if matched else 0.0
    separated = (max(b) < min(a) or min(b) > max(a))
    if bound is not None and max(spread(a), spread(b)) > bound and not separated:
        return share, "unresolved"
    if bound is not None and worse_by > bound:
        return share, "worse"
    if share >= 0.9 and -worse_by > spread(a):
        return share, "better"
    if bound is None and loss_share >= 0.9 and worse_by > spread(a):
        return share, "worse"
    return share, "within bound" if bound is not None else "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        declared = json.load(handle)
    base, new = load(args.base), load(args.new)
    failing = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        section = declared["per_layer" if trace else "end_to_end"]
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(base[key])} vs {len(new[key])} runs)")
        print(f"  {'metric':38s} {'base median [q1, q3]':>34s} "
              f"{'new median [q1, q3]':>34s} {'change':>8s} {'won':>5s}  verdict")
        for entry in section:
            name = entry["name"]
            a = [value(r, name) for r in base[key]]
            b = [value(r, name) for r in new[key]]
            matched = pairs(base[key], new[key], name)
            share, outcome = verdict(a, b, matched, entry["better"] == "lower",
                                     entry.get("bound"))
            if trace == 0 and outcome in ("worse", "unresolved"):
                failing += 1
            (qa1, ma, qa3), (qb1, mb, qb3) = summary(a), summary(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            print(f"  {name:38s} {ma:12.5g} [{qa1:9.4g}, {qa3:9.4g}] "
                  f"{mb:12.5g} [{qb1:9.4g}, {qb3:9.4g}] {change:+8.2%} "
                  f"{share:5.0%}  {outcome}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"\nonly in one set: {missing}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
