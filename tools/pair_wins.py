#!/usr/bin/env python3
"""Per-pair view of two benchmark sets, and the verdict on a claimed gain.

Takes `perfbench/spread.py record` files for the parent side and for the
change side. Several files per side are concatenated, in the order given,
so list them in seed order; run i of the parent is paired with run i of
the change. For each workload and end-to-end metric it prints each side's
median and quartiles, the parent's spread (the distance between its
quartiles) and how many pairs the change won (ties count for neither
side). Metric directions come from BENCHMARK.json.

    python3 tools/pair_wins.py --parent p1.json p2.json \\
        --change c1.json c2.json --claim burst-cold/op_p99_ns

With --claim workload/metric it also prints whether the claim holds: the
change must win at least nine tenths of the pairs, and its median must be
better than the parent's by more than the parent's spread. The exit code
is 0 when there is no claim or it holds, 1 when it does not, 2 on bad
input.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_side(paths):
    """{workload: [run, ...]} over all of one side's record files."""
    runs = {}
    for path in paths:
        for workload, results in json.loads(Path(path).read_text()).items():
            runs.setdefault(workload, []).extend(results)
    return runs


def values(runs, metric):
    return [run["metrics"][metric]["value"] for run in runs]


def quartiles(vals):
    """(first quartile, median, third quartile), as spread.py takes them."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def pair_wins(parent, change, better):
    """(pairs the change won, pairs) over runs paired by position."""
    pairs = list(zip(parent, change))
    if better == "lower":
        won = sum(c < p for p, c in pairs)
    else:
        won = sum(c > p for p, c in pairs)
    return won, len(pairs)


def verdict(parent, change, better):
    """The claim rule: the change wins at least nine tenths of the pairs,
    and the medians differ, in the better direction, by more than the
    distance between the parent's quartiles. Returns (holds, reasons)."""
    won, pairs = pair_wins(parent, change, better)
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = pmed - cmed if better == "lower" else cmed - pmed
    reasons = []
    if pairs == 0 or won < math.ceil(0.9 * pairs):
        reasons.append(f"won {won}/{pairs} pairs, needs at least nine tenths")
    if gain <= p3 - p1:
        reasons.append(f"median gain {gain:.6g} is not above the parent's "
                       f"spread {p3 - p1:.6g}")
    return not reasons, reasons


def report(parent_runs, change_runs, declared, out):
    for workload in parent_runs:
        if workload not in change_runs:
            out.write(f"{workload}: missing from the change side\n")
            continue
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        out.write(f"{workload} ({len(p_runs)} parent runs, "
                  f"{len(c_runs)} change runs)\n")
        for metric in declared:
            name = metric["name"]
            p, c = values(p_runs, name), values(c_runs, name)
            p1, pmed, p3 = quartiles(p)
            c1, cmed, c3 = quartiles(c)
            won, pairs = pair_wins(p, c, metric["better"])
            out.write(f"  {name:<16} parent {pmed:>12.6g} [{p1:.6g}, {p3:.6g}]"
                      f"  change {cmed:>12.6g} [{c1:.6g}, {c3:.6g}]"
                      f"  parent IQR {p3 - p1:.6g}"
                      f"  change won {won}/{pairs}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", help="workload/metric")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    try:
        declared = json.loads(Path(args.benchmark).read_text())["end_to_end"]
        parent_runs = load_side(args.parent)
        change_runs = load_side(args.change)
        report(parent_runs, change_runs, declared, sys.stdout)
    except (OSError, ValueError, KeyError, IndexError) as error:
        print(f"pair_wins: {error}", file=sys.stderr)
        return 2
    if args.claim is None:
        return 0
    workload, _, name = args.claim.partition("/")
    better = {m["name"]: m["better"] for m in declared}.get(name)
    if (better is None or workload not in parent_runs
            or workload not in change_runs):
        print(f"pair_wins: no {args.claim} in both sides", file=sys.stderr)
        return 2
    holds, reasons = verdict(values(parent_runs[workload], name),
                             values(change_runs[workload], name), better)
    print(f"claim {args.claim}: {'HOLDS' if holds else 'NOT MET'}")
    for reason in reasons:
        print(f"  {reason}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
