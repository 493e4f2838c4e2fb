#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the bound rule between two sets.

Record a set (each workload once per seed, seeds interleaved across
workloads, each run with BENCHMARK.json's run_seconds):

    python3 perfbench/spread.py record --runs 10 --out set-a.json

Print a recorded set's spread (for each end-to-end metric, the distance
between the first and third quartile of its per-run values over their
median, next to the metric's bound):

    python3 perfbench/spread.py show set-a.json

Compare two sets by the bound rule (a metric regresses when the new median
is worse than the base median by more than its bound; any increase in
failed operations regresses):

    python3 perfbench/spread.py compare set-a.json set-b.json

compare exits 1 when anything regressed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base
    return change if better == "lower" else -change


def regressions(base_runs, new_runs, declared):
    """Messages for every metric of one workload that got worse than its
    bound allows between two lists of run results."""
    found = []
    for metric in declared:
        name = metric["name"]
        base = statistics.median(r["metrics"][name]["value"] for r in base_runs)
        new = statistics.median(r["metrics"][name]["value"] for r in new_runs)
        worse = worsening(base, new, metric["better"])
        if worse > metric["bound"]:
            found.append(f"{name}: {base:.6g} -> {new:.6g} "
                         f"({worse:+.1%} worse, bound {metric['bound']:.0%})")
    base_failed = sum(r["failed"] for r in base_runs)
    new_failed = sum(r["failed"] for r in new_runs)
    if new_failed > base_failed:
        found.append(f"failed operations: {base_failed} -> {new_failed}")
    if not all(r["correct"] for r in new_runs):
        found.append("a run was incorrect")
    return found


def record(runs, first_seed, workloads, out):
    bench = load_benchmark()
    names = workloads or [w["name"] for w in bench["workloads"]]
    results = {name: [] for name in names}
    for seed in range(first_seed, first_seed + runs):
        for name in names:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.exit(f"{name} seed {seed} failed:\n{done.stderr}")
            results[name].append(json.loads(done.stdout.splitlines()[-1]))
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
    Path(out).write_text(json.dumps(results, indent=1) + "\n")


def show(path):
    bench = load_benchmark()
    results = json.loads(Path(path).read_text())
    for name, runs in results.items():
        print(f"{name} ({len(runs)} runs)")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            share = spread(values) / metric["bound"]
            print(f"  {metric['name']:<16} median {statistics.median(values):>14.6g}"
                  f" {metric['unit']:<5} spread {spread(values):6.2%}"
                  f" = {share:4.2f} x bound{'  WIDE' if share > 1 / 3 else ''}")


def compare(base_path, new_path):
    bench = load_benchmark()
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    failed = False
    for name in base:
        if name in new:
            found = regressions(base[name], new[name], bench["end_to_end"])
        else:
            found = ["missing from the new set"]
        print(f"{name}: {'ok' if not found else 'REGRESSED'}")
        for message in found:
            print(f"  {message}")
        failed |= bool(found)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--first-seed", type=int, default=1)
    rec.add_argument("--workloads", type=lambda s: s.split(","))
    rec.add_argument("--out", required=True)
    sub.add_parser("show").add_argument("set")
    cmp = sub.add_parser("compare")
    cmp.add_argument("base")
    cmp.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.runs, args.first_seed, args.workloads, args.out)
        return 0
    if args.command == "show":
        show(args.set)
        return 0
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
