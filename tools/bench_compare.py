#!/usr/bin/env python3
"""Compare a fresh bench JSON trailer against its committed baseline
(BENCH_mt_scaling.json / BENCH_space.json / BENCH_gauntlet.json at the
repo root).

Absolute numbers are machine-bound (ops/s especially, but RSS too once
kernel page-accounting differs), so the comparison works on *scenario
ratios* — each config's value relative to its scenario's reference
config (sharded/global, cache-on/off, dontneed/return-off, or the
document's own "reference_config", e.g. glibc for the gauntlet). Ratios
survive runner-hardware churn far better than raw numbers, which is what
lets a committed baseline accumulate a trajectory across PRs.

Each result row carries a "value" (older mt_scaling trailers say
"ops_per_sec"; both are accepted) and optionally "threads" (defaults to
0 for single-process benches). Regression direction is resolved per
row: a row-level "lower_is_better" wins, then the document-level
"lower_is_better", then higher-is-better. That lets one gauntlet
document mix ops/s (higher-better) with p99 latency and peak RSS
(lower-better) rows.

The reference config of a scenario is resolved in the same spirit: the
well-known scenarios in REFERENCE_CONFIG keep their historical
denominators, otherwise a document-level "reference_config" applies if
that config actually appears in the scenario, otherwise the
alphabetically first config — so new bench scenarios never break the
comparison.

The script prints a GitHub `::warning::` annotation per hit and a
machine-readable JSON summary (stdout, and --output if given), but
always exits 0 on well-formed input — the gate warns, it does not
block, because two-vCPU hosted runners are noisy. Exit codes: 0
compared, 2 bad input.

Usage:
  bench_compare.py --baseline BENCH_space.json --fresh fresh.json \
      [--warn-pct 10] [--output compare.json]
"""

import argparse
import json
import sys

# The denominator config of each known scenario; ratios are
# value(config)/value(reference) at equal thread counts.
REFERENCE_CONFIG = {
    "sharding": "global",
    "tcache": "cache_off",
    "peak_espresso": "lea",
    "churn_idle": "return-off",
}


def load_doc(path):
    """Returns the parsed trailer document, exiting 2 on unreadable input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        sys.stderr.write(f"bench_compare: cannot parse {path}: {err}\n")
        sys.exit(2)


def load_results(doc):
    """Returns {(scenario, config, threads): (value, lower_or_None)} where
    the second element is the row-level lower_is_better flag, or None when
    the row does not carry one. Raises ValueError on malformed rows."""
    try:
        out = {}
        for row in doc["results"]:
            key = (row["scenario"], row["config"], int(row.get("threads", 0)))
            value = row["value"] if "value" in row else row["ops_per_sec"]
            lower = row.get("lower_is_better")
            out[key] = (float(value), None if lower is None else bool(lower))
        return out
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed results row: {err}") from err


def resolve_reference(scenario, configs, doc_reference):
    """Returns the denominator config for one scenario: the historical
    map first, then the document's reference_config (only if present in
    this scenario), then the alphabetically first config."""
    reference = REFERENCE_CONFIG.get(scenario)
    if reference is not None:
        return reference
    if doc_reference in configs:
        return doc_reference
    return sorted(configs)[0]


def scenario_ratios(results, doc_reference=None):
    """Returns ({key: ratio-vs-reference}, {key: lower_or_None}), skipping
    reference configs themselves and rows whose reference is missing."""
    ratios = {}
    flags = {}
    scenarios = {s for (s, _, _) in results}
    for scenario in scenarios:
        configs = {c for (s, c, _) in results if s == scenario}
        reference = resolve_reference(scenario, configs, doc_reference)
        for (s, config, threads), (value, lower) in results.items():
            if s != scenario or config == reference:
                continue
            ref = results.get((scenario, reference, threads))
            if ref is None or not ref[0]:
                continue
            key = (scenario, config, threads)
            ratios[key] = value / ref[0]
            flags[key] = lower
    return ratios, flags


def compare(base_doc, fresh_doc, warn_pct):
    """Compares two trailer documents and returns the summary dict. Each
    comparison entry carries the resolved direction under
    "lower_is_better"; regressed entries have status "regressed". Raises
    ValueError on malformed results."""
    base, base_flags = scenario_ratios(
        load_results(base_doc), base_doc.get("reference_config"))
    fresh, fresh_flags = scenario_ratios(
        load_results(fresh_doc), fresh_doc.get("reference_config"))
    doc_lower = bool(fresh_doc.get("lower_is_better", False))

    comparisons = []
    regressions = 0
    for key in sorted(base.keys() | fresh.keys()):
        scenario, config, threads = key
        entry = {"scenario": scenario, "config": config, "threads": threads}
        if key not in base:
            entry["status"] = "added"  # New scenario/config: no baseline.
            entry["fresh_ratio"] = round(fresh[key], 4)
        elif key not in fresh:
            entry["status"] = "removed"  # Gone from the bench: informational.
            entry["baseline_ratio"] = round(base[key], 4)
        else:
            # Row-level direction wins (fresh row first, then baseline row,
            # for trailers written before the row carried the flag), then
            # the document-level default.
            lower = fresh_flags.get(key)
            if lower is None:
                lower = base_flags.get(key)
            if lower is None:
                lower = doc_lower
            delta_pct = (fresh[key] - base[key]) / base[key] * 100.0
            if lower:
                regressed = delta_pct >= warn_pct
            else:
                regressed = delta_pct <= -warn_pct
            entry.update(
                status="regressed" if regressed else "ok",
                baseline_ratio=round(base[key], 4),
                fresh_ratio=round(fresh[key], 4),
                delta_pct=round(delta_pct, 2),
                lower_is_better=bool(lower),
            )
            if regressed:
                regressions += 1
        comparisons.append(entry)

    return {
        "bench": fresh_doc.get("bench", "unknown"),
        "warn_pct": warn_pct,
        "lower_is_better": doc_lower,
        "regressions": regressions,
        "comparisons": comparisons,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--warn-pct", type=float, default=10.0)
    parser.add_argument("--output")
    args = parser.parse_args()

    base_doc = load_doc(args.baseline)
    fresh_doc = load_doc(args.fresh)
    try:
        summary = compare(base_doc, fresh_doc, args.warn_pct)
    except ValueError as err:
        sys.stderr.write(f"bench_compare: {err}\n")
        return 2

    for entry in summary["comparisons"]:
        if entry["status"] != "regressed":
            continue
        print(
            f"::warning title=bench ratio regression::"
            f"{entry['scenario']}/{entry['config']} @{entry['threads']}t: "
            f"{entry['baseline_ratio']:.3f} -> {entry['fresh_ratio']:.3f} "
            f"({entry['delta_pct']:+.1f}%)"
        )

    text = json.dumps(summary, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
