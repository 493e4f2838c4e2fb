#!/usr/bin/env python3
"""Self-check of the benchmark runner and the bound rule, on canned output.

Needs no build. Run from anywhere:

    python3 perfbench/test_run.py
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spread  # noqa: E402


def usage(utime=1.0, stime=0.5, maxrss=102400, minflt=1000, nvcsw=10,
          nivcsw=5):
    return SimpleNamespace(ru_utime=utime, ru_stime=stime, ru_maxrss=maxrss,
                           ru_minflt=minflt, ru_nvcsw=nvcsw,
                           ru_nivcsw=nivcsw)


def perf_line(checksum=77, allocations=1000, failed=0, seconds=0.5,
              end_mono_ns=12_000_000_000):
    body = {"allocations": allocations, "frees": allocations,
            "failed": failed, "expected": 1000, "checksum": checksum,
            "seconds": seconds, "end_mono_ns": end_mono_ns, "samples": 250,
            "p50_ns": 40.5, "p99_ns": 900.25, "retained_kb": 2048}
    return "PERF_RESULT " + json.dumps(body) + "\n"


class StatisticsTest(unittest.TestCase):
    def test_spread_is_exclusive_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        # statistics.quantiles' default (exclusive) method: 2.75 and 8.25.
        self.assertAlmostEqual(spread.spread(values), (8.25 - 2.75) / 5.5)

    def test_summarize_takes_the_median_of_each_metric(self):
        reps = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 30.0},
                {"a": 2.0, "b": 20.0}, {"a": 4.0, "b": 40.0}]
        self.assertEqual(run.summarize(reps), {"a": 2.5, "b": 25.0})
        self.assertEqual(run.summarize([]), {})

    def test_summarize_takes_the_best_repetition_where_noise_only_slows(self):
        reps = [{"ops_per_s": 9.0, "op_p50_ns": 50.0, "op_p99_ns": 900.0},
                {"ops_per_s": 12.0, "op_p50_ns": 45.0, "op_p99_ns": 700.0},
                {"ops_per_s": 10.0, "op_p50_ns": 110.0, "op_p99_ns": 800.0}]
        self.assertEqual(run.summarize(reps), {
            "ops_per_s": 12.0, "op_p50_ns": 45.0, "op_p99_ns": 800.0})


class BoundRuleTest(unittest.TestCase):
    declared = [
        {"name": "ops_per_s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]

    def runs(self, ops, setup, failed=0, correct=True):
        return [{"correct": correct, "attempted": 100, "failed": failed,
                 "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                             "setup_s": {"value": setup, "unit": "s"}}}]

    def test_worsening_within_the_bound_passes(self):
        self.assertEqual(spread.regressions(self.runs(100, 1.0),
                                            self.runs(91, 1.24),
                                            self.declared), [])

    def test_higher_is_better_metric_regresses_past_its_bound(self):
        found = spread.regressions(self.runs(100, 1.0), self.runs(89, 1.0),
                                   self.declared)
        self.assertEqual(len(found), 1)
        self.assertIn("ops_per_s", found[0])

    def test_lower_is_better_metric_regresses_past_its_bound(self):
        found = spread.regressions(self.runs(100, 1.0), self.runs(100, 1.3),
                                   self.declared)
        self.assertEqual(len(found), 1)
        self.assertIn("setup_s", found[0])
        self.assertEqual(spread.regressions(self.runs(100, 1.0),
                                            self.runs(150, 0.5),
                                            self.declared), [])

    def test_any_increase_in_failed_operations_regresses(self):
        found = spread.regressions(self.runs(100, 1.0),
                                   self.runs(100, 1.0, failed=1),
                                   self.declared)
        self.assertEqual(found, ["failed operations: 0 -> 1"])

    def test_an_incorrect_run_regresses(self):
        found = spread.regressions(self.runs(100, 1.0),
                                   self.runs(100, 1.0, correct=False),
                                   self.declared)
        self.assertEqual(found, ["a run was incorrect"])


class ChildOutputTest(unittest.TestCase):
    def test_parse_tagged_takes_the_last_tagged_line(self):
        text = "noise\n" + perf_line(checksum=1) + perf_line(checksum=2)
        self.assertEqual(run.parse_tagged(text, "PERF_RESULT")["checksum"], 2)

    def test_parse_tagged_without_the_line_fails(self):
        with self.assertRaises(run.BenchError):
            run.parse_tagged("PERF_RESULTX {}\n", "PERF_RESULT")

    def test_parse_stats_reads_the_shim_exit_line(self):
        err = 'warning\n{"diehard_stats":{"cache_refills":7,"overflow":0}}\n'
        self.assertEqual(run.parse_stats(err)["cache_refills"], 7)
        with self.assertRaises(run.BenchError):
            run.parse_stats("nothing here\n")

    def test_timed_metrics(self):
        rep = run.parse_tagged(perf_line(), "PERF_RESULT")
        rep["child"] = run.Child("", "", usage(), spawned_s=11.25)
        m = run.timed_metrics(rep)
        self.assertAlmostEqual(m["ops_per_s"], 2000 / 0.5)
        self.assertAlmostEqual(m["cpu_ns_per_op"], 1.5e9 / 2000)
        self.assertAlmostEqual(m["peak_rss_mb"], 100.0)
        self.assertAlmostEqual(m["retained_rss_mb"], 2.0)
        # Worker phase began at 12.0 - 0.5 s; the spawn was at 11.25 s.
        self.assertAlmostEqual(m["setup_s"], 0.25)
        self.assertEqual(m["op_p99_ns"], 900.25)

    def test_default_seed_reproduces_the_gauntlet_seeds(self):
        self.assertEqual(run.derive_seeds(0), (0x6A07, 23459))
        workload, heap = run.derive_seeds(3)
        self.assertNotEqual(workload, 0x6A07)
        self.assertNotEqual(heap, 0)


class CheckTest(unittest.TestCase):
    def result(self, **fields):
        return run.parse_tagged(perf_line(**fields), "PERF_RESULT")

    def test_matching_run_passes(self):
        self.assertEqual(run.check(self.result(), 77, "rep"), [])

    def test_checksum_mismatch_fails(self):
        problems = run.check(self.result(checksum=78), 77, "rep 3")
        self.assertEqual(len(problems), 1)
        self.assertIn("checksum 78 differs from glibc's 77", problems[0])

    def test_lost_allocations_fail(self):
        self.assertEqual(len(run.check(self.result(allocations=999), 77, "r")),
                         1)

    def test_failed_allocations_fail(self):
        self.assertIn("2 failed allocations",
                      run.check(self.result(failed=2), 77, "r")[0])


class MainTest(unittest.TestCase):
    """main() end to end, with the build skipped and children canned."""

    def main_with_children(self, shim_checksum):
        def fake_spawn(argv, env):
            shim = "LD_PRELOAD" in env
            line = perf_line(checksum=shim_checksum if shim else 77)
            return run.Child(line, "", usage(), spawned_s=11.25)

        out = io.StringIO()
        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "spawn", fake_spawn), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "burst-cold", "--seconds", "0"])
        return code, out.getvalue().splitlines()

    def test_correct_run_prints_every_end_to_end_metric(self):
        code, lines = self.main_with_children(shim_checksum=77)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared["end_to_end"]})
        self.assertGreaterEqual(result["attempted"], 1)

    def test_checksum_mismatch_fails_the_run(self):
        code, lines = self.main_with_children(shim_checksum=78)
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(lines[-1])["correct"])


if __name__ == "__main__":
    unittest.main()
