#!/usr/bin/env python3
"""Unit tests for pair_wins, the per-pair view of two benchmark sets.

Run directly (python3 tools/test_pair_wins.py) or via ctest as
tools_pair_wins. Record files and the metric declarations are written to
a temporary directory; nothing is benchmarked.
"""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import pair_wins

DECLARED = [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "op_p99_ns", "better": "lower"},
]


def run(ops, p99):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"ops_per_s": {"value": ops},
                        "op_p99_ns": {"value": p99}}}


class PairWinsTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        self.assertEqual(pair_wins.pair_wins([5, 5, 5], [4, 5, 6], "lower"),
                         (1, 3))
        self.assertEqual(pair_wins.pair_wins([5, 5, 5], [4, 5, 6], "higher"),
                         (1, 3))

    def test_pairs_stop_at_the_shorter_side(self):
        self.assertEqual(pair_wins.pair_wins([5, 5, 5], [4, 4], "lower"),
                         (2, 2))


class VerdictTest(unittest.TestCase):
    PARENT = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]

    def test_clear_gain_holds(self):
        change = [v - 50 for v in self.PARENT]
        self.assertEqual(pair_wins.verdict(self.PARENT, change, "lower"),
                         (True, []))

    def test_nine_of_ten_pairs_is_enough(self):
        change = [v - 50 for v in self.PARENT]
        change[0] = self.PARENT[0]  # A tie.
        holds, _ = pair_wins.verdict(self.PARENT, change, "lower")
        self.assertTrue(holds)

    def test_eight_of_ten_pairs_is_not(self):
        change = [v - 50 for v in self.PARENT]
        change[0] = change[1] = 500
        holds, reasons = pair_wins.verdict(self.PARENT, change, "lower")
        self.assertFalse(holds)
        self.assertIn("won 8/10", reasons[0])

    def test_gain_within_the_parent_spread_is_not(self):
        change = [v - 1 for v in self.PARENT]
        holds, reasons = pair_wins.verdict(self.PARENT, change, "lower")
        self.assertFalse(holds)
        self.assertEqual(len(reasons), 1)
        self.assertIn("spread", reasons[0])

    def test_direction_follows_the_metric(self):
        change = [v - 50 for v in self.PARENT]
        holds, _ = pair_wins.verdict(self.PARENT, change, "higher")
        self.assertFalse(holds)


class MainTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        root = Path(self.dir.name)
        self.bench = root / "BENCHMARK.json"
        self.bench.write_text(json.dumps({"end_to_end": DECLARED}))
        self.files = {}
        # Five pairs per file, two files per side: ten pairs in seed order.
        for side, p99 in (("parent", 2000), ("change", 1000)):
            for half in (0, 1):
                path = root / f"{side}{half}.json"
                path.write_text(json.dumps({"burst": [
                    run(1e6 + half * 5 + i, p99 + i) for i in range(5)]}))
                self.files.setdefault(side, []).append(str(path))

    def main(self, *extra):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = pair_wins.main(["--parent", *self.files["parent"],
                                   "--change", *self.files["change"],
                                   "--benchmark", str(self.bench), *extra])
        return code, out.getvalue()

    def test_files_of_one_side_concatenate(self):
        runs = pair_wins.load_side(self.files["parent"])
        self.assertEqual(len(runs["burst"]), 10)
        self.assertEqual(runs["burst"][5]["metrics"]["ops_per_s"]["value"],
                         1e6 + 5)

    def test_report_lists_every_metric_with_its_wins(self):
        code, out = self.main()
        self.assertEqual(code, 0)
        self.assertIn("burst (10 parent runs, 10 change runs)", out)
        self.assertIn("change won 10/10", out)  # op_p99_ns, lower is better.
        self.assertIn("change won 0/10", out)  # ops_per_s: all ties.

    def test_claim_exit_codes(self):
        self.assertEqual(self.main("--claim", "burst/op_p99_ns")[0], 0)
        self.assertEqual(self.main("--claim", "burst/ops_per_s")[0], 1)
        self.assertEqual(self.main("--claim", "burst/nonexistent")[0], 2)
        self.assertEqual(self.main("--claim", "larson/op_p99_ns")[0], 2)


if __name__ == "__main__":
    unittest.main()
