#!/usr/bin/env python3
"""Tests for scripts/bench_pairs.py, the parent/change pair verdicts.

The verdict rule runs on synthetic samples of ten pairs; the command line
runs as a subprocess.  Run directly or through ctest (tools.bench_pairs,
label: unit).
"""

import importlib.util
import os
import subprocess
import sys
import tempfile
import unittest

# Importing perfbench/run_bench.py must leave no bytecode beside it.
sys.dont_write_bytecode = True

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
PAIRS = os.path.join(REPO, "scripts", "bench_pairs.py")
sys.path.insert(0, os.path.join(REPO, "scripts"))

import bench_pairs  # noqa: E402


def load_run_bench():
    """perfbench/run_bench.py as a module (perfbench/ is not a package)."""
    path = os.path.join(REPO, "perfbench", "run_bench.py")
    spec = importlib.util.spec_from_file_location("run_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Ten parent runs with a median of 104.5 and a p25-p75 spread of 5.5.
PARENT = [100.0 + i for i in range(10)]


class VerdictTest(unittest.TestCase):
    def test_nine_of_ten_pairs_past_the_spread_is_a_gain(self):
        change = [p + 10 for p in PARENT[:9]] + [PARENT[9] - 1]
        self.assertEqual(bench_pairs.verdict(PARENT, change, "higher", 0.25),
                         ("gain", 9))

    def test_eight_of_ten_pairs_is_no_gain(self):
        change = [p + 10 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
        # The medians still differ by 8, more than the 5.5 spread.
        self.assertGreater(bench_pairs.quartiles(change)[0] -
                           bench_pairs.quartiles(PARENT)[0], 5.5)
        self.assertEqual(bench_pairs.verdict(PARENT, change, "higher", 0.25),
                         ("within bound", 8))

    def test_every_pair_won_inside_the_spread_is_no_gain(self):
        change = [p + 1 for p in PARENT]
        self.assertEqual(bench_pairs.verdict(PARENT, change, "higher", 0.25),
                         ("within bound", 10))

    def test_median_worse_by_more_than_the_bound(self):
        change = [p - 30 for p in PARENT]  # 74.5 against 104.5: 29% worse
        self.assertEqual(bench_pairs.verdict(PARENT, change, "higher", 0.25),
                         ("worse than bound", 0))
        self.assertEqual(bench_pairs.verdict(PARENT, change, "higher", 0.3),
                         ("within bound", 0))

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        # Median 100, p25-p75 67.5-132.5: a spread of 65% of the median.
        wide = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0,
                110.0]
        overlapping = [p + 1 for p in wide]
        self.assertEqual(bench_pairs.verdict(wide, overlapping, "higher", 0.1),
                         ("unresolved", 10))
        # Every change run beats every parent run, by less than the spread.
        separated = [151.0 + i for i in range(10)]
        self.assertEqual(bench_pairs.verdict(wide, separated, "higher", 0.1),
                         ("within bound", 10))

    def test_lower_is_better_flips_the_sign(self):
        smaller = [p - 10 for p in PARENT]  # e.g. peak_rss_mb
        self.assertEqual(bench_pairs.verdict(PARENT, smaller, "lower", 0.1),
                         ("gain", 10))
        self.assertEqual(bench_pairs.verdict(PARENT, smaller, "higher", 0.05),
                         ("worse than bound", 0))
        larger = [p + 10 for p in PARENT]
        self.assertEqual(bench_pairs.verdict(PARENT, larger, "lower", 0.05),
                         ("worse than bound", 0))


class QuartilesTest(unittest.TestCase):
    def test_matches_run_bench(self):
        run_bench = load_run_bench()
        samples = [
            [5.0],
            [2.0, 1.0],
            [3.0, 1.0, 2.0],
            PARENT,
            [0.61, 0.535, 0.681, 0.59, 0.6, 0.57, 0.66],
            [4.5e6, 2.96e6, 4.48e6, 4.52e6, 4.4e6, 4.61e6, 4.49e6, 4.47e6],
        ]
        for values in samples:
            with self.subTest(values=values):
                self.assertEqual(bench_pairs.quartiles(values),
                                 run_bench.quartiles(values))


class CommandLineTest(unittest.TestCase):
    def test_unknown_workload_exits_before_any_export(self):
        with tempfile.TemporaryDirectory() as tmp:
            env = dict(os.environ, TMPDIR=tmp)
            done = subprocess.run(
                [sys.executable, PAIRS, "--base", "HEAD", "--workload",
                 "plenary", "no_such_workload"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                env=env)
            self.assertNotEqual(done.returncode, 0, done.stdout)
            self.assertIn("unknown workload no_such_workload", done.stdout)
            self.assertIn("known: sweep_cell plenary day_churn capture_replay",
                          done.stdout)
            self.assertNotIn("parent:", done.stdout)
            self.assertEqual(os.listdir(tmp), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
