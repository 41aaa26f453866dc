#!/usr/bin/env python3
"""Tests for scripts/perf_guard.py on synthetic google-benchmark JSON.

Each case writes a current and a baseline file, runs the guard as CI does
(a subprocess) and checks its exit code and report.  Run directly or
through ctest (tools.perf_guard, label: unit).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
GUARD = os.path.join(REPO, "scripts", "perf_guard.py")
sys.path.insert(0, os.path.join(REPO, "scripts"))

import perf_guard  # noqa: E402


def iteration_rows(name, cpu_ns):
    """One iteration row per repetition, as a repeated run without
    --benchmark_report_aggregates_only (or the committed baseline) has."""
    return [{"name": name, "run_name": name, "run_type": "iteration",
             "repetitions": len(cpu_ns), "repetition_index": i,
             "iterations": 1000, "real_time": ns, "cpu_time": ns,
             "time_unit": "ns"} for i, ns in enumerate(cpu_ns)]


def aggregate_rows(name, mean_ns, median_ns):
    """The rows --benchmark_report_aggregates_only=true writes."""
    rows = []
    for agg, ns, unit in (("mean", mean_ns, "time"),
                          ("median", median_ns, "time"),
                          ("stddev", abs(mean_ns - median_ns), "time"),
                          ("cv", 0.3, "percentage")):
        rows.append({"name": f"{name}_{agg}", "run_name": name,
                     "run_type": "aggregate", "repetitions": 5,
                     "aggregate_name": agg, "aggregate_unit": unit,
                     "iterations": 5, "real_time": ns, "cpu_time": ns,
                     "time_unit": "ns"})
    return rows


class PerfGuardTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, rows):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump({"context": {}, "benchmarks": rows}, f)
        return path

    def baseline(self):
        return self.write("baseline.json",
                          iteration_rows("BM_RngNext", [2.0]) +
                          iteration_rows("BM_Merge", [100.0]) +
                          iteration_rows("BM_Queue", [50.0]))

    def run_guard(self, current):
        done = subprocess.run([sys.executable, GUARD, current, self.baseline()],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        return done.returncode, done.stdout

    def test_thirty_percent_slower_median_fails_and_is_named(self):
        current = self.write("current.json",
                             iteration_rows("BM_RngNext", [2.0] * 5) +
                             iteration_rows("BM_Merge", [130.0] * 5) +
                             iteration_rows("BM_Queue", [50.0] * 5))
        code, out = self.run_guard(current)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION BM_Merge", out)
        self.assertIn("regression(s): BM_Merge", out)
        self.assertNotIn("REGRESSION BM_Queue", out)

    def test_one_outlier_in_five_repetitions_passes(self):
        current = self.write("current.json",
                             iteration_rows("BM_RngNext",
                                            [2.0, 2.1, 4.0, 1.9, 2.0]) +
                             iteration_rows("BM_Merge",
                                            [101.0, 99.0, 200.0, 100.0, 102.0]) +
                             iteration_rows("BM_Queue", [50.0] * 5))
        self.assertEqual(perf_guard.load(current)["BM_Merge"], 101.0)
        code, out = self.run_guard(current)
        self.assertEqual(code, 0, out)
        self.assertIn("perf_guard: OK", out)

    def test_aggregates_only_file_compares_with_iteration_baseline(self):
        # The means carry a 2x outlier each; only the medians may count.
        current = self.write("current.json",
                             aggregate_rows("BM_RngNext", 2.4, 2.0) +
                             aggregate_rows("BM_Merge", 160.0, 110.0) +
                             aggregate_rows("BM_Queue", 80.0, 45.0))
        self.assertEqual(perf_guard.load(current),
                         {"BM_RngNext": 2.0, "BM_Merge": 110.0,
                          "BM_Queue": 45.0})
        code, out = self.run_guard(current)
        self.assertEqual(code, 0, out)
        self.assertIn("ok         BM_Merge: normalized x1.100", out)
        self.assertIn("ok         BM_Queue: normalized x0.900", out)
        self.assertNotIn("NEW", out)
        self.assertNotIn("GONE", out)

    def test_file_without_reference_exits_nonzero(self):
        current = self.write("current.json",
                             iteration_rows("BM_Merge", [100.0] * 5) +
                             iteration_rows("BM_Queue", [50.0] * 5))
        code, out = self.run_guard(current)
        self.assertNotEqual(code, 0, out)
        self.assertIn("lacks BM_RngNext", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
