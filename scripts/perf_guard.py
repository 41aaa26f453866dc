#!/usr/bin/env python3
"""Perf guardrail: compare a bench_micro_perf JSON run against the committed
baseline and fail on regression.

Usage: perf_guard.py CURRENT.json BASELINE.json [--threshold PCT]

Raw nanosecond baselines are machine-specific, so every benchmark is first
normalized by its own file's BM_RngNext time (a pure-ALU benchmark that
scales with single-core speed).  A benchmark regresses when its normalized
time exceeds the baseline's by more than --threshold percent (default 25).

End-to-end throughput, peak RSS and the exact work-counter and output-digest
checks live in perfbench/ (see perfbench/README.md).

New benchmarks missing from the baseline are reported but never fail the
run; refresh the baseline with:

    ./build/bench_micro_perf --benchmark_format=json \\
        --benchmark_min_time=0.5 > bench/BENCH_micro_baseline.json
"""
import argparse
import json
import sys

REFERENCE = "BM_RngNext"
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """Returns {name: cpu_ns}."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        times[b["name"]] = b["cpu_time"] * UNIT_NS[b.get("time_unit", "ns")]
    return times


def guard(current_path, baseline_path, threshold):
    """Returns the list of regressed benchmark names."""
    current = load(current_path)
    baseline = load(baseline_path)
    for name, data in ((current_path, current), (baseline_path, baseline)):
        if REFERENCE not in data:
            sys.exit(f"perf_guard: {name} lacks {REFERENCE}; cannot normalize")

    cur_ref, base_ref = current[REFERENCE], baseline[REFERENCE]
    print(f"== {current_path} vs {baseline_path}")
    print(f"machine-speed reference {REFERENCE}: "
          f"current {cur_ref:.2f} ns vs baseline {base_ref:.2f} ns")

    failures = []
    for name in sorted(current):
        if name == REFERENCE:
            continue
        if name not in baseline:
            print(f"  NEW   {name}: {current[name]:.0f} ns (not in baseline)")
            continue
        ratio = (current[name] / cur_ref) / (baseline[name] / base_ref)
        verdict = "ok"
        if ratio > 1.0 + threshold / 100.0:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"  {verdict:10s} {name}: normalized x{ratio:.3f} "
              f"({current[name]:.0f} ns vs baseline {baseline[name]:.0f} ns)")

    for name in sorted(set(baseline) - set(current) - {REFERENCE}):
        print(f"  GONE  {name}: in baseline but not in this run")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", metavar="CURRENT.json")
    ap.add_argument("baseline", metavar="BASELINE.json")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="allowed normalized slowdown, percent (default 25)")
    args = ap.parse_args()

    failures = guard(args.current, args.baseline, args.threshold)
    if failures:
        print(f"perf_guard: {len(failures)} regression(s): "
              f"{', '.join(failures)}")
        return 1
    print("perf_guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
