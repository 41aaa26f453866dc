#!/usr/bin/env python3
"""Interleaved parent/change pairs of the repository benchmark.

    python3 scripts/bench_pairs.py --base REV [--change REV] [--workload W [W ...]]
                                   [--pairs 10] [--seconds 20] [--seed 62]

Without --workload it runs every workload in BENCHMARK.json, in file order;
a name that is not there exits with the known names before anything is
exported or built.  Exports each revision (default change: HEAD) with `git archive` into a
temporary directory, so nothing is left in .git even if the script is
killed, and builds and runs BENCHMARK.json's command in each tree:

    <command> --workload W --seed S --seconds N --trace 0

Each pair runs both sides back to back, and which side goes first flips on
every pair.  Every run's result line is printed as it arrives.  Then, per
workload and per end-to-end metric in BENCHMARK.json, it prints each side's
median and p25/p75, the change/parent ratio of the medians, the pairs the
change won (ties count for neither), and a verdict:

    gain              the change won >= 9/10 of the pairs, and the medians
                      differ by more than the parent's p25-p75 spread
    worse than bound  the change's median is worse than the parent's by
                      more than the metric's bound
    unresolved        the parent's spread exceeds the bound and the runs
                      overlap (not every change run beats every parent run)
    within bound      none of the above

and the total operations attempted and failed on each side.  Temporary
trees go under $TMPDIR and are removed on exit.  Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def revision(rev: str) -> str:
    """The full commit id `rev` names; exits on a bad revision."""
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           "--quiet", rev + "^{commit}"],
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {rev} names no commit")
    return done.stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Writes the tree of `rev` into `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {rev} failed")


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run; returns its result line, parsed."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} exited "
                 f"{done.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, p25 and p75, computed as perfbench/run_bench.py does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """The choosing-metrics rule; returns the verdict and the pairs won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, p25, p75 = quartiles(parent)
    c_med = quartiles(change)[0]
    gain = sign * (c_med - p_med)
    if wins * 10 >= 9 * len(parent) and gain > p75 - p25:
        return "gain", wins
    if -gain > bound * abs(p_med):
        return "worse than bound", wins
    separated = all(sign * (c - p) > 0 for p in parent for c in change)
    if (p75 - p25) > bound * abs(p_med) and not separated:
        return "unresolved", wins
    return "within bound", wins


def report(spec: dict, workload: str, runs: dict[str, list[dict]]) -> None:
    n = len(runs["parent"])
    print(f"\n{workload}: {n} pairs")
    print(f"  {'metric':17s} {'unit':10s} {'parent median [p25, p75]':34s} "
          f"{'change median [p25, p75]':34s} {'ratio':>6s} {'won':>6s}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        cells = []
        for side in SIDES:
            med, p25, p75 = quartiles(values[side])
            cells.append(f"{med:<10.4g} [{p25:.4g}, {p75:.4g}]")
        p_med = quartiles(values["parent"])[0]
        ratio = quartiles(values["change"])[0] / p_med if p_med else float("nan")
        word, wins = verdict(values["parent"], values["change"], m["better"],
                             m["bound"])
        print(f"  {name:17s} {m['unit']:10s} {cells[0]:34s} {cells[1]:34s} "
              f"{ratio:6.3f} {wins:>2d}/{n:<3d}  {word}")
    for side in SIDES:
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        print(f"  {side}: attempted {attempted}, failed {failed}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--change", default="HEAD", help="change revision")
    ap.add_argument("--workload", nargs="+",
                    help="workloads to run (default: all, in BENCHMARK.json "
                         "order)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=62)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs wants a positive count")

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"bench_pairs: unknown workload {' '.join(unknown)} "
                 f"(known: {' '.join(known)})")
    revs = {"parent": revision(args.base), "change": revision(args.change)}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {}
        for side in SIDES:
            trees[side] = work / side
            export(revs[side], trees[side])
            print(f"{side}: {revs[side][:12]} in {trees[side]}", flush=True)
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(trees[side], spec["command"], workload,
                                      args.seed, args.seconds)
                    runs[side].append(result)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"{json.dumps(result)}", flush=True)
            report(spec, workload, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
