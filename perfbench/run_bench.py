#!/usr/bin/env python3
"""The repository benchmark (described by BENCHMARK.json at the repo root).

One run measures one workload:

    python3 perfbench/run_bench.py --workload plenary --seed 62 --seconds 20 --trace 0

It builds perfbench/ (and with it the simulator's src/ layers) into
.bench_build/, then spawns perfbench/driver.cpp's binary once per operation
until --seconds have passed, so no allocator state or peak RSS carries from
one operation into the next.  Every operation's outputs (deterministic work
counters and an FNV-1a digest of its figure output) are checked against the
committed expectations in perfbench/expected.json when the seed has an
entry, against the in-memory pipeline for capture_replay, and against every
other operation of the run.  With --trace 0 the last stdout line carries the
end-to-end metrics (medians over the run's operations); with --trace 1 it
carries the per-layer metrics of traced operations, which time each layer's
public calls from the driver side and must reproduce the untraced outputs.

Other modes:

    --repeats R [--out FILE]   a set: R interleaved repeats of all four
                               workloads (order rotated per repeat), then one
                               traced run each; prints median, p25, p75, n
    --compare A.json B.json    exits 1 if two sets' medians differ by more
                               than BENCHMARK.json's bounds
    --smoke                    every workload once, at tiny sizes
    --check-shards             sessions at 1 and 3 shards must agree
    --refresh-expected         rewrites perfbench/expected.json (seed 62)

Stdlib only.  No child runs more than 3 busy threads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "wlan_perfbench"
WORK = BUILD / "work"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ("sweep_cell", "plenary", "day_churn", "capture_replay")
EXPECTED_SEED = 62
MIN_OPS = 3  # untraced operations per run, however short --seconds is


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def die(msg: str) -> None:
    log(f"run_bench: {msg}")
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} is missing")
    with open(path) as f:
        return json.load(f)


# --- build and inputs -------------------------------------------------------

def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} holds no simulator sources (CMakeLists.txt, src/) to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j3", "--target", "wlan_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout)
            die(f"build step failed: {' '.join(cmd)}")
    WORK.mkdir(parents=True, exist_ok=True)


def binary_stamp() -> str:
    st = BINARY.stat()
    return f"{st.st_mtime_ns}-{st.st_size}"


def prepare(seed: int, size: str) -> tuple[Path, dict]:
    """Writes the capture_replay pcaps for a seed once per binary and returns
    their directory and the in-memory pipeline's reference check."""
    captures = BUILD / "captures" / f"{size}-{seed}"
    ref_path = captures / "reference.json"
    if ref_path.is_file():
        with open(ref_path) as f:
            ref = json.load(f)
        if ref.get("binary") == binary_stamp():
            return captures, ref
    log(f"prepare: writing {size} captures for seed {seed}")
    done = subprocess.run([str(BINARY), "--prepare", "--seed", str(seed), "--size", size,
                           "--captures", str(captures)],
                          cwd=WORK, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        die(f"prepare step failed for seed {seed}")
    ref = json.loads(done.stdout.strip().splitlines()[-1])
    ref["binary"] = binary_stamp()
    with open(ref_path, "w") as f:
        json.dump(ref, f)
    return captures, ref


# --- one operation ----------------------------------------------------------

def run_op(workload: str, seed: int, size: str, traced: bool,
           captures: Path | None) -> dict:
    """Spawns the driver for one operation and returns its parsed result,
    plus peak RSS and set-up time as this process observed them."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--size", size]
    if captures is not None:
        cmd += ["--captures", str(captures)]
    if traced:
        cmd.append("--traced")
    spawned = time.monotonic()
    child = subprocess.Popen(cmd, cwd=WORK, stdout=subprocess.PIPE)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    op = {"workload": workload, "traced": traced, "ok": False}
    lines = out.decode(errors="replace").strip().splitlines()
    if child.returncode != 0 or not lines:
        log(f"{workload}: driver exited {child.returncode}")
        return op
    op.update(json.loads(lines[-1]))
    op["ok"] = True
    op["rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    op["setup_s"] = op["t0"] - spawned  # both CLOCK_MONOTONIC
    return op


def load_expected(size: str, workload: str, seed: int) -> dict | None:
    if seed != EXPECTED_SEED or not EXPECTED.is_file():
        return None
    with open(EXPECTED) as f:
        return json.load(f).get(size, {}).get(workload)


class Checker:
    """Counts checked units (a sweep, a session, one replay pass, traced or
    not) and the ones whose digest or counters differ from the reference:
    the committed expectation, else the first unit seen.  A crashed
    operation fails as many units as the last good one checked."""

    def __init__(self, workload: str, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.units_per_op = 1
        self.attempted = 0
        self.failed = 0

    def unit(self, unit: dict) -> None:
        self.attempted += 1
        if self.reference is None:
            self.reference = unit
        ref = self.reference
        differ = sorted(k for k in set(unit["counters"]) | set(ref["counters"])
                        if unit["counters"].get(k) != ref["counters"].get(k))
        if unit["digest"] != ref["digest"]:
            differ.insert(0, f"digest {unit['digest']} vs {ref['digest']}")
        if differ:
            self.failed += 1
            log(f"{self.workload}: output check failed: {', '.join(differ)}")

    def check(self, op: dict) -> None:
        if not op["ok"]:
            self.attempted += self.units_per_op
            self.failed += self.units_per_op
            return
        self.units_per_op = len(op["checks"])
        for unit in op["checks"]:
            self.unit(unit)


# --- statistics -------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def summarize(values: list[float], unit: str) -> dict:
    med, p25, p75 = quartiles(values)
    return {"value": med, "unit": unit, "p25": p25, "p75": p75, "n": len(values)}


def end_to_end(spec: dict, ops: list[dict]) -> dict:
    good = [op for op in ops if op["ok"] and not op["traced"]]
    if not good:
        return {}
    samples = {
        "records_per_s": [op["records"] / op["wall_s"] for op in good],
        "sim_s_per_wall_s": [op["sim_s"] / op["wall_s"] for op in good],
        "peak_rss_mb": [op["rss_mb"] for op in good],
        "setup_s": [op["setup_s"] for op in good],
    }
    return {m["name"]: summarize(samples[m["name"]], m["unit"])
            for m in spec["end_to_end"]}


def per_layer(spec: dict, ops: list[dict]) -> dict:
    plain = [op for op in ops if op["ok"] and not op["traced"]]
    traced = [op for op in ops if op["ok"] and op["traced"]]
    if not plain or not traced:
        return {}
    e2e_wall = statistics.median(op["wall_s"] for op in plain)
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "traced.overhead":
            values = [op["wall_s"] / e2e_wall - 1.0 for op in traced]
        elif name == "exp.pool_efficiency":
            values = [op["layer"].get("run_busy_s", 0.0)
                      / (op["layer"].get("threads", 1.0) * e2e_wall) for op in traced]
        else:
            values = [op["layer"].get(name, 0.0) for op in traced]
        out[name] = summarize(values, m["unit"])
    return out


def print_table(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:15s} {name:34s} {m['unit']:10s} median {m['value']:<14.6g} "
              f"p25 {m['p25']:<14.6g} p75 {m['p75']:<14.6g} n {m['n']}")


def result_line(correct: bool, checker: Checker, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    })


# --- modes ------------------------------------------------------------------

class Workload:
    """Everything one workload's operations share within a run or set."""

    def __init__(self, name: str, seed: int, size: str):
        self.name = name
        self.seed = seed
        self.size = size
        self.captures = None
        self.checker = Checker(name, load_expected(size, name, seed))
        if name == "capture_replay":
            # The in-memory pipeline over the same pcaps is one more unit,
            # and the reference for seeds without a committed expectation.
            self.captures, prepared = prepare(seed, size)
            self.checker.unit(prepared)
        self.ops: list[dict] = []

    def run(self, traced: bool) -> dict:
        op = run_op(self.name, self.seed, self.size, traced, self.captures)
        self.checker.check(op)
        self.ops.append(op)
        return op


def run_single(spec: dict, args) -> int:
    """The benchmark contract: one workload for --seconds."""
    build()
    w = Workload(args.workload, args.seed, "full")
    deadline = time.monotonic() + args.seconds
    kinds = (False, True) if args.trace else (False,)
    while True:
        for traced in kinds:
            w.run(traced)
        untraced = sum(1 for op in w.ops if not op["traced"])
        if time.monotonic() >= deadline and untraced >= MIN_OPS:
            break
    metrics = per_layer(spec, w.ops) if args.trace else end_to_end(spec, w.ops)
    correct = w.checker.failed == 0 and bool(metrics)
    print_table(w.name, metrics)
    print(result_line(correct, w.checker, metrics))
    return 0


def run_set(spec: dict, args, size: str) -> dict:
    """Interleaved repeats of every workload, then one traced run each."""
    build()
    loads = [Workload(name, args.seed, size) for name in WORKLOADS]
    for r in range(args.repeats):
        k = r % len(loads)
        for w in loads[k:] + loads[:k]:
            op = w.run(False)
            if op["ok"]:
                log(f"repeat {r + 1}/{args.repeats} {w.name}: {op['wall_s']:.3f} s wall")
    for w in loads:
        w.run(True)

    result = {"seed": args.seed, "size": size, "repeats": args.repeats, "workloads": {}}
    correct = True
    for w in loads:
        e2e = end_to_end(spec, w.ops)
        layers = per_layer(spec, w.ops)
        ok = w.checker.failed == 0
        correct = correct and ok
        cov = layers.get("traced.coverage", {}).get("value", 0.0)
        result["workloads"][w.name] = {
            "correct": ok, "attempted": w.checker.attempted, "failed": w.checker.failed,
            "fail_rate": w.checker.failed / max(1, w.checker.attempted),
            "end_to_end": e2e, "per_layer": layers,
        }
        print_table(w.name, e2e)
        print(f"{w.name:15s} fail_rate {w.checker.failed}/{w.checker.attempted}, "
              f"traced.coverage {cov:.3f}")
    result["correct"] = correct
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    return result


def compare(spec: dict, path_a: str, path_b: str) -> int:
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    disagree = 0
    for workload in WORKLOADS:
        for m in spec["end_to_end"]:
            ma = a["workloads"][workload]["end_to_end"][m["name"]]
            mb = b["workloads"][workload]["end_to_end"][m["name"]]
            change = mb["value"] / ma["value"] - 1.0
            ok = abs(change) <= m["bound"]
            disagree += not ok
            print(f"{workload:15s} {m['name']:17s} {m['unit']:10s} "
                  f"A {ma['value']:<12.6g} [{ma['p25']:.6g}, {ma['p75']:.6g}] "
                  f"B {mb['value']:<12.6g} [{mb['p25']:.6g}, {mb['p75']:.6g}] "
                  f"{change:+7.2%} bound {m['bound']:.0%} {'ok' if ok else 'DISAGREE'}")
    print(f"compare: {disagree} pair(s) outside their bounds")
    return 1 if disagree else 0


def check_shards(seed: int) -> int:
    build()
    return subprocess.run([str(BINARY), "--check-shards", "--seed", str(seed)],
                          cwd=WORK).returncode


def refresh_expected() -> int:
    build()
    expected = {}
    for size in ("full", "smoke"):
        expected[size] = {}
        for name in WORKLOADS:
            captures = prepare(EXPECTED_SEED, size)[0] if name == "capture_replay" else None
            op = run_op(name, EXPECTED_SEED, size, False, captures)
            if not op["ok"]:
                return 1
            expected[size][name] = op["checks"][0]
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {EXPECTED}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=EXPECTED_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--check-shards", action="store_true")
    ap.add_argument("--refresh-expected", action="store_true")
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        return compare(spec, *args.compare)
    if args.check_shards:
        return check_shards(args.seed)
    if args.refresh_expected:
        return refresh_expected()
    if args.workload:
        return run_single(spec, args)
    if args.smoke:
        args.repeats = 1
    result = run_set(spec, args, "smoke" if args.smoke else "full")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
