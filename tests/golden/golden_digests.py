#!/usr/bin/env python3
"""Golden output digests for the bench and example drivers.

Runs a fixed set of commands in a fresh temporary directory, hashes each
artifact (a command's stdout or a file it writes) with SHA-256, and compares
the first 16 hex digits against tests/golden/digests.txt.  Any byte that
moves in a pinned artifact fails the test, naming that artifact.

    golden_digests.py --bin-dir BUILD_DIR            # check
    golden_digests.py --bin-dir BUILD_DIR --update   # rewrite digests.txt

Refresh digests.txt only in a commit of its own whose message says why the
outputs moved.  Python stdlib only.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.txt")
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Registry scenarios whose manifests and metrics files are pinned: the two
# churn sessions and the hidden-terminal cell.  run_experiment's stdout
# carries a wall time.
EXPERIMENTS = ["ietf-day-churn", "ietf-plenary-churn", "hidden-terminal"]

# The sweep drivers run at these flags; of the ablations, these three also
# write a manifest (bench_ablation_fragmentation takes no flags).
SWEEP_FLAGS = ["--threads", "2", "--seeds", "1", "--duration", "4", "--quiet",
               "--out-dir", "."]
ABLATIONS = ["power_control", "rtscts", "timing_profile"]

# (artifact, argv): argv[0] names a binary in the build directory, and the
# command's stdout is the artifact (None: the stdout is not pinned).  Commands
# run in order in one directory: example_trace_tool reads the capture
# bench_fig05_utilization writes, and the second example_wlan_analyze run
# analyzes the pcaps the first one writes.
COMMANDS = [
    ("bench_fig04_ap_activity.stdout", ["bench_fig04_ap_activity"]),
    ("bench_fig05_utilization.stdout", ["bench_fig05_utilization"]),
    ("bench_tab1_datasets.stdout", ["bench_tab1_datasets"]),
    ("bench_ablation_estimator.stdout",
     ["bench_ablation_estimator", "--threads", "2", "--seeds", "1",
      "--duration", "4", "--quiet", "--out-dir", "."]),
    ("bench_ablation_rate_adaptation.stdout",
     ["bench_ablation_rate_adaptation", "--threads", "2", "--seeds", "1",
      "--duration", "20", "--quiet", "--out-dir", "."]),
    ("example_quickstart.stdout", ["example_quickstart"]),
    ("example_trace_tool.stdout", ["example_trace_tool", "ietf_day.trace"]),
    ("example_trace_tool_ch1.stdout",
     ["example_trace_tool", "ietf_day.trace", "--channel", "1", "--csv",
      "ietf_day_ch1.csv", "--pcap", "ietf_day_ch1.pcap"]),
    (None,
     ["example_wlan_analyze", "--sim-capture", "cap", "--duration", "20",
      "--quiet"]),
    ("example_wlan_analyze.stdout",
     ["example_wlan_analyze", "cap/sniffer0.pcap", "cap/sniffer1.pcap",
      "--out-dir", "figs"]),
] + [(None, ["example_run_experiment", name, "--threads", "2", "--seeds", "1",
             "--duration", "20", "--quiet", "--out-dir", "."])
     for name in EXPERIMENTS] + [
    ("bench_fig02_03_floorplan.stdout", ["bench_fig02_03_floorplan"]),
    ("bench_tab2_delay_components.stdout", ["bench_tab2_delay_components"]),
    ("bench_ablation_fragmentation.stdout", ["bench_ablation_fragmentation"]),
] + [(f"{driver}.stdout", [driver] + SWEEP_FLAGS)
       for driver in ["bench_fig06_15_standard_sweep", "bench_fig07_rtscts"]
       + [f"bench_ablation_{name}" for name in ABLATIONS]]


def drop_last_column(data: bytes) -> bytes:
    """Cuts each CSV line's trailing field (the manifest's wall_ms)."""
    return b"".join(line.rsplit(b",", 1)[0] + b"\n"
                    for line in data.splitlines())


# (artifact, file written by COMMANDS, transform before hashing)
FILES = [
    ("fig05_day.csv", "fig05_day.csv", lambda b: b),
    ("fig05_plenary.csv", "fig05_plenary.csv", lambda b: b),
    ("ietf_day.trace", "ietf_day.trace", lambda b: b),
    ("trace_tool_ietf_day_ch1.csv", "ietf_day_ch1.csv", lambda b: b),
    ("trace_tool_ietf_day_ch1.pcap", "ietf_day_ch1.pcap", lambda b: b),
    ("ablation_estimator_manifest.csv", "ablation_estimator_manifest.csv",
     drop_last_column),
    ("ablation_rate_adaptation_manifest.csv",
     "ablation_rate_adaptation_manifest.csv", drop_last_column),
    ("wlan_analyze_sniffer0.pcap", "cap/sniffer0.pcap", lambda b: b),
    ("wlan_analyze_sniffer1.pcap", "cap/sniffer1.pcap", lambda b: b),
    ("wlan_analyze_fig05_seconds.csv", "figs/fig05_seconds.csv", lambda b: b),
] + [(f"wlan_analyze_fig{n:02d}.csv", f"figs/fig{n:02d}.csv", lambda b: b)
     for n in range(6, 16)] + [
    (f"run_experiment_{name}_manifest.csv", f"example_{name}_manifest.csv",
     drop_last_column) for name in EXPERIMENTS] + [
    (f"run_experiment_{name}_metrics.csv", f"example_{name}_metrics.csv",
     lambda b: b) for name in EXPERIMENTS] + [
    (f"fig{n:02d}.csv", f"fig{n:02d}.csv", lambda b: b)
    for n in [6] + list(range(8, 16))] + [
    ("standard_sweep_manifest.csv", "fig06_15_manifest.csv",
     drop_last_column),
    ("standard_sweep_metrics.csv", "fig06_15_metrics.csv", lambda b: b),
    ("fig07.csv", "fig07.csv", lambda b: b),
    ("fig07_manifest.csv", "fig07_manifest.csv", drop_last_column),
] + [(f"ablation_{name}_manifest.csv", f"ablation_{name}_manifest.csv",
      drop_last_column) for name in ABLATIONS]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def check_sources() -> None:
    """Exits naming a command whose driver source is gone: CMake never
    deletes a removed driver's executable, so a stale binary in the build
    directory would keep its pins passing."""
    for _, argv in COMMANDS:
        kind, _, name = argv[0].partition("_")
        source = {"bench": "bench", "example": "examples"}[kind]
        if not os.path.isfile(os.path.join(REPO, source, name + ".cpp")):
            sys.exit(f"golden.digests: {argv[0]} has no source "
                     f"{source}/{name}.cpp; drop its command and pins")


def produce(bin_dir: str) -> dict:
    out = {}
    with tempfile.TemporaryDirectory(prefix="golden_") as work:
        for artifact, argv in COMMANDS:
            exe = os.path.join(bin_dir, argv[0])
            proc = subprocess.run([exe] + argv[1:], cwd=work,
                                  stdout=subprocess.PIPE, check=False)
            if proc.returncode != 0:
                sys.exit(f"golden.digests: {' '.join(argv)} exited "
                         f"{proc.returncode}")
            if artifact:
                out[artifact] = digest(proc.stdout)
        for artifact, name, transform in FILES:
            with open(os.path.join(work, name), "rb") as f:
                out[artifact] = digest(transform(f.read()))
    return out


def load() -> dict:
    pinned = {}
    with open(DIGESTS, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                artifact, value = line.split()
                pinned[artifact] = value
    return pinned


def save(actual: dict) -> None:
    with open(DIGESTS, "w", encoding="utf-8") as f:
        f.write("# Golden output digests: artifact, first 16 hex digits of its\n"
                "# SHA-256.  Written by tests/golden/golden_digests.py --update;\n"
                "# refresh only in a commit of its own that says why.\n")
        for artifact, value in actual.items():
            f.write(f"{artifact} {value}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", required=True,
                    help="build directory holding the bench_* and example_* "
                         "binaries")
    ap.add_argument("--update", action="store_true",
                    help="rewrite digests.txt from this build's outputs")
    args = ap.parse_args()

    check_sources()
    actual = produce(os.path.abspath(args.bin_dir))
    if args.update:
        save(actual)
        print(f"golden.digests: wrote {len(actual)} digests to {DIGESTS}")
        return 0

    pinned = load()
    failed = False
    for artifact, value in actual.items():
        if artifact not in pinned:
            print(f"golden.digests: {artifact} is not pinned in {DIGESTS}")
            failed = True
        elif pinned[artifact] != value:
            print(f"golden.digests: {artifact} differs "
                  f"(pinned {pinned[artifact]}, got {value})")
            failed = True
    for artifact in pinned.keys() - actual.keys():
        print(f"golden.digests: pinned artifact {artifact} was not produced")
        failed = True
    if failed:
        return 1
    print(f"golden.digests: {len(actual)} artifacts match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
