#!/usr/bin/env sh
# Tier-1 verify, exactly as written in ROADMAP.md:
#   cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
# plus a smoke run of the standard figure sweep through the parallel
# experiment runner (2 threads, tiny duration) so the bench/exp plumbing is
# exercised on every check, not just the unit tests.
# Run from the repo root (or anywhere; we cd to the repo first).
#
# Test-label split (assigned in CMakeLists.txt, documented in
# docs/TESTING.md):
#   unit        — fast deterministic suites; every CI matrix cell runs them
#   integration — end-to-end pipeline tests (tests/integration/)
#   stress      — long churn/soak runs (*_stress_test.cpp); CI runs these
#                 only in the Debug ASan+UBSan jobs, where lifetime bugs
#                 actually surface
# This gate runs unit+integration (-LE stress keeps the tier-1 loop fast);
# for the soak pass, build with -DWLAN_SANITIZE=ON and run
#   ctest -L stress --output-on-failure
set -e

cd "$(dirname "$0")/.."

JOBS="${CTEST_PARALLEL_LEVEL:-$(nproc 2>/dev/null || echo 2)}"

# Repo-specific static rules (determinism hazards, RNG seed discipline,
# layer DAG — docs/STATIC_ANALYSIS.md).  Needs no build, so it runs first:
# a layering or wall-clock violation fails in <1 s, not after a compile.
echo "lint: tools/wlan_lint.py over src/ bench/ examples/"
python3 tools/wlan_lint.py

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -LE stress -j "$JOBS")

# clang-tidy, baseline-gated (scripts/clang_tidy_baseline.txt).  Soft-skips
# on machines without LLVM; the dedicated CI job runs it unconditionally.
python3 scripts/clang_tidy_check.py --build-dir build --if-available

echo "smoke: bench_fig06_15_standard_sweep --threads 2 --seeds 1 --duration 4"
rm -f build/smoke/trace.json  # a stale trace must not stand in for this run's
./build/bench_fig06_15_standard_sweep --threads 2 --seeds 1 --duration 4 \
    --quiet --out-dir build/smoke --trace-out build/smoke/trace.json \
    > /dev/null
FIGURES="fig06 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15"
for fig in $FIGURES; do
    test -s "build/smoke/$fig.csv"
done
test -s build/smoke/fig06_15_manifest.csv
test -s build/smoke/fig06_15_metrics.csv
echo "smoke: OK (build/smoke/fig06_15_manifest.csv)"

# Channel-shard determinism spot-check: the same sweep with --shards 2 must
# produce byte-identical figure and metrics CSVs (the manifest is excluded
# only because it embeds wall-clock timing columns).  The full 1/2/3-shard
# matrix lives in exp.runner_determinism_test and sim.sharding_oracle_test;
# this catches a broken shard barrier on every check without a second build.
echo "smoke: 2-shard determinism spot-check vs build/smoke"
./build/bench_fig06_15_standard_sweep --threads 2 --shards 2 --seeds 1 \
    --duration 4 --quiet --out-dir build/smoke_shards > /dev/null
for fig in $FIGURES; do
    cmp "build/smoke/$fig.csv" "build/smoke_shards/$fig.csv"
done
cmp build/smoke/fig06_15_metrics.csv build/smoke_shards/fig06_15_metrics.csv
echo "smoke: OK (2-shard outputs byte-identical)"

# Observability smoke: the per-run metrics snapshot and the --trace-out
# span dump must both be well-formed JSON; the trace must hold one complete
# ("ph":"X") event per run.  Only shape is checked here
# (exp.runner_determinism_test and the perf guard check the values).
echo "smoke: metrics snapshot + trace JSON shape"
python3 - <<'EOF'
import json
m = json.load(open("build/smoke/fig06_15_metrics.json"))
assert m["runs"], "metrics JSON has no per-run snapshots"
assert "sim.events_executed" in m["aggregate"], "missing counter catalog"
t = json.load(open("build/smoke/trace.json"))
runs = [e for e in t["traceEvents"] if e["ph"] == "X"
        and e["name"].startswith("run: ")]
assert len(runs) == len(m["runs"]), (len(runs), len(m["runs"]))
print(f"smoke: OK ({len(m['runs'])} run snapshots)")
EOF

# Rate-policy plugin smoke: a MinstrelLite sweep through the 2-thread
# runner.  Asserts the registry key survives the spec -> runner -> manifest
# round trip (rate_policy is manifest column 5) — a broken PolicyRegistry
# wiring or a policy name drift fails here before any figure regenerates.
echo "smoke: minstrel sweep on the 2-thread runner"
./build/example_run_experiment cell --threads 2 --seeds 1 --duration 3 \
    --rate-policies minstrel --quiet --out-dir build/smoke_minstrel \
    > /dev/null
test -s build/smoke_minstrel/example_cell_manifest.csv
policies=$(tail -n +2 build/smoke_minstrel/example_cell_manifest.csv \
    | cut -d, -f5 | sort -u)
if [ "$policies" != "minstrel" ]; then
    echo "smoke: FAIL — manifest rate_policy column is '$policies'," \
         "expected 'minstrel'" >&2
    exit 1
fi
echo "smoke: OK (minstrel manifest rows)"

# Streaming trace pipeline: a 2-sniffer sim run written to pcap, then
# clock-corrected, merged and analyzed by the plain CLI flow.  The
# streaming-vs-batch byte comparison of every figure file is
# integration.streaming_pipeline_test; golden.digests pins the outputs.
# 20 s is the pinned capture length: a figure row needs 3 seconds in one
# utilization bin, so a shorter capture leaves fig06.csv a bare header.
echo "smoke: wlan_analyze --sim-capture, then the two-file analysis"
./build/example_wlan_analyze --sim-capture build/smoke_analyze --duration 20 \
    2> /dev/null
./build/example_wlan_analyze build/smoke_analyze/sniffer0.pcap \
    build/smoke_analyze/sniffer1.pcap --out-dir build/smoke_analyze/figs \
    > /dev/null
test -s build/smoke_analyze/figs/fig05_seconds.csv
test "$(wc -l < build/smoke_analyze/figs/fig06.csv)" -gt 1
echo "smoke: OK (build/smoke_analyze/figs)"

# The repository benchmark (perfbench/, built into .bench_build/): every
# workload once at tiny sizes, each unit checked against the committed work
# counters and output digests in perfbench/expected.json; then the plenary
# and churn sessions at 1 and 3 shards, which must agree on every counter
# but the two queue high-water gauges.
echo "smoke: perfbench --smoke and --check-shards"
python3 perfbench/run_bench.py --smoke > /dev/null
python3 perfbench/run_bench.py --check-shards
echo "smoke: OK (perfbench)"
