// The determinism contract of the parallel runner: the same spec produces
// byte-identical aggregated figures, manifest files and run records no
// matter how many threads execute it, and any single run can be reproduced
// from its grid index alone.
#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "exp/args.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace wlan::exp {
namespace {

/// A Metrics register as a comparable vector (catalog order).
std::vector<std::uint64_t> counter_values(const obs::Metrics& m) {
  std::vector<std::uint64_t> v;
  v.reserve(obs::kNumCounters);
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    v.push_back(m.value(static_cast<obs::Id>(c)));
  }
  return v;
}

ExperimentSpec tiny_sweep() {
  ExperimentSpec spec;
  spec.name = "determinism";
  spec.base_seed = 31;
  spec.seeds_per_point = 2;
  spec.duration_s = 5.0;
  spec.base.warmup_s = 1.0;
  spec.loads = {{6, 30.0, 0.1, 1}, {10, 60.0, 0.25, 3}};
  return spec;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ExperimentResult run_with_threads(int threads, const std::string& out_dir) {
  RunnerOptions opt;
  opt.threads = threads;
  opt.out_dir = out_dir;
  opt.per_point_figures = true;
  opt.timing_in_manifest = false;  // wall clock is the one nondeterminism
  return run_experiment(tiny_sweep(), opt);
}

TEST(RunnerDeterminismTest, OneThreadAndManyThreadsAreByteIdentical) {
  const std::string dir1 = ::testing::TempDir() + "exp_det_t1";
  const std::string dir4 = ::testing::TempDir() + "exp_det_t4";
  const auto r1 = run_with_threads(1, dir1);
  const auto r4 = run_with_threads(4, dir4);

  // Aggregated figures render identically (same doubles, bit for bit).
  EXPECT_EQ(core::render_figure(r1.figures.fig06_throughput_goodput(1)),
            core::render_figure(r4.figures.fig06_throughput_goodput(1)));
  EXPECT_EQ(core::render_figure(r1.figures.fig08_busytime_share(1)),
            core::render_figure(r4.figures.fig08_busytime_share(1)));
  EXPECT_EQ(r1.figures.seconds_absorbed(), r4.figures.seconds_absorbed());

  // Per-point accumulators too.
  ASSERT_EQ(r1.per_point.size(), r4.per_point.size());
  for (std::size_t p = 0; p < r1.per_point.size(); ++p) {
    EXPECT_EQ(core::render_figure(r1.per_point[p].fig06_throughput_goodput(1)),
              core::render_figure(r4.per_point[p].fig06_throughput_goodput(1)));
  }

  // Every manifest row agrees field for field.
  ASSERT_EQ(r1.runs.size(), r4.runs.size());
  for (std::size_t i = 0; i < r1.runs.size(); ++i) {
    EXPECT_EQ(manifest_row(r1.runs[i], false), manifest_row(r4.runs[i], false));
  }

  // And the files on disk are byte-identical.
  EXPECT_EQ(slurp(dir1 + "/determinism_manifest.csv"),
            slurp(dir4 + "/determinism_manifest.csv"));
  EXPECT_EQ(slurp(dir1 + "/determinism_manifest.json"),
            slurp(dir4 + "/determinism_manifest.json"));
  EXPECT_FALSE(slurp(dir1 + "/determinism_manifest.csv").empty());

  // The work-counter snapshots obey the same contract: every per-run
  // register, the aggregate, and the files on disk are byte-identical for
  // any thread count.
  ASSERT_EQ(r1.run_metrics.size(), r4.run_metrics.size());
  for (std::size_t i = 0; i < r1.run_metrics.size(); ++i) {
    EXPECT_EQ(counter_values(r1.run_metrics[i].metrics),
              counter_values(r4.run_metrics[i].metrics)) << "run " << i;
  }
  EXPECT_EQ(counter_values(r1.metrics), counter_values(r4.metrics));
  EXPECT_EQ(slurp(dir1 + "/determinism_metrics.csv"),
            slurp(dir4 + "/determinism_metrics.csv"));
  EXPECT_EQ(slurp(dir1 + "/determinism_metrics.json"),
            slurp(dir4 + "/determinism_metrics.json"));
  EXPECT_FALSE(slurp(dir1 + "/determinism_metrics.csv").empty());
  // The counters must actually count: a 5-second 4-run sweep
  // dispatches events, transmits frames, and draws delivery chances.
  EXPECT_EQ(r1.metrics.value(obs::Id::kRuns), 4u);
  EXPECT_GT(r1.metrics.value(obs::Id::kEventsExecuted), 0u);
  EXPECT_GT(r1.metrics.value(obs::Id::kTransmissions), 0u);
  EXPECT_GT(r1.metrics.value(obs::Id::kDeliveryChanceDraws), 0u);
  EXPECT_GT(r1.metrics.value(obs::Id::kFrameSuccessEvals), 0u);
  EXPECT_GT(r1.metrics.value(obs::Id::kEventQueueDepthHw), 0u);
}

TEST(RunnerDeterminismTest, OnlyRunReproducesASingleGridPointExactly) {
  const auto full = run_with_threads(2, "");

  RunnerOptions opt;
  opt.only_run = 2;
  const auto one = run_experiment(tiny_sweep(), opt);
  ASSERT_EQ(one.runs.size(), 1u);
  EXPECT_EQ(one.runs[0].run_index, 2u);
  EXPECT_EQ(manifest_row(one.runs[0], false), manifest_row(full.runs[2], false));

  // The replay's counter snapshot is the full-grid row, value for value.
  ASSERT_EQ(one.run_metrics.size(), 1u);
  EXPECT_EQ(one.run_metrics[0].run_index, 2u);
  EXPECT_EQ(one.run_metrics[0].seed, full.run_metrics[2].seed);
  EXPECT_EQ(counter_values(one.run_metrics[0].metrics),
            counter_values(full.run_metrics[2].metrics));

  RunnerOptions bad;
  bad.only_run = 99;
  EXPECT_THROW(run_experiment(tiny_sweep(), bad), std::out_of_range);
}

// The same contract must hold for the dynamic-population scenarios: churn
// spawns/retires stations on the event queue and recycles link ids, none of
// which may leak schedule- or thread-dependence into the output.
ExperimentSpec churn_sweep() {
  ExperimentSpec spec;
  spec.name = "churn_det";
  spec.scenario = "ietf-day-churn";
  spec.base_seed = 47;
  spec.seeds_per_point = 2;
  spec.duration_s = 8.0;
  // Sessions read users as population scale x100; churn axis is population
  // turnover per minute — 6/min means a brisk 10 s mean dwell.
  spec.loads = {{6, 20.0, 0.1, 1}, {8, 30.0, 0.1, 1}};
  spec.churn_rates = {2.0, 6.0};
  return spec;
}

TEST(RunnerDeterminismTest, ChurnScenarioIsThreadCountInvariantByteForByte) {
  const std::string dir1 = ::testing::TempDir() + "exp_churn_t1";
  const std::string dir4 = ::testing::TempDir() + "exp_churn_t4";
  RunnerOptions o1;
  o1.threads = 1;
  o1.out_dir = dir1;
  o1.timing_in_manifest = false;
  RunnerOptions o4 = o1;
  o4.threads = 4;
  o4.out_dir = dir4;

  const auto r1 = run_experiment(churn_sweep(), o1);
  const auto r4 = run_experiment(churn_sweep(), o4);

  ASSERT_EQ(r1.runs.size(), 8u);  // 2 loads x 2 churn rates x 2 seeds
  ASSERT_EQ(r4.runs.size(), 8u);
  for (std::size_t i = 0; i < r1.runs.size(); ++i) {
    EXPECT_EQ(manifest_row(r1.runs[i], false), manifest_row(r4.runs[i], false));
  }
  EXPECT_EQ(core::render_figure(r1.figures.fig06_throughput_goodput(1)),
            core::render_figure(r4.figures.fig06_throughput_goodput(1)));
  EXPECT_EQ(slurp(dir1 + "/churn_det_manifest.csv"),
            slurp(dir4 + "/churn_det_manifest.csv"));
  EXPECT_EQ(slurp(dir1 + "/churn_det_manifest.json"),
            slurp(dir4 + "/churn_det_manifest.json"));
  EXPECT_FALSE(slurp(dir1 + "/churn_det_manifest.csv").empty());

  // Churn lifecycle counters are schedule-free too.
  EXPECT_EQ(slurp(dir1 + "/churn_det_metrics.csv"),
            slurp(dir4 + "/churn_det_metrics.csv"));
  EXPECT_EQ(counter_values(r1.metrics), counter_values(r4.metrics));
  // A brisk-turnover day session must exercise the whole lifecycle:
  // arrivals, dwell-out removals, and deferred link-id recycling.
  EXPECT_GT(r1.metrics.value(obs::Id::kChurnArrivals), 0u);
  EXPECT_GT(r1.metrics.value(obs::Id::kStationsRemoved), 0u);
  EXPECT_GT(r1.metrics.value(obs::Id::kLinkIdsRecycled), 0u);
  EXPECT_GT(r1.metrics.value(obs::Id::kChurnPeakLive), 0u);

  // Churn arms at the same load and repeat are seed-paired (common random
  // numbers): same derived seed, different churn treatment.
  const auto runs = expand(churn_sweep());
  ASSERT_EQ(runs.size(), 8u);
  EXPECT_EQ(runs[0].seed, runs[2].seed);  // churn 2 vs 6, load 0, repeat 0
  EXPECT_NE(runs[0].churn_rate, runs[2].churn_rate);
}

TEST(RunnerDeterminismTest, ChurnOnlyReplayReproducesTheFullGridRun) {
  RunnerOptions full_opt;
  full_opt.threads = 2;
  const auto full = run_experiment(churn_sweep(), full_opt);

  RunnerOptions opt;
  opt.only_run = 5;
  const auto one = run_experiment(churn_sweep(), opt);
  ASSERT_EQ(one.runs.size(), 1u);
  EXPECT_EQ(one.runs[0].run_index, 5u);
  EXPECT_EQ(manifest_row(one.runs[0], false),
            manifest_row(full.runs[5], false));
}

// The spec's reference-engine switch must be figure-invisible: the
// production engine (the default — every test above runs it) and each
// reference engine the oracle suites keep — scalar reception and the single
// event queue — must produce byte-identical manifests and figures across
// the whole grid, for the cell and hidden-terminal fixtures alike.  This is
// the runner-level complement of the simulator-level oracles in
// tests/sim/batched_reception_oracle_test.cpp and sharding_oracle_test.cpp:
// it proves the switch reaches every scenario through the registry and that
// no aggregation step amplifies a latent difference.
using Reference = sim::EngineOptions::Reference;

constexpr Reference kReferences[] = {Reference::kScalarReception,
                                     Reference::kSingleQueue};

std::string reference_name(Reference reference) {
  return reference == Reference::kScalarReception ? "scalar-reception"
                                                  : "single-queue";
}

TEST(RunnerDeterminismTest, ReferenceEnginesAreByteIdentical) {
  RunnerOptions opt;
  opt.threads = 2;
  opt.timing_in_manifest = false;

  for (const char* scenario : {"cell", "hidden-terminal"}) {
    auto production = tiny_sweep();
    production.scenario = scenario;
    const auto rp = run_experiment(production, opt);
    for (const Reference reference : kReferences) {
      SCOPED_TRACE(std::string(scenario) + " vs " + reference_name(reference));
      auto spec = production;
      spec.base.reference = reference;
      const auto rr = run_experiment(spec, opt);

      ASSERT_EQ(rp.runs.size(), rr.runs.size());
      for (std::size_t i = 0; i < rp.runs.size(); ++i) {
        EXPECT_EQ(manifest_row(rp.runs[i], false),
                  manifest_row(rr.runs[i], false));
      }
      EXPECT_EQ(core::render_figure(rp.figures.fig06_throughput_goodput(1)),
                core::render_figure(rr.figures.fig06_throughput_goodput(1)));
      EXPECT_EQ(core::render_figure(rp.figures.fig08_busytime_share(1)),
                core::render_figure(rr.figures.fig08_busytime_share(1)));

      // The counters tell the same story from the work side.  The RNG
      // contract (one chance() per receivable candidate, in node order)
      // makes the delivery draw count engine-invariant, and neither
      // reference changes which events run.
      const obs::Metrics& mp = rp.metrics;
      const obs::Metrics& mr = rr.metrics;
      EXPECT_GT(mp.value(obs::Id::kReceptionsBatched), 0u);
      EXPECT_EQ(mp.value(obs::Id::kDeliveryChanceDraws),
                mr.value(obs::Id::kDeliveryChanceDraws));
      EXPECT_EQ(mp.value(obs::Id::kEventsExecuted),
                mr.value(obs::Id::kEventsExecuted));
      EXPECT_EQ(mp.value(obs::Id::kTransmissions),
                mr.value(obs::Id::kTransmissions));
      if (reference == Reference::kScalarReception) {
        // The reception totals land in the per-engine counter of whichever
        // path ran, and the batched engine's broadcast-plan reuse means it
        // can only *save* full frame-success evaluations, never add any.
        EXPECT_EQ(mr.value(obs::Id::kReceptionsBatched), 0u);
        EXPECT_EQ(mp.value(obs::Id::kReceptionsScalar), 0u);
        EXPECT_EQ(mp.value(obs::Id::kReceptionsBatched),
                  mr.value(obs::Id::kReceptionsScalar));
        EXPECT_LE(mp.value(obs::Id::kFrameSuccessEvals),
                  mr.value(obs::Id::kFrameSuccessEvals));
      } else {
        // One queue instead of shard queues is a dispatch change only:
        // every counter agrees except the two per-queue high-water gauges.
        for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
          const auto id = static_cast<obs::Id>(c);
          if (id == obs::Id::kEventQueueDepthHw ||
              id == obs::Id::kEventQueueSlotPoolHw) {
            continue;
          }
          EXPECT_EQ(mp.value(id), mr.value(id)) << obs::name(id);
        }
      }
    }
  }
}

TEST(RunnerDeterminismTest, ReferenceEnginesAgreeOnAChurnGridPoint) {
  // Churn tears stations down mid-flight (deferred link-id recycling) and
  // roams them across channel shards: the trickiest lifetime case for the
  // batched engine's snapshots and for the watermark protocol.  One replayed
  // grid point keeps this cheap; the full-grid equivalence is covered above.
  RunnerOptions opt;
  opt.only_run = 3;
  opt.timing_in_manifest = false;

  const auto rp = run_experiment(churn_sweep(), opt);
  ASSERT_EQ(rp.runs.size(), 1u);
  for (const Reference reference : kReferences) {
    SCOPED_TRACE(reference_name(reference));
    auto spec = churn_sweep();
    spec.base.reference = reference;
    const auto rr = run_experiment(spec, opt);
    ASSERT_EQ(rr.runs.size(), 1u);
    EXPECT_EQ(manifest_row(rp.runs[0], false), manifest_row(rr.runs[0], false));
    // Vacuous-pass guards: the switch must reach the session through the
    // registry.  The scalar path books its receptions separately, and one
    // queue holding all three channels' events peaks deeper than any shard.
    const obs::Metrics& mp = rp.metrics;
    const obs::Metrics& mr = rr.metrics;
    if (reference == Reference::kScalarReception) {
      EXPECT_GT(mr.value(obs::Id::kReceptionsScalar), 0u);
    } else {
      EXPECT_GT(mr.value(obs::Id::kEventQueueDepthHw),
                mp.value(obs::Id::kEventQueueDepthHw));
    }
  }
}

// The observability invariant from the other side: turning span tracing ON
// must not change a byte of any figure, manifest, or counter snapshot —
// tracing is wall-clock profiling, strictly out-of-band of the simulation.
TEST(RunnerDeterminismTest, EnablingTracingChangesNoOutputByte) {
  const std::string dir_off = ::testing::TempDir() + "exp_trace_off";
  const std::string dir_on = ::testing::TempDir() + "exp_trace_on";
  const auto off = run_with_threads(2, dir_off);

  obs::TraceLog::instance().enable();
  const auto on = run_with_threads(2, dir_on);
  const std::string trace_path = ::testing::TempDir() + "exp_trace.json";
  EXPECT_TRUE(obs::TraceLog::instance().write(trace_path));
  const std::string trace = slurp(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"run: cell #0 seed"), std::string::npos);
  obs::TraceLog::instance().reset();  // don't leak tracing into other tests

  EXPECT_EQ(core::render_figure(off.figures.fig06_throughput_goodput(1)),
            core::render_figure(on.figures.fig06_throughput_goodput(1)));
  EXPECT_EQ(slurp(dir_off + "/determinism_manifest.csv"),
            slurp(dir_on + "/determinism_manifest.csv"));
  EXPECT_EQ(slurp(dir_off + "/determinism_manifest.json"),
            slurp(dir_on + "/determinism_manifest.json"));
  EXPECT_EQ(slurp(dir_off + "/determinism_metrics.csv"),
            slurp(dir_on + "/determinism_metrics.csv"));
  EXPECT_EQ(slurp(dir_off + "/determinism_metrics.json"),
            slurp(dir_on + "/determinism_metrics.json"));
}

// Intra-run channel sharding obeys the same contract as the runner's own
// thread pool: ExperimentSpec::shards (the --shards flag) is purely a
// worker-thread count for the per-channel shard phases inside each run, so
// manifests, rendered figures, and every merged work counter must be
// byte-identical for shards 1, 2 and 3.  (The sharded-vs-single-queue
// *structure* equivalence lives in tests/sim/sharding_oracle_test.cpp; this
// test pins that the worker count never leaks into any output.)
ExperimentResult run_with_shards(ExperimentSpec spec, int shards,
                                 const std::string& out_dir) {
  spec.shards = shards;
  RunnerOptions opt;
  opt.threads = 2;
  opt.out_dir = out_dir;
  opt.timing_in_manifest = false;
  return run_experiment(spec, opt);
}

TEST(RunnerDeterminismTest, ShardCountIsOutputInvariantByteForByte) {
  const std::string dir1 = ::testing::TempDir() + "exp_shards1";
  const std::string dir2 = ::testing::TempDir() + "exp_shards2";
  const std::string dir3 = ::testing::TempDir() + "exp_shards3";
  const auto r1 = run_with_shards(tiny_sweep(), 1, dir1);
  const auto r2 = run_with_shards(tiny_sweep(), 2, dir2);
  const auto r3 = run_with_shards(tiny_sweep(), 3, dir3);

  for (const std::string* dir : {&dir2, &dir3}) {
    EXPECT_EQ(slurp(dir1 + "/determinism_manifest.csv"),
              slurp(*dir + "/determinism_manifest.csv"));
    EXPECT_EQ(slurp(dir1 + "/determinism_manifest.json"),
              slurp(*dir + "/determinism_manifest.json"));
    EXPECT_EQ(slurp(dir1 + "/determinism_metrics.csv"),
              slurp(*dir + "/determinism_metrics.csv"));
    EXPECT_EQ(slurp(dir1 + "/determinism_metrics.json"),
              slurp(*dir + "/determinism_metrics.json"));
  }
  EXPECT_FALSE(slurp(dir1 + "/determinism_manifest.csv").empty());
  EXPECT_EQ(core::render_figure(r1.figures.fig06_throughput_goodput(1)),
            core::render_figure(r2.figures.fig06_throughput_goodput(1)));
  EXPECT_EQ(core::render_figure(r1.figures.fig06_throughput_goodput(1)),
            core::render_figure(r3.figures.fig06_throughput_goodput(1)));
  EXPECT_EQ(core::render_figure(r1.figures.fig08_busytime_share(1)),
            core::render_figure(r3.figures.fig08_busytime_share(1)));
  EXPECT_EQ(counter_values(r1.metrics), counter_values(r2.metrics));
  EXPECT_EQ(counter_values(r1.metrics), counter_values(r3.metrics));
}

TEST(RunnerDeterminismTest, ChurnScenarioIsShardCountInvariant) {
  // The three-channel conference session with brisk churn: roams retire a
  // station on one channel's shard and bring its successor up on another's,
  // the only cross-shard interaction in the system.  Worker counts 1 and 3
  // must still agree on every byte.
  const std::string dir1 = ::testing::TempDir() + "exp_churn_shards1";
  const std::string dir3 = ::testing::TempDir() + "exp_churn_shards3";
  const auto r1 = run_with_shards(churn_sweep(), 1, dir1);
  const auto r3 = run_with_shards(churn_sweep(), 3, dir3);

  EXPECT_EQ(slurp(dir1 + "/churn_det_manifest.csv"),
            slurp(dir3 + "/churn_det_manifest.csv"));
  EXPECT_EQ(slurp(dir1 + "/churn_det_manifest.json"),
            slurp(dir3 + "/churn_det_manifest.json"));
  EXPECT_EQ(slurp(dir1 + "/churn_det_metrics.csv"),
            slurp(dir3 + "/churn_det_metrics.csv"));
  EXPECT_FALSE(slurp(dir1 + "/churn_det_manifest.csv").empty());
  EXPECT_EQ(core::render_figure(r1.figures.fig06_throughput_goodput(1)),
            core::render_figure(r3.figures.fig06_throughput_goodput(1)));
  EXPECT_EQ(counter_values(r1.metrics), counter_values(r3.metrics));
  // Vacuous-pass guard: the sweep must actually exercise cross-shard roams.
  EXPECT_GT(r1.metrics.value(obs::Id::kChurnRoams), 0u);
}

// The churn_rates axis is validated at expansion (KNOWN_ISSUES PR 5
// triage): combinations that can only produce duplicate runs fail loudly,
// naming the scenario and the axis, instead of silently multiplying the
// grid.
TEST(RunnerDeterminismTest, ChurnAxisFootgunsAreRejectedAtExpansion) {
  // Multi-valued churn axis on a static-population scenario.
  auto bad_static = tiny_sweep();
  bad_static.churn_rates = {0.0, 2.0};
  try {
    (void)expand(bad_static);
    FAIL() << "multi-valued churn axis on \"cell\" should not expand";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cell"), std::string::npos) << msg;
    EXPECT_NE(msg.find("churn_rates"), std::string::npos) << msg;
  }

  // More than one 0: a churn scenario substitutes its default for each, so
  // the arms would be identical.  A negative value is rejected on its own.
  for (const std::vector<double>& rates :
       {std::vector<double>{0.0, -1.0, 4.0},
        std::vector<double>{0.0, 0.0, 4.0}}) {
    auto bad_churn = churn_sweep();
    bad_churn.churn_rates = rates;
    try {
      (void)expand(bad_churn);
      FAIL() << "a negative or a second 0 churn value should not expand";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("ietf-day-churn"), std::string::npos) << msg;
      EXPECT_NE(msg.find("churn_rates"), std::string::npos) << msg;
    }
  }

  // The legitimate shapes still expand: a single disabled value on a static
  // scenario (the default) and a multi-valued all-positive churn sweep.
  EXPECT_EQ(expand(tiny_sweep()).size(), 4u);
  EXPECT_EQ(expand(churn_sweep()).size(), 8u);
}

TEST(RunnerDeterminismTest, UnknownScenarioThrowsOnTheCallingThread) {
  // Must surface as a catchable exception, not std::terminate in a worker.
  auto spec = tiny_sweep();
  spec.scenario = "celll";  // typo
  EXPECT_THROW((void)run_experiment(spec), std::invalid_argument);
}

TEST(RunnerDeterminismTest, ThreadOversubscriptionIsHarmless) {
  // More threads than runs must clamp, not hang or crash.
  RunnerOptions opt;
  opt.threads = 64;
  const auto res = run_experiment(tiny_sweep(), opt);
  EXPECT_EQ(res.runs.size(), 4u);
  EXPECT_GT(res.figures.seconds_absorbed(), 0u);
}

}  // namespace
}  // namespace wlan::exp
