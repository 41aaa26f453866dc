// The session scenarios analyze their sniffers' captures on a thread that
// reads them while the simulation runs.  This suite holds that streamed
// path to the retained one (RunSpec::keep_captures: whole captures,
// analyzed after the run) on both IETF sessions at 1 and 3 shards and on
// the single-queue engine: the same totals, seconds, senders, unrecorded
// estimate, work counters, manifest row and figure CSVs.  It also pins the
// thread's lifetime: an exception on either side is rethrown only after the
// analysis thread is joined.
#include "exp/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/manifest.hpp"
#include "exp/registry.hpp"
#include "obs/metrics.hpp"
#include "sim/access_point.hpp"
#include "sim/sniffer.hpp"

namespace wlan::exp {
namespace {

RunSpec session_run(const std::string& scenario, int shards,
                    sim::EngineOptions::Reference reference) {
  ExperimentSpec spec;
  spec.name = "session_stream";
  spec.scenario = scenario;
  spec.base_seed = 62;
  spec.duration_s = 30.0;
  spec.loads = {LoadPoint{60, 6.0, 0.15, 1}};
  spec.rtscts_fractions = {0.03};
  if (ScenarioRegistry::instance().churns(scenario)) spec.churn_rates = {2.0};
  RunSpec run = expand(spec).at(0);
  run.cell.shards = shards;
  run.cell.reference = reference;
  return run;
}

struct Outcome {
  RunOutput out;
  obs::Metrics metrics;
};

Outcome run_session(const RunSpec& run, bool keep_captures) {
  RunSpec r = run;
  r.keep_captures = keep_captures;
  Outcome o;
  obs::MetricsScope scope(o.metrics);
  o.out = ScenarioRegistry::instance().run(r.scenario, r);
  return o;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_seconds_equal(const core::SecondStats& a,
                          const core::SecondStats& b, std::size_t i) {
  EXPECT_EQ(a.second, b.second) << i;
  EXPECT_EQ(a.cbt_us, b.cbt_us) << i;
  EXPECT_EQ(a.cbt_us_by_rate, b.cbt_us_by_rate) << i;
  EXPECT_EQ(a.bits_all, b.bits_all) << i;
  EXPECT_EQ(a.bits_good, b.bits_good) << i;
  EXPECT_EQ(a.bytes_by_rate, b.bytes_by_rate) << i;
  EXPECT_EQ(a.data, b.data) << i;
  EXPECT_EQ(a.ack, b.ack) << i;
  EXPECT_EQ(a.rts, b.rts) << i;
  EXPECT_EQ(a.cts, b.cts) << i;
  EXPECT_EQ(a.beacon, b.beacon) << i;
  EXPECT_EQ(a.mgmt, b.mgmt) << i;
  EXPECT_EQ(a.tx_by_category, b.tx_by_category) << i;
  EXPECT_EQ(a.first_attempt_acked, b.first_attempt_acked) << i;
  EXPECT_EQ(a.acked_by_rate, b.acked_by_rate) << i;
  EXPECT_EQ(a.retries_by_rate, b.retries_by_rate) << i;
}

void expect_same_session(const RunSpec& run, const Outcome& streamed,
                         const Outcome& kept, const std::string& dir) {
  const core::AnalysisResult& a = streamed.out.analysis;
  const core::AnalysisResult& b = kept.out.analysis;
  ASSERT_GT(b.total_frames, 0u);
  EXPECT_EQ(a.total_frames, b.total_frames);
  EXPECT_EQ(a.total_data, b.total_data);
  EXPECT_EQ(a.total_acks, b.total_acks);
  EXPECT_EQ(a.total_rts, b.total_rts);
  EXPECT_EQ(a.total_cts, b.total_cts);
  EXPECT_EQ(a.start_us, b.start_us);

  ASSERT_EQ(a.seconds.size(), b.seconds.size());
  for (std::size_t i = 0; i < a.seconds.size(); ++i) {
    expect_seconds_equal(a.seconds[i], b.seconds[i], i);
  }
  EXPECT_TRUE(a.acceptance.empty());
  EXPECT_TRUE(b.acceptance.empty());

  ASSERT_EQ(a.senders.size(), b.senders.size());
  for (const auto& [addr, st] : b.senders) {
    const auto it = a.senders.find(addr);
    ASSERT_NE(it, a.senders.end()) << addr;
    EXPECT_EQ(it->second.data_tx, st.data_tx) << addr;
    EXPECT_EQ(it->second.data_acked, st.data_acked) << addr;
    EXPECT_EQ(it->second.rts_tx, st.rts_tx) << addr;
    EXPECT_EQ(it->second.uses_rtscts, st.uses_rtscts) << addr;
  }

  for (const core::UnrecordedTotals* u :
       {&streamed.out.unrecorded, &a.unrecorded}) {
    EXPECT_EQ(u->captured, kept.out.unrecorded.captured);
    EXPECT_EQ(u->missed_data, kept.out.unrecorded.missed_data);
    EXPECT_EQ(u->missed_rts, kept.out.unrecorded.missed_rts);
    EXPECT_EQ(u->missed_cts, kept.out.unrecorded.missed_cts);
  }

  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    const auto id = static_cast<obs::Id>(c);
    EXPECT_EQ(streamed.metrics.value(id), kept.metrics.value(id)) << c;
  }
  EXPECT_EQ(streamed.metrics.value(obs::Id::kTraceRecords),
            kept.metrics.value(obs::Id::kTraceRecords));
  EXPECT_GT(kept.metrics.value(obs::Id::kTraceRecords), 0u);

  EXPECT_EQ(manifest_row(make_record(run, streamed.out, 0.0), false),
            manifest_row(make_record(run, kept.out, 0.0), false));

  namespace fs = std::filesystem;
  fs::create_directories(fs::path(dir) / "streamed");
  fs::create_directories(fs::path(dir) / "kept");
  const auto streamed_figs = core::paper_figures(streamed.out.figures);
  const auto kept_figs = core::paper_figures(kept.out.figures);
  ASSERT_EQ(streamed_figs.size(), kept_figs.size());
  for (std::size_t i = 0; i < kept_figs.size(); ++i) {
    const fs::path s = fs::path(dir) / "streamed" / streamed_figs[i].file;
    const fs::path k = fs::path(dir) / "kept" / kept_figs[i].file;
    core::write_figure_csv(streamed_figs[i].figure, s.string());
    core::write_figure_csv(kept_figs[i].figure, k.string());
    EXPECT_EQ(slurp(s), slurp(k)) << kept_figs[i].file;
  }
  EXPECT_EQ(streamed.out.figures.seconds_absorbed(), b.seconds.size());
  EXPECT_EQ(streamed.out.figures.seconds_absorbed(),
            kept.out.figures.seconds_absorbed());
}

struct Engine {
  const char* label;
  int shards;
  sim::EngineOptions::Reference reference;
};

constexpr Engine kEngines[] = {
    {"shards1", 1, sim::EngineOptions::Reference::kNone},
    {"shards3", 3, sim::EngineOptions::Reference::kNone},
    {"single_queue", 1, sim::EngineOptions::Reference::kSingleQueue},
};

class SessionStreamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SessionStreamTest, StreamedEqualsKeptCaptures) {
  const std::string scenario = GetParam();
  for (const Engine& e : kEngines) {
    SCOPED_TRACE(scenario + " " + e.label);
    const RunSpec run = session_run(scenario, e.shards, e.reference);
    const Outcome streamed = run_session(run, false);
    const Outcome kept = run_session(run, true);
    expect_same_session(run, streamed, kept,
                        ::testing::TempDir() + "session_stream/" + scenario +
                            "_" + e.label);
  }
}

INSTANTIATE_TEST_SUITE_P(Sessions, SessionStreamTest,
                         ::testing::Values("ietf-plenary", "ietf-day-churn"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// One channel, one beaconing AP and two sniffers, the second with its
/// clock `lead_us` ahead.
std::unique_ptr<sim::Network> beacon_network(std::int64_t lead_us) {
  sim::NetworkConfig cfg;
  cfg.seed = 5;
  cfg.channels = {1};
  auto net = std::make_unique<sim::Network>(cfg);
  net->add_ap({0, 0, 0}, 1).start_beacons();
  for (const std::int64_t offset : {std::int64_t{0}, lead_us}) {
    sim::SnifferConfig sniff;
    sniff.position = {5, 0, 0};
    sniff.channel = 1;
    sniff.clock_offset_us = offset;
    net->add_sniffer(sniff);
  }
  return net;
}

TEST(SessionStreamTest, AnalysisThrowIsRethrownAfterTheRun) {
  // Sniffer 1's clock is 8 days ahead: past the estimator's 1 s bound, so
  // it keeps its raw clock, and the merged capture spans more than the
  // analyzer's 7 days.
  const std::unique_ptr<sim::Network> net =
      beacon_network(8LL * 24 * 3600 * 1'000'000);
  core::FigureAccumulator figures;
  bool simulated = false;
  EXPECT_THROW(
      (void)analyze_alongside(*net, "beacons",
                              [&] {
                                net->run_for(Microseconds{2'000'000});
                                simulated = true;
                              },
                              figures),
      std::invalid_argument);
  EXPECT_TRUE(simulated);
  for (const auto& sniffer : net->sniffers()) {
    EXPECT_FALSE(sniffer->streams());
    EXPECT_GT(sniffer->stats().captured, 0u);
  }
}

TEST(SessionStreamTest, SimulationThrowJoinsTheAnalysisThread) {
  const std::unique_ptr<sim::Network> net = beacon_network(1500);
  core::FigureAccumulator figures;
  // The throw comes after records have streamed; the analysis thread is
  // blocked on its inputs.  The streams must close so it ends, and the
  // simulation's exception, not the thread's result, comes out.
  EXPECT_THROW(
      (void)analyze_alongside(*net, "beacons",
                              [&] {
                                net->run_for(Microseconds{2'000'000});
                                throw std::runtime_error("simulation failed");
                              },
                              figures),
      std::runtime_error);
  EXPECT_THROW((void)analyze_alongside(
                   *net, "beacons",
                   [] { throw std::runtime_error("before any event"); },
                   figures),
               std::runtime_error);
}

TEST(SessionStreamTest, AlongsideEqualsAfterOnABeaconNetwork) {
  const auto analyze = [](auto how, core::FigureAccumulator& figures) {
    const std::unique_ptr<sim::Network> net = beacon_network(1500);
    return how(*net, "beacons",
               [&] { net->run_for(Microseconds{3'000'000}); }, figures);
  };
  core::FigureAccumulator streamed_figs;
  core::FigureAccumulator kept_figs;
  const SessionAnalysis streamed = analyze(analyze_alongside, streamed_figs);
  const SessionAnalysis kept = analyze(analyze_after, kept_figs);

  EXPECT_GT(kept.merged_records, 0u);
  EXPECT_EQ(streamed.merged_records, kept.merged_records);
  EXPECT_EQ(streamed.result.total_frames, kept.result.total_frames);
  EXPECT_EQ(streamed.result.seconds.size(), kept.result.seconds.size());
  EXPECT_EQ(streamed_figs.seconds_absorbed(), kept_figs.seconds_absorbed());
}

}  // namespace
}  // namespace wlan::exp
