// Scalar-vs-batched reception oracle (PR 6 tentpole guard).
//
// The channel owns two reception evaluators: the scalar reference path
// (per-receiver sinr_db_at walks, the original implementation) and the
// batched SoA engine that evaluates every concurrent receiver of a frame in
// one pass.  The engine is only allowed to be a *layout* change: every
// reception decision, RNG draw, ground-truth record and sniffer capture
// must come out bit-for-bit identical.  This suite runs randomized cell
// fixtures and churning conference sessions through both paths and compares
// everything the simulation produces, down to float bit patterns.
//
// Style note: like the FlatMap/SmallFn property tests, configurations are
// drawn from a seeded util::Rng so the sweep is "random" but perfectly
// reproducible; any failure names the seed that produced it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/merge.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace wlan {
namespace {

// Field-wise equality with float/double compared by exact value (a capture
// SNR differing in the last ulp is a real divergence, not noise).
void expect_same_records(const std::vector<trace::CaptureRecord>& a,
                         const std::vector<trace::CaptureRecord>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what << ": capture count diverged";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    ASSERT_TRUE(x.time_us == y.time_us && x.channel == y.channel &&
                x.rate == y.rate && x.snr_db == y.snr_db &&
                x.type == y.type && x.src == y.src && x.dst == y.dst &&
                x.bssid == y.bssid && x.seq == y.seq && x.retry == y.retry &&
                x.size_bytes == y.size_bytes &&
                x.sniffer_id == y.sniffer_id && x.frame_id == y.frame_id)
        << what << ": capture record " << i << " diverged (frame "
        << x.frame_id << " vs " << y.frame_id << " at " << x.time_us << "/"
        << y.time_us << "us, snr " << x.snr_db << " vs " << y.snr_db << ")";
  }
}

void expect_same_ground_truth(const std::vector<trace::TxRecord>& a,
                              const std::vector<trace::TxRecord>& b,
                              const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what << ": TxRecord count diverged";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    ASSERT_TRUE(x.time_us == y.time_us && x.frame_id == y.frame_id &&
                x.type == y.type && x.src == y.src && x.dst == y.dst &&
                x.channel == y.channel && x.rate == y.rate &&
                x.size_bytes == y.size_bytes && x.retry == y.retry &&
                x.seq == y.seq && x.outcome == y.outcome)
        << what << ": TxRecord " << i << " diverged (frame " << x.frame_id
        << " outcome " << static_cast<int>(x.outcome) << " vs "
        << static_cast<int>(y.outcome) << ")";
  }
}

// The figure pipeline consumes the merged capture through trace::write_csv
// readers; identical CSV bytes means every downstream figure is identical.
std::string csv_bytes(const trace::Trace& trace) {
  const std::string path =
      ::testing::TempDir() + "oracle_trace_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
      ".csv";
  trace::write_csv(trace, path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return ss.str();
}

TEST(BatchedReceptionOracle, RandomizedCellsMatchScalarPath) {
  util::Rng pick(0xBA7C4ED0u);
  for (int round = 0; round < 8; ++round) {
    workload::CellConfig cfg;
    cfg.seed = pick.next();
    cfg.num_users = 6 + static_cast<int>(pick.uniform(21));
    cfg.num_aps = 1 + static_cast<int>(pick.uniform(3));
    cfg.per_user_pps = 2.0 + 6.0 * pick.uniform01();
    cfg.far_fraction = 0.1 + 0.3 * pick.uniform01();
    cfg.rtscts_fraction = pick.chance(0.5) ? 0.1 : 0.0;
    cfg.num_sniffers = 1 + static_cast<int>(pick.uniform(3));
    cfg.duration_s = 10.0;
    cfg.warmup_s = 1.0;
    SCOPED_TRACE("round " + std::to_string(round) + " seed " +
                 std::to_string(cfg.seed) + " users " +
                 std::to_string(cfg.num_users));

    cfg.reference = sim::EngineOptions::Reference::kScalarReception;
    const workload::CellResult ref = workload::run_cell(cfg);
    cfg.reference = sim::EngineOptions::Reference::kNone;
    const workload::CellResult engine = workload::run_cell(cfg);

    // Guard against a vacuous pass: a fixture that produced no traffic would
    // "agree" trivially.
    ASSERT_FALSE(ref.ground_truth.empty());
    ASSERT_FALSE(ref.trace.records.empty());
    expect_same_ground_truth(ref.ground_truth, engine.ground_truth, "cell");
    expect_same_records(ref.trace.records, engine.trace.records, "cell");
    EXPECT_EQ(ref.medium_transmissions, engine.medium_transmissions);
    EXPECT_EQ(ref.medium_collisions, engine.medium_collisions);
    EXPECT_EQ(ref.sniffer.offered, engine.sniffer.offered);
    EXPECT_EQ(ref.sniffer.captured, engine.sniffer.captured);
    EXPECT_EQ(ref.sniffer.missed_range, engine.sniffer.missed_range);
    EXPECT_EQ(ref.sniffer.missed_error, engine.sniffer.missed_error);
    EXPECT_EQ(ref.sniffer.missed_overload, engine.sniffer.missed_overload);
    EXPECT_EQ(csv_bytes(ref.trace), csv_bytes(engine.trace))
        << "figure-facing CSV bytes diverged";
  }
}

TEST(BatchedReceptionOracle, ChurningSessionsMatchScalarPath) {
  util::Rng pick(0x0C0FFEEu);
  for (int round = 0; round < 3; ++round) {
    workload::ScenarioConfig cfg;
    cfg.seed = pick.next();
    cfg.duration_s = 10.0;
    cfg.scale = 0.06 + 0.1 * pick.uniform01();
    // Churn exercises the deferred link-id recycling under both evaluators:
    // stations are torn down while their frames are still on the air.
    cfg.churn_turnover_per_min = 2.0 + 4.0 * pick.uniform01();
    const workload::SessionKind kind = round % 2 == 0
                                           ? workload::SessionKind::kDay
                                           : workload::SessionKind::kPlenary;
    SCOPED_TRACE("round " + std::to_string(round) + " seed " +
                 std::to_string(cfg.seed));

    // Runs the session and returns the sniffers' captures merged.
    const auto run_session = [&cfg, kind] {
      workload::Scenario scenario = kind == workload::SessionKind::kDay
                                        ? workload::Scenario::day(cfg)
                                        : workload::Scenario::plenary(cfg);
      scenario.run();
      return trace::merge_sniffer_traces(scenario.network().sniffer_traces())
          .trace;
    };

    cfg.reference = sim::EngineOptions::Reference::kScalarReception;
    const trace::Trace ref = run_session();
    cfg.reference = sim::EngineOptions::Reference::kNone;
    const trace::Trace engine = run_session();

    ASSERT_FALSE(ref.records.empty());
    expect_same_records(ref.records, engine.records, "session");
    EXPECT_EQ(csv_bytes(ref), csv_bytes(engine))
        << "figure-facing CSV bytes diverged";
  }
}

}  // namespace
}  // namespace wlan
