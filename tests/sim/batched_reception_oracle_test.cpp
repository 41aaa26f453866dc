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

#include <string>
#include <vector>

#include "oracle_compare.hpp"
#include "trace/merge.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace wlan {
namespace {

using oracle::csv_bytes;
using oracle::expect_same_ground_truth;
using oracle::expect_same_records;

TEST(BatchedReceptionOracle, RandomizedCellsMatchScalarPath) {
  util::Rng pick(0xBA7C4ED0u);
  for (int round = 0; round < 8; ++round) {
    workload::CellConfig cfg;
    cfg.seed = pick.next();
    cfg.num_users = 6 + static_cast<int>(pick.uniform(21));
    cfg.num_aps = 1 + static_cast<int>(pick.uniform(3));
    cfg.profile.mean_pps = 2.0 + 6.0 * pick.uniform01();
    cfg.far_fraction = 0.1 + 0.3 * pick.uniform01();
    cfg.rtscts_fraction = pick.chance(0.5) ? 0.1 : 0.0;
    cfg.num_sniffers = 1 + static_cast<int>(pick.uniform(3));
    cfg.duration_s = 10.0;
    cfg.warmup_s = 1.0;
    cfg.keep_ground_truth = true;
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
