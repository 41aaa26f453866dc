// Single-queue-vs-sharded driver oracle (PR 10 tentpole guard).
//
// The Network owns two event-dispatch structures: the single-queue
// reference (every channel aliased onto the control Simulator — the
// pre-sharding engine, one totally-ordered queue) and the sharded driver
// (one EventQueue per channel plus a control lane, coupled through the
// watermark protocol, optionally executed by worker threads).  Sharding is
// only allowed to be a *dispatch* change: every reception decision, RNG
// draw, ground-truth record, sniffer capture and work counter must come out
// bit-for-bit identical, for any worker count.  This suite runs randomized
// cell fixtures and roam-heavy conference sessions through both structures
// and compares everything the simulation produces.
//
// The only exemptions are the two per-queue high-water gauges
// (sim.event_queue_depth_hw / slot_pool_hw): one big queue and several
// small ones legitimately peak at different depths.  Everything else —
// including the executed/scheduled/cancelled *totals* — must match.
//
// Style note: like the batched-reception oracle, configurations are drawn
// from a seeded util::Rng so the sweep is "random" but perfectly
// reproducible; any failure names the seed that produced it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "oracle_compare.hpp"
#include "obs/metrics.hpp"
#include "trace/merge.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace wlan {
namespace {

using oracle::csv_bytes;
using oracle::expect_same_ground_truth;
using oracle::expect_same_records;

/// Work counters must agree value for value — except the two per-queue
/// high-water gauges, which depend on how events are *distributed* across
/// queues rather than on what the simulation did.
void expect_same_counters(const obs::Metrics& a, const obs::Metrics& b,
                          const std::string& what) {
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    const auto id = static_cast<obs::Id>(c);
    if (id == obs::Id::kEventQueueDepthHw ||
        id == obs::Id::kEventQueueSlotPoolHw) {
      continue;
    }
    EXPECT_EQ(a.value(id), b.value(id))
        << what << ": counter " << obs::name(id) << " diverged";
  }
}

TEST(ShardingOracle, RandomizedCellsMatchSingleQueue) {
  util::Rng pick(0x54A4DED1u);
  for (int round = 0; round < 6; ++round) {
    workload::CellConfig cfg;
    cfg.seed = pick.next();
    cfg.num_users = 6 + static_cast<int>(pick.uniform(18));
    cfg.num_aps = 1 + static_cast<int>(pick.uniform(3));
    cfg.per_user_pps = 2.0 + 6.0 * pick.uniform01();
    cfg.far_fraction = 0.1 + 0.3 * pick.uniform01();
    cfg.rtscts_fraction = pick.chance(0.5) ? 0.1 : 0.0;
    cfg.num_sniffers = 1 + static_cast<int>(pick.uniform(3));
    cfg.duration_s = 8.0;
    cfg.warmup_s = 1.0;
    SCOPED_TRACE("round " + std::to_string(round) + " seed " +
                 std::to_string(cfg.seed) + " users " +
                 std::to_string(cfg.num_users));

    cfg.reference = sim::EngineOptions::Reference::kSingleQueue;
    obs::Metrics m_ref;
    workload::CellResult ref;
    {
      obs::MetricsScope scope(m_ref);
      ref = workload::run_cell(cfg);
    }
    cfg.reference = sim::EngineOptions::Reference::kNone;
    cfg.shards = round % 2 == 0 ? 1 : 2;
    obs::Metrics m_sharded;
    workload::CellResult sharded;
    {
      obs::MetricsScope scope(m_sharded);
      sharded = workload::run_cell(cfg);
    }

    // Guard against a vacuous pass: a fixture that produced no traffic
    // would "agree" trivially.
    ASSERT_FALSE(ref.ground_truth.empty());
    ASSERT_FALSE(ref.trace.records.empty());
    expect_same_ground_truth(ref.ground_truth, sharded.ground_truth, "cell");
    expect_same_records(ref.trace.records, sharded.trace.records, "cell");
    EXPECT_EQ(ref.medium_transmissions, sharded.medium_transmissions);
    EXPECT_EQ(ref.medium_collisions, sharded.medium_collisions);
    EXPECT_EQ(ref.sniffer.offered, sharded.sniffer.offered);
    EXPECT_EQ(ref.sniffer.captured, sharded.sniffer.captured);
    expect_same_counters(m_ref, m_sharded, "cell");
    EXPECT_EQ(csv_bytes(ref.trace), csv_bytes(sharded.trace))
        << "figure-facing CSV bytes diverged";
  }
}

// The hard case: three channels, churning population, cross-channel roams.
// A roam is the only cross-shard interaction — the control lane retires a
// station on one channel's queue and brings the successor up on another's
// within one serial step — so this is where a watermark bug would surface.
TEST(ShardingOracle, RoamingSessionsMatchSingleQueueForAnyWorkerCount) {
  util::Rng pick(0x5EAC0DEu);
  for (int round = 0; round < 3; ++round) {
    workload::ScenarioConfig cfg;
    cfg.seed = pick.next();
    cfg.duration_s = 10.0;
    cfg.scale = 0.06 + 0.1 * pick.uniform01();
    // Brisk turnover and frequent mobility checks force roams across the
    // three channels' shards while traffic is in flight.
    cfg.churn_turnover_per_min = 3.0 + 3.0 * pick.uniform01();
    cfg.churn_roam_mean_s = 3.0;
    cfg.churn_move_probability = 0.8;
    const workload::SessionKind kind = round % 2 == 0
                                           ? workload::SessionKind::kDay
                                           : workload::SessionKind::kPlenary;
    SCOPED_TRACE("round " + std::to_string(round) + " seed " +
                 std::to_string(cfg.seed));

    // Runs the session with `m` as the run's metrics register, harvests
    // every counter into it (the churn counters included) and returns the
    // sniffers' captures merged.
    const auto run_session = [&cfg, kind](obs::Metrics& m) {
      obs::MetricsScope scope(m);
      workload::Scenario scenario = kind == workload::SessionKind::kDay
                                        ? workload::Scenario::day(cfg)
                                        : workload::Scenario::plenary(cfg);
      scenario.run();
      scenario.harvest_metrics(m);
      return trace::merge_sniffer_traces(scenario.network().sniffer_traces())
          .trace;
    };

    cfg.reference = sim::EngineOptions::Reference::kSingleQueue;
    obs::Metrics m_ref;
    const trace::Trace ref = run_session(m_ref);

    cfg.reference = sim::EngineOptions::Reference::kNone;
    for (const int shards : {1, 3}) {
      cfg.shards = shards;
      obs::Metrics m_sharded;
      const trace::Trace sharded = run_session(m_sharded);
      SCOPED_TRACE("shards " + std::to_string(shards));
      ASSERT_FALSE(ref.records.empty());
      // Vacuous-pass guard: the fixture must actually roam across shards.
      EXPECT_GT(m_ref.value(obs::Id::kChurnRoams), 0u);
      expect_same_records(ref.records, sharded.records, "session");
      expect_same_counters(m_ref, m_sharded, "session");
      EXPECT_EQ(csv_bytes(ref), csv_bytes(sharded))
          << "figure-facing CSV bytes diverged";
    }
  }
}

// Network::ground_truth() merges the channels' logs when asked, so its
// order must not depend on the engine, the shard count, or how the run is
// split into run_for calls.  A churning day puts traffic on all three
// channels; the uneven pieces end run_for calls at arbitrary microseconds.
TEST(ShardingOracle, MultiChannelGroundTruthMatchesAcrossEnginesAndRunSplits) {
  workload::ScenarioConfig cfg;
  cfg.seed = 0x6D7u;
  cfg.duration_s = 8.0;
  cfg.scale = 0.1;
  cfg.churn_turnover_per_min = 4.0;
  cfg.churn_roam_mean_s = 3.0;
  const auto ground_truth = [&cfg](sim::EngineOptions::Reference reference,
                                   int shards,
                                   const std::vector<std::int64_t>& pieces_us) {
    workload::ScenarioConfig c = cfg;
    c.reference = reference;
    c.shards = shards;
    workload::Scenario day = workload::Scenario::day(c);
    for (const std::int64_t us : pieces_us) {
      day.network().run_for(Microseconds{us});
    }
    return day.network().ground_truth();
  };
  using Reference = sim::EngineOptions::Reference;
  const std::vector<std::int64_t> whole{8'000'000};

  const std::vector<trace::TxRecord> ref =
      ground_truth(Reference::kSingleQueue, 1, whole);
  // Guard against a vacuous pass: every channel must carry records.
  for (const std::uint8_t ch : {1, 6, 11}) {
    ASSERT_TRUE(std::any_of(ref.begin(), ref.end(), [ch](const auto& r) {
      return r.channel == ch;
    })) << "no ground truth on channel " << int{ch};
  }
  expect_same_ground_truth(ref, ground_truth(Reference::kNone, 1, whole),
                           "1 shard");
  expect_same_ground_truth(ref, ground_truth(Reference::kNone, 3, whole),
                           "3 shards");
  expect_same_ground_truth(
      ref,
      ground_truth(Reference::kNone, 3, {700'000, 2'900'001, 13, 4'399'986}),
      "3 shards, split run");
}

}  // namespace
}  // namespace wlan
