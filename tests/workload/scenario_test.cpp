#include "workload/scenario.hpp"

#include <gtest/gtest.h>

namespace wlan::workload {
namespace {

TEST(ScenarioTest, Table1MatchesPaper) {
  const auto rows = Scenario::table1();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "Day");
  EXPECT_EQ(rows[0].date, "March 9 2005");
  EXPECT_EQ(rows[1].name, "Plenary");
  EXPECT_EQ(rows[1].date, "March 10 2005");
  for (const auto& row : rows) {
    EXPECT_EQ(row.channels, (std::vector<std::uint8_t>{1, 6, 11}));
  }
}

TEST(ScenarioTest, DayBuildsScaledTopology) {
  ScenarioConfig cfg;
  cfg.duration_s = 5.0;
  cfg.scale = 0.2;
  auto scenario = Scenario::day(cfg);
  EXPECT_EQ(scenario.name(), "day");
  // 23 main + 15 other at scale 0.2 -> 5 + 3 APs.
  EXPECT_EQ(scenario.network().aps().size(), 8u);
  EXPECT_EQ(scenario.network().sniffers().size(), 3u);
}

TEST(ScenarioTest, PlenaryUsesMergedBallroom) {
  ScenarioConfig cfg;
  cfg.duration_s = 5.0;
  auto scenario = Scenario::plenary(cfg);
  EXPECT_EQ(scenario.name(), "plenary");
  bool found = false;
  for (const auto& room : scenario.floorplan().rooms) {
    found |= room.name == "Ballroom";
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioTest, RunProducesTraffic) {
  ScenarioConfig cfg;
  cfg.duration_s = 10.0;
  cfg.scale = 0.05;
  auto scenario = Scenario::day(cfg);
  scenario.run();
  EXPECT_GT(scenario.users().spawned(), 0u);
  const auto merged =
      trace::merge_sniffer_traces(scenario.network().sniffer_traces()).trace;
  EXPECT_GT(merged.records.size(), 100u);
}

TEST(RunCellTest, ProducesTraceAndGroundTruth) {
  CellConfig cell;
  cell.keep_ground_truth = true;
  cell.seed = 3;
  cell.num_users = 8;
  cell.duration_s = 6.0;
  cell.warmup_s = 1.0;
  const auto result = run_cell(cell);
  EXPECT_GT(result.trace.records.size(), 50u);
  EXPECT_GT(result.ground_truth.size(), result.trace.records.size() / 2);
  EXPECT_GT(result.medium_transmissions, 0u);
  EXPECT_DOUBLE_EQ(result.duration_s, 5.0);
}

TEST(RunCellTest, WarmupStripped) {
  CellConfig cell;
  cell.keep_ground_truth = true;
  cell.seed = 3;
  cell.num_users = 8;
  cell.duration_s = 6.0;
  cell.warmup_s = 2.0;
  const auto result = run_cell(cell);
  ASSERT_FALSE(result.trace.records.empty());
  ASSERT_FALSE(result.ground_truth.empty());
  for (const auto& r : result.trace.records) {
    EXPECT_GE(r.time_us, 2'000'000);
  }
  for (const auto& r : result.ground_truth) {
    EXPECT_GE(r.time_us, 2'000'000);
  }
}

TEST(RunCellTest, DeterministicForSeed) {
  CellConfig cell;
  cell.seed = 17;
  cell.num_users = 6;
  cell.duration_s = 5.0;
  const auto a = run_cell(cell);
  const auto b = run_cell(cell);
  ASSERT_EQ(a.trace.records.size(), b.trace.records.size());
  for (std::size_t i = 0; i < a.trace.records.size(); ++i) {
    EXPECT_EQ(a.trace.records[i].time_us, b.trace.records[i].time_us);
    EXPECT_EQ(a.trace.records[i].frame_id, b.trace.records[i].frame_id);
  }
}

TEST(RunCellTest, SeedChangesOutcome) {
  CellConfig cell;
  cell.num_users = 6;
  cell.duration_s = 5.0;
  cell.seed = 1;
  const auto a = run_cell(cell);
  cell.seed = 2;
  const auto b = run_cell(cell);
  EXPECT_NE(a.trace.records.size(), b.trace.records.size());
}

TEST(RunCellTest, MoreUsersMoreTraffic) {
  CellConfig small;
  small.seed = 5;
  small.num_users = 4;
  small.duration_s = 6.0;
  CellConfig big = small;
  big.num_users = 16;
  EXPECT_GT(run_cell(big).trace.records.size(),
            run_cell(small).trace.records.size());
}

TEST(RunCellTest, FarFractionProducesLowRateTraffic) {
  CellConfig cell;
  cell.keep_ground_truth = true;
  cell.seed = 7;
  cell.num_users = 12;
  cell.profile.mean_pps = 40.0;
  cell.far_fraction = 0.5;
  cell.duration_s = 8.0;
  cell.profile.window = 2;
  const auto result = run_cell(cell);
  std::uint64_t slow_data = 0;
  for (const auto& r : result.ground_truth) {
    if (r.type == mac::FrameType::kData &&
        (r.rate == phy::Rate::kR1 || r.rate == phy::Rate::kR2)) {
      ++slow_data;
    }
  }
  EXPECT_GT(slow_data, 10u);
}

}  // namespace
}  // namespace wlan::workload
