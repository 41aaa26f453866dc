// End-to-end: simulator -> sniffer -> analyzer, with ground truth available
// to validate what the analysis infers.
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/per_ap.hpp"
#include "core/unrecorded.hpp"
#include "core/utilization.hpp"
#include "trace/trace_io.hpp"
#include "workload/scenario.hpp"

namespace wlan {
namespace {

workload::CellConfig moderate_cell() {
  workload::CellConfig cell;
  cell.seed = 404;
  cell.num_users = 20;
  cell.profile.mean_pps = 8.0;
  cell.duration_s = 12.0;
  cell.warmup_s = 2.0;
  cell.profile.window = 1;
  cell.keep_ground_truth = true;
  return cell;
}

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new workload::CellResult(workload::run_cell(moderate_cell()));
    analysis_ = new core::AnalysisResult(
        core::TraceAnalyzer{}.analyze(result_->trace));
  }
  static void TearDownTestSuite() {
    delete analysis_;
    delete result_;
    analysis_ = nullptr;
    result_ = nullptr;
  }
  static workload::CellResult* result_;
  static core::AnalysisResult* analysis_;
};

workload::CellResult* EndToEnd::result_ = nullptr;
core::AnalysisResult* EndToEnd::analysis_ = nullptr;

TEST_F(EndToEnd, TraceIsSubstantialAndSorted) {
  ASSERT_GT(result_->trace.records.size(), 500u);
  for (std::size_t i = 1; i < result_->trace.records.size(); ++i) {
    EXPECT_LE(result_->trace.records[i - 1].time_us,
              result_->trace.records[i].time_us);
  }
}

TEST_F(EndToEnd, UtilizationWithinPhysicalBounds) {
  for (const auto& s : analysis_->seconds) {
    EXPECT_GE(s.utilization(), 0.0);
    EXPECT_LE(s.utilization(), 100.0);
  }
}

TEST_F(EndToEnd, GoodputNeverExceedsThroughput) {
  for (const auto& s : analysis_->seconds) {
    EXPECT_LE(s.bits_good, s.bits_all);
  }
}

TEST_F(EndToEnd, AckCountTracksDataCount) {
  // At moderate load nearly every data frame is acknowledged.
  EXPECT_GT(analysis_->total_acks, analysis_->total_data * 7 / 10);
  EXPECT_LE(analysis_->total_acks,
            analysis_->total_data + analysis_->total_frames / 10);
}

TEST_F(EndToEnd, SniffedCountsAgreeWithGroundTruthScale) {
  ASSERT_FALSE(result_->ground_truth.empty());
  // The sniffer cannot capture more than was transmitted.
  EXPECT_LE(result_->trace.records.size(), result_->ground_truth.size());
  // ...and at moderate load captures the large majority.
  EXPECT_GT(result_->trace.records.size(), result_->ground_truth.size() / 2);
}

TEST_F(EndToEnd, EstimatedUnrecordedIsLowerBoundOnTruth) {
  const auto est = core::estimate_unrecorded(result_->trace);
  const auto& st = result_->sniffer;
  const double truth =
      100.0 * (st.offered - st.captured) / std::max<std::uint64_t>(1, st.offered);
  // The estimator misses double-losses, so it must not exceed the true rate
  // by more than noise.
  EXPECT_LE(est.totals.unrecorded_pct(), truth + 5.0);
}

TEST_F(EndToEnd, BeaconsApproximatelyPeriodic) {
  std::uint64_t beacons = 0;
  for (const auto& s : analysis_->seconds) beacons += s.beacon;
  // 2 APs x 4 VAPs x 10 beacons/s x 10 s = 800 expected; sniffer losses and
  // contention jitter allowed.
  EXPECT_GT(beacons, 400u);
  EXPECT_LT(beacons, 1'000u);
}

TEST_F(EndToEnd, PerApActivityCoversConfiguredVaps) {
  const auto aps = core::ap_activity(result_->trace);
  // 2 physical APs x 4 VAPs beaconing: all 8 BSSIDs appear.
  EXPECT_EQ(aps.size(), 8u);
}

TEST_F(EndToEnd, UserCountApproachesPopulation) {
  core::UserCountConfig cfg;
  cfg.window = Microseconds{2'000'000};
  cfg.idle_timeout = Microseconds{10'000'000};
  const auto series = core::user_count_series(result_->trace, cfg);
  ASSERT_FALSE(series.empty());
  double peak = 0;
  for (const auto& p : series) peak = std::max(peak, p.users);
  EXPECT_GE(peak, 15.0);  // 20 users configured
  EXPECT_LE(peak, 20.0);
}

TEST_F(EndToEnd, AcceptanceDelaysPositiveAndBounded) {
  ASSERT_FALSE(analysis_->acceptance.empty());
  for (const auto& sample : analysis_->acceptance) {
    EXPECT_GT(sample.delay_us, 0.0);
    EXPECT_LT(sample.delay_us, 2e6);  // under the pending-expiry horizon
  }
}

TEST_F(EndToEnd, RoundTripThroughBinaryFormatPreservesAnalysis) {
  const std::string path = ::testing::TempDir() + "e2e_trace.bin";
  trace::write_binary(result_->trace, path);
  const auto reloaded = trace::read_binary(path);
  const auto re_analysis = core::TraceAnalyzer{}.analyze(reloaded);
  ASSERT_EQ(re_analysis.seconds.size(), analysis_->seconds.size());
  for (std::size_t i = 0; i < analysis_->seconds.size(); ++i) {
    EXPECT_DOUBLE_EQ(re_analysis.seconds[i].cbt_us, analysis_->seconds[i].cbt_us);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wlan
