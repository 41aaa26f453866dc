#include "core/session_report.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "workload/scenario.hpp"

namespace wlan::core {
namespace {

class SessionReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::CellConfig cell;
    cell.seed = 880;
    cell.num_users = 16;
    cell.profile.mean_pps = 10.0;
    cell.duration_s = 10.0;
    result_ = new workload::CellResult(workload::run_cell(cell));
    analysis_ = new AnalysisResult(TraceAnalyzer{}.analyze(result_->trace));
    summary_ = new SessionSummary(summarize(*analysis_));
  }
  static void TearDownTestSuite() {
    delete summary_;
    delete analysis_;
    delete result_;
  }
  static workload::CellResult* result_;
  static AnalysisResult* analysis_;
  static SessionSummary* summary_;
};

workload::CellResult* SessionReportTest::result_ = nullptr;
AnalysisResult* SessionReportTest::analysis_ = nullptr;
SessionSummary* SessionReportTest::summary_ = nullptr;

TEST_F(SessionReportTest, CountsMatchAnalysis) {
  EXPECT_EQ(summary_->frames, analysis_->total_frames);
  EXPECT_EQ(summary_->data, analysis_->total_data);
  EXPECT_EQ(summary_->acks, analysis_->total_acks);
  EXPECT_DOUBLE_EQ(summary_->duration_s, analysis_->duration_seconds());
  EXPECT_DOUBLE_EQ(summary_->unrecorded_pct,
                   estimate_unrecorded(result_->trace).totals.unrecorded_pct());
}

TEST_F(SessionReportTest, UtilizationStatisticsConsistent) {
  EXPECT_GT(summary_->mean_utilization_pct, 0.0);
  EXPECT_GE(summary_->max_utilization_pct, summary_->mean_utilization_pct);
  EXPECT_LE(summary_->max_utilization_pct, 100.0);
}

TEST_F(SessionReportTest, ThroughputGoodputOrdering) {
  EXPECT_GE(summary_->mean_throughput_mbps, summary_->mean_goodput_mbps);
  EXPECT_GE(summary_->peak_throughput_mbps, summary_->mean_throughput_mbps);
}

TEST_F(SessionReportTest, CongestionSecondsSumToDuration) {
  EXPECT_EQ(summary_->congestion.uncongested + summary_->congestion.moderate +
                summary_->congestion.high,
            analysis_->seconds.size());
}

TEST_F(SessionReportTest, BusyShareBoundedByOneSecond) {
  double total = 0;
  for (double v : summary_->busy_share_s) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_LE(total, 1.05);  // CBT sums can slightly exceed via DIFS charges
}

TEST_F(SessionReportTest, RetryFractionIsAFraction) {
  EXPECT_GE(summary_->retry_fraction, 0.0);
  EXPECT_LE(summary_->retry_fraction, 1.0);
}

TEST_F(SessionReportTest, RenderingContainsHeadlines) {
  const std::string text = render_summary(*summary_);
  EXPECT_NE(text.find("session report"), std::string::npos);
  EXPECT_NE(text.find("utilization"), std::string::npos);
  EXPECT_NE(text.find("congestion"), std::string::npos);
  EXPECT_NE(text.find("throughput"), std::string::npos);
  EXPECT_NE(text.find("Fig. 8"), std::string::npos);
  EXPECT_NE(text.find("unrecorded"), std::string::npos);
}

TEST(SessionReportKnee, AgreesWithTheFigureAccumulatorOnTwoSeconds) {
  // trace_tool prints summarize's knee and wlan_analyze the accumulator's;
  // on one capture too short for the §5.2 search they must print the same.
  workload::CellConfig cell;
  cell.seed = 62;
  cell.num_users = 10;
  cell.profile.mean_pps = 30.0;
  cell.profile.window = 2;
  cell.duration_s = 2.0;
  cell.warmup_s = 1.0;
  cell.num_sniffers = 2;
  const auto run = workload::run_cell(cell);
  const AnalysisResult analysis =
      TraceAnalyzer{}.analyze(run.sniffer_traces[0]);
  ASSERT_LE(analysis.seconds.size(), 2u);
  FigureAccumulator acc;
  acc.add(analysis);
  EXPECT_EQ(acc.knee_utilization(), summarize(analysis).knee_utilization_pct);
}

TEST(SessionReportEmpty, EmptyAnalysisSafe) {
  const auto summary = summarize(AnalysisResult{});
  EXPECT_EQ(summary.frames, 0u);
  EXPECT_DOUBLE_EQ(summary.mean_utilization_pct, 0.0);
  // No classified second: an empty capture is not "highly congested".
  EXPECT_EQ(summary.dominant_level, CongestionLevel::kUncongested);
  const std::string text = render_summary(summary);
  EXPECT_NE(text.find("congestion   : uncongested"), std::string::npos);
}

}  // namespace
}  // namespace wlan::core
