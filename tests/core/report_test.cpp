#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace wlan::core {
namespace {

/// Builds a result whose seconds sit at `util` with the given per-rate
/// busy-time and throughput.
AnalysisResult synthetic(double util, double mbps, int seconds) {
  AnalysisResult result;
  for (int i = 0; i < seconds; ++i) {
    SecondStats s;
    s.second = i;
    s.cbt_us = util * 1e4;
    s.bits_all = static_cast<std::uint64_t>(mbps * 1e6);
    s.bits_good = static_cast<std::uint64_t>(mbps * 0.9e6);
    s.rts = 4;
    s.cts = 3;
    s.cbt_us_by_rate[0] = util * 1e4 * 0.6;
    s.cbt_us_by_rate[3] = util * 1e4 * 0.4;
    s.bytes_by_rate[3] = 100'000;
    s.tx_by_category[category_index(SizeClass::kS, phy::Rate::kR11)] = 20;
    s.first_attempt_acked[3] = 15;
    result.seconds.push_back(s);
  }
  return result;
}

TEST(FigureAccumulatorTest, AbsorbsSeconds) {
  FigureAccumulator acc;
  acc.add(synthetic(50, 2.0, 5));
  acc.add(synthetic(80, 4.0, 7));
  EXPECT_EQ(acc.seconds_absorbed(), 12u);
}

TEST(FigureAccumulatorTest, Fig06SeriesHoldBinnedMeans) {
  FigureAccumulator acc;
  acc.add(synthetic(50, 2.0, 5));
  const auto fig = acc.fig06_throughput_goodput(1);
  // x axis runs 30..99; bin 50 is index 20.
  ASSERT_EQ(fig.x.size(), 70u);
  EXPECT_DOUBLE_EQ(fig.x[20], 50.0);
  EXPECT_DOUBLE_EQ(fig.series[0].ys[20], 2.0);
  EXPECT_DOUBLE_EQ(fig.series[1].ys[20], 1.8);
  EXPECT_TRUE(std::isnan(fig.series[0].ys[0]));  // empty bin
}

TEST(FigureAccumulatorTest, Fig07CountsRtsCts) {
  FigureAccumulator acc;
  acc.add(synthetic(60, 2.0, 4));
  const auto fig = acc.fig07_rts_cts(1);
  EXPECT_DOUBLE_EQ(fig.series[0].ys[30], 4.0);  // RTS at bin 60
  EXPECT_DOUBLE_EQ(fig.series[1].ys[30], 3.0);  // CTS
}

TEST(FigureAccumulatorTest, Fig08SharesInSeconds) {
  FigureAccumulator acc;
  acc.add(synthetic(50, 2.0, 3));
  const auto fig = acc.fig08_busytime_share(1);
  EXPECT_NEAR(fig.series[0].ys[20], 0.3, 1e-9);   // 1 Mbps share
  EXPECT_NEAR(fig.series[3].ys[20], 0.2, 1e-9);   // 11 Mbps share
}

TEST(FigureAccumulatorTest, Fig14FirstAttempt) {
  FigureAccumulator acc;
  acc.add(synthetic(70, 2.0, 2));
  const auto fig = acc.fig14_first_attempt_acked(1);
  EXPECT_DOUBLE_EQ(fig.series[3].ys[40], 15.0);
}

TEST(FigureAccumulatorTest, Fig15UsesAcceptanceSamples) {
  AnalysisResult result = synthetic(60, 2.0, 2);
  AcceptanceSample sample;
  sample.second = 0;
  sample.category = category_index(SizeClass::kS, phy::Rate::kR1);
  sample.delay_us = 40'000;
  result.acceptance.push_back(sample);
  FigureAccumulator acc;
  acc.add(result);
  const auto fig = acc.fig15_acceptance_delay(1);
  // S-1 is the first series; bin 60 -> index 30; delay in seconds.
  EXPECT_NEAR(fig.series[0].ys[30], 0.04, 1e-9);
}

TEST(FigureAccumulatorTest, FairnessAggregatesSenders) {
  AnalysisResult result;
  SenderStats rts_user;
  rts_user.data_tx = 100;
  rts_user.data_acked = 40;
  rts_user.uses_rtscts = true;
  SenderStats plain;
  plain.data_tx = 100;
  plain.data_acked = 80;
  result.senders[1] = rts_user;
  result.senders[2] = plain;
  FigureAccumulator acc;
  acc.add(result);
  const auto fair = acc.rts_fairness();
  EXPECT_EQ(fair.rts_senders, 1u);
  EXPECT_EQ(fair.other_senders, 1u);
  EXPECT_DOUBLE_EQ(fair.rts_delivery_ratio, 0.4);
  EXPECT_DOUBLE_EQ(fair.other_delivery_ratio, 0.8);
}

TEST(FigureAccumulatorTest, KneeFindsPeakBin) {
  FigureAccumulator acc;
  for (int u = 30; u <= 95; u += 5) {
    const double thr = u <= 80 ? u / 20.0 : 4.0 - (u - 80) / 5.0;
    acc.add(synthetic(u, thr, 3));
  }
  ASSERT_TRUE(acc.knee_utilization().has_value());
  EXPECT_NEAR(*acc.knee_utilization(), 80.0, 5.0);
}

TEST(RenderFigureTest, ProducesChartAndTable) {
  FigureAccumulator acc;
  acc.add(synthetic(50, 2.0, 5));
  const auto text = render_figure(acc.fig06_throughput_goodput(1));
  EXPECT_NE(text.find("Figure 6"), std::string::npos);
  EXPECT_NE(text.find("Throughput"), std::string::npos);
  EXPECT_NE(text.find("Goodput"), std::string::npos);
  EXPECT_NE(text.find('|'), std::string::npos);  // table rows
}

TEST(FigureAccumulatorTest, CategoriesFlowIntoFigs10To13) {
  FigureAccumulator acc;
  acc.add(synthetic(50, 2.0, 4));
  const auto fig10 = acc.fig10_11_frames_of_class(SizeClass::kS, 1);
  EXPECT_DOUBLE_EQ(fig10.series[3].ys[20], 20.0);  // S-11 at bin 50
  const auto fig13 = acc.fig12_13_frames_at_rate(phy::Rate::kR11, 1);
  EXPECT_DOUBLE_EQ(fig13.series[0].ys[20], 20.0);  // S-11 again
}

}  // namespace
}  // namespace wlan::core
