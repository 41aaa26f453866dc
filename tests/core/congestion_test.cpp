#include "core/congestion.hpp"

#include <gtest/gtest.h>

namespace wlan::core {
namespace {

TEST(ClassifyTest, PaperThresholds) {
  EXPECT_EQ(classify(0.0), CongestionLevel::kUncongested);
  EXPECT_EQ(classify(29.9), CongestionLevel::kUncongested);
  EXPECT_EQ(classify(30.0), CongestionLevel::kModerate);
  EXPECT_EQ(classify(84.0), CongestionLevel::kModerate);
  EXPECT_EQ(classify(84.1), CongestionLevel::kHigh);
  EXPECT_EQ(classify(99.0), CongestionLevel::kHigh);
}

TEST(ClassifyTest, LevelNames) {
  EXPECT_EQ(congestion_level_name(CongestionLevel::kUncongested), "uncongested");
  EXPECT_EQ(congestion_level_name(CongestionLevel::kModerate),
            "moderately congested");
  EXPECT_EQ(congestion_level_name(CongestionLevel::kHigh), "highly congested");
}

AnalysisResult result_with(const std::vector<std::pair<double, double>>&
                               util_throughput_pairs) {
  AnalysisResult result;
  for (const auto& [util, mbps] : util_throughput_pairs) {
    SecondStats s;
    s.cbt_us = util * 1e4;
    s.bits_all = static_cast<std::uint64_t>(mbps * 1e6);
    result.seconds.push_back(s);
  }
  return result;
}

UtilizationBinner throughput_of(
    const std::vector<std::pair<double, double>>& util_throughput_pairs) {
  UtilizationBinner throughput;
  for (const auto& [util, mbps] : util_throughput_pairs) {
    throughput.add(util, mbps);
  }
  return throughput;
}

TEST(KneeDetectionTest, FindsSyntheticPeak) {
  // Throughput rises to a peak at 80% and falls beyond it.
  std::vector<std::pair<double, double>> samples;
  for (int u = 30; u <= 99; ++u) {
    const double thr = u <= 80 ? u / 20.0 : 4.0 - (u - 80) / 10.0;
    for (int k = 0; k < 3; ++k) samples.push_back({double(u), thr});
  }
  const std::optional<double> knee =
      detect_saturation_knee(throughput_of(samples));
  ASSERT_TRUE(knee.has_value());
  EXPECT_NEAR(*knee, 80.0, 3.0);
}

TEST(KneeDetectionTest, MonotoneCurvePeaksAtTop) {
  std::vector<std::pair<double, double>> samples;
  for (int u = 30; u <= 99; ++u) samples.push_back({double(u), u / 25.0});
  const std::optional<double> knee =
      detect_saturation_knee(throughput_of(samples));
  ASSERT_TRUE(knee.has_value());
  EXPECT_GE(*knee, 95.0);
}

TEST(KneeDetectionTest, SparseDataFindsNoKnee) {
  // Too few points to search: reporting the paper's 84% here would read as
  // a detection.
  EXPECT_EQ(detect_saturation_knee(throughput_of({{50.0, 2.0}})),
            std::nullopt);
}

TEST(BreakdownTest, CountsSecondsPerLevel) {
  const auto result =
      result_with({{10, 1}, {20, 1}, {50, 2}, {85, 3}, {95, 2}, {60, 2}});
  const auto b = breakdown(result);
  EXPECT_EQ(b.uncongested, 2u);
  EXPECT_EQ(b.moderate, 2u);
  EXPECT_EQ(b.high, 2u);
}

}  // namespace
}  // namespace wlan::core
