#include "workload/traffic.hpp"

#include <gtest/gtest.h>

#include <array>

namespace wlan::workload {
namespace {

TEST(SamplePayloadTest, AlwaysWithinMtu) {
  util::Rng rng(5);
  const TrafficProfile p{};
  for (int i = 0; i < 10'000; ++i) {
    const auto size = sample_payload(p, rng);
    EXPECT_GE(size, 40u);
    EXPECT_LE(size, kXlMax);
  }
}

TEST(SamplePayloadTest, PureSmallProfileStaysSmall) {
  TrafficProfile p;
  p.size_weights = {1.0, 0.0, 0.0, 0.0};
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(sample_payload(p, rng), kSmallMax);
  }
}

TEST(SamplePayloadTest, PureXlProfileStaysXl) {
  TrafficProfile p;
  p.size_weights = {0.0, 0.0, 0.0, 1.0};
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(sample_payload(p, rng), kLargeMax);
  }
}

TEST(SamplePayloadTest, ClassFrequenciesTrackWeights) {
  TrafficProfile p;
  p.size_weights = {0.5, 0.2, 0.2, 0.1};
  util::Rng rng(11);
  std::array<int, 4> counts{};
  constexpr int kN = 40'000;
  for (int i = 0; i < kN; ++i) {
    const auto size = sample_payload(p, rng);
    if (size <= kSmallMax) ++counts[0];
    else if (size <= kMediumMax) ++counts[1];
    else if (size <= kLargeMax) ++counts[2];
    else ++counts[3];
  }
  EXPECT_NEAR(counts[0] / double(kN), 0.5, 0.02);
  EXPECT_NEAR(counts[1] / double(kN), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / double(kN), 0.2, 0.02);
  EXPECT_NEAR(counts[3] / double(kN), 0.1, 0.02);
}

TEST(SamplePayloadTest, XlClassFavoursFullMtu) {
  TrafficProfile p;
  p.size_weights = {0.0, 0.0, 0.0, 1.0};
  util::Rng rng(13);
  int full = 0;
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) {
    if (sample_payload(p, rng) == kXlMax) ++full;
  }
  EXPECT_GT(full, kN / 2);  // ~70% of XL packets are full-size segments
}

TEST(SamplePayloadTest, ClassBoundariesMatchPaper) {
  EXPECT_EQ(kSmallMax, 400u);
  EXPECT_EQ(kMediumMax, 800u);
  EXPECT_EQ(kLargeMax, 1200u);
}

}  // namespace
}  // namespace wlan::workload
