#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace wlan::util {
namespace {

TEST(AccumulatorTest, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
}

TEST(AccumulatorTest, SingleSample) {
  Accumulator acc;
  acc.add(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 5.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

TEST(AccumulatorTest, KnownMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 0.0, 5), std::invalid_argument);
}

TEST(HistogramTest, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.9);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

TEST(HistogramTest, WeightedAdd) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.5, 7);
  EXPECT_EQ(h.bin_count(1), 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(HistogramTest, BinEdgesAndCenters) {
  Histogram h(10.0, 20.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 12.0);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 15.0);
}

TEST(HistogramTest, ModeEmptyAndPeaked) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_FALSE(h.mode().has_value());
  h.add(3.5);
  h.add(3.6);
  h.add(7.0);
  ASSERT_TRUE(h.mode().has_value());
  EXPECT_DOUBLE_EQ(*h.mode(), 3.5);
}

}  // namespace
}  // namespace wlan::util
