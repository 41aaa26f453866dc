#include "mac/backoff.hpp"

#include <gtest/gtest.h>

namespace wlan::mac {
namespace {

class BackoffTest : public ::testing::Test {
 protected:
  Timing timing_ = timing_for(TimingProfile::kPaper);
  util::Rng rng_{123};
};

TEST_F(BackoffTest, StartsAtCwMin) {
  Backoff bo(timing_, rng_);
  EXPECT_EQ(bo.contention_window(), timing_.cw_min);
}

TEST_F(BackoffTest, DrawWithinWindow) {
  Backoff bo(timing_, rng_);
  for (int i = 0; i < 1000; ++i) {
    bo.draw();
    EXPECT_LE(bo.slots_remaining(), timing_.cw_min);
  }
}

TEST_F(BackoffTest, DrawCoversZeroAndLarge) {
  Backoff bo(timing_, rng_);
  bool saw_zero = false, saw_high = false;
  for (int i = 0; i < 2000; ++i) {
    bo.draw();
    saw_zero |= bo.slots_remaining() == 0;
    saw_high |= bo.slots_remaining() >= timing_.cw_min - 2;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_high);
}

TEST_F(BackoffTest, GrowDoublesUpToMax) {
  Backoff bo(timing_, rng_);
  bo.grow();
  EXPECT_EQ(bo.contention_window(), 63u);
  bo.grow();
  EXPECT_EQ(bo.contention_window(), 127u);
  bo.grow();
  EXPECT_EQ(bo.contention_window(), 255u);
  bo.grow();  // capped
  EXPECT_EQ(bo.contention_window(), timing_.cw_max);
}

TEST_F(BackoffTest, ResetRestoresCwMin) {
  Backoff bo(timing_, rng_);
  bo.grow();
  bo.grow();
  bo.reset();
  EXPECT_EQ(bo.contention_window(), timing_.cw_min);
}

TEST_F(BackoffTest, StandardProfileGrowsTo1023) {
  const Timing std_timing = timing_for(TimingProfile::kStandard);
  Backoff bo(std_timing, rng_);
  for (int i = 0; i < 10; ++i) bo.grow();
  EXPECT_EQ(bo.contention_window(), 1023u);
}

TEST_F(BackoffTest, GrownWindowProducesLargerDrawsOnAverage) {
  Backoff bo(timing_, rng_);
  double small_sum = 0, big_sum = 0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    bo.draw();
    small_sum += bo.slots_remaining();
  }
  bo.grow();
  bo.grow();
  bo.grow();  // CW 255
  for (int i = 0; i < kN; ++i) {
    bo.draw();
    big_sum += bo.slots_remaining();
  }
  EXPECT_GT(big_sum / kN, 4 * small_sum / kN);
}

}  // namespace
}  // namespace wlan::mac
