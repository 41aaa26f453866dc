// AARF: the ARF machine at its AARF ceiling, as the "aarf" registry key
// builds it.
#include "rate/arf.hpp"

#include <gtest/gtest.h>

#include "feedback.hpp"

namespace wlan::rate {
namespace {

using testing::fail;
using testing::next_rate;
using testing::succeed;

// Drives the controller to 5.5 Mbps from the initial 11.
void drop_one_rate(Arf& aarf) { fail(aarf, 2); }

TEST(AarfTest, BehavesLikeArfInitially) {
  Arf aarf(Arf::kAarfCeiling);
  EXPECT_EQ(next_rate(aarf), phy::Rate::kR11);
  drop_one_rate(aarf);
  EXPECT_EQ(next_rate(aarf), phy::Rate::kR5_5);
  succeed(aarf, 10);
  EXPECT_EQ(next_rate(aarf), phy::Rate::kR11);
}

TEST(AarfTest, FailedProbeDoublesUpThreshold) {
  Arf aarf(Arf::kAarfCeiling);
  drop_one_rate(aarf);  // at 5.5

  // Probe up, fail -> back to 5.5, threshold now 20.
  succeed(aarf, 10);
  ASSERT_EQ(next_rate(aarf), phy::Rate::kR11);
  fail(aarf);
  ASSERT_EQ(next_rate(aarf), phy::Rate::kR5_5);

  // 10 successes no longer trigger a probe...
  succeed(aarf, 10);
  EXPECT_EQ(next_rate(aarf), phy::Rate::kR5_5);
  // ...but 20 do.
  succeed(aarf, 10);
  EXPECT_EQ(next_rate(aarf), phy::Rate::kR11);
}

TEST(AarfTest, ThresholdCapped) {
  Arf aarf(Arf::kAarfCeiling);
  drop_one_rate(aarf);
  // Fail many probes: threshold doubles 10->20->40->50 (cap).
  for (int round = 0; round < 5; ++round) {
    succeed(aarf, 50);
    if (next_rate(aarf) == phy::Rate::kR11) fail(aarf);
  }
  // Still recoverable within the cap.
  succeed(aarf, 50);
  EXPECT_EQ(next_rate(aarf), phy::Rate::kR11);
}

TEST(AarfTest, RegularDropResetsThreshold) {
  Arf aarf(Arf::kAarfCeiling);
  drop_one_rate(aarf);  // 5.5
  succeed(aarf, 10);
  fail(aarf);  // failed probe -> threshold 20, back at 5.5
  drop_one_rate(aarf);  // regular drop to 2: threshold back to base
  ASSERT_EQ(next_rate(aarf), phy::Rate::kR2);
  succeed(aarf, 10);
  EXPECT_EQ(next_rate(aarf), phy::Rate::kR5_5);
}

}  // namespace
}  // namespace wlan::rate
