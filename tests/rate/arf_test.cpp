#include "rate/arf.hpp"

#include <gtest/gtest.h>

#include "feedback.hpp"

namespace wlan::rate {
namespace {

using testing::fail;
using testing::next_rate;
using testing::succeed;

TEST(ArfTest, StartsAtTopRate) {
  Arf arf(Arf::kArfCeiling);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR11);
}

TEST(ArfTest, TwoConsecutiveFailuresDropRate) {
  Arf arf(Arf::kArfCeiling);
  fail(arf);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR11);  // one is not enough
  fail(arf);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR5_5);
}

TEST(ArfTest, SuccessResetsFailureCount) {
  Arf arf(Arf::kArfCeiling);
  fail(arf);
  succeed(arf);
  fail(arf);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR11);
}

TEST(ArfTest, SuccessTrainProbesUp) {
  Arf arf(Arf::kArfCeiling);
  // Get down to 5.5 first.
  fail(arf, 2);
  ASSERT_EQ(next_rate(arf), phy::Rate::kR5_5);
  succeed(arf, 10);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR11);
}

TEST(ArfTest, FailedProbeFallsStraightBack) {
  Arf arf(Arf::kArfCeiling);
  fail(arf, 2);  // at 5.5
  succeed(arf, 10);  // probe up to 11
  ASSERT_EQ(next_rate(arf), phy::Rate::kR11);
  fail(arf);  // probe fails: single failure is enough
  EXPECT_EQ(next_rate(arf), phy::Rate::kR5_5);
}

TEST(ArfTest, CannotDropBelowOne) {
  Arf arf(Arf::kArfCeiling);
  fail(arf, 20);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR1);
}

TEST(ArfTest, CannotProbeAboveEleven) {
  Arf arf(Arf::kArfCeiling);
  succeed(arf, 50);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR11);
}

TEST(ArfTest, DescendsWholeLadderUnderSustainedLoss) {
  Arf arf(Arf::kArfCeiling);
  fail(arf, 2);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR5_5);
  fail(arf, 2);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR2);
  fail(arf, 2);
  EXPECT_EQ(next_rate(arf), phy::Rate::kR1);
}

TEST(ArfTest, IgnoresSnrHint) {
  // ARF is loss-based: the paper's point is precisely that it cannot tell
  // collisions from weak signal.
  Arf arf(Arf::kArfCeiling);
  EXPECT_EQ(next_rate(arf, -50.0), phy::Rate::kR11);
  EXPECT_EQ(next_rate(arf, 50.0), phy::Rate::kR11);
}

TEST(ArfTest, PlansSingleAttemptStages) {
  // Legacy cadence contract: one attempt per plan, so the station re-plans
  // (and ARF sees every outcome) before each retry — byte-identical to the
  // old per-attempt API.
  Arf arf(Arf::kArfCeiling);
  const TxPlan p = arf.plan({});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.total_attempts(), 1u);
}

}  // namespace
}  // namespace wlan::rate
