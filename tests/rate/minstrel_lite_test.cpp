// MinstrelLite: throughput-ordered retry chains, pinned EWMA arithmetic,
// and the deterministic probe schedule.
#include "rate/minstrel_lite.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "feedback.hpp"

namespace wlan::rate {
namespace {

using testing::outcome;

// The probe stage, when present, prepends: the throughput-ordered core
// (best, runner-up, 1 Mbps anchor) is always the last three stages.
TxStage tail_stage(const TxPlan& p, std::size_t i_from_end) {
  return p.stage(p.size() - 1 - i_from_end);
}

bool plans_equal(const TxPlan& a, const TxPlan& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.stage(i).rate != b.stage(i).rate ||
        a.stage(i).attempts != b.stage(i).attempts) {
      return false;
    }
  }
  return true;
}

TEST(MinstrelLiteTest, FreshPlanOrdersByThroughput) {
  MinstrelLite c(/*stream_seed=*/7);
  const TxPlan p = c.plan({});
  ASSERT_GE(p.size(), 3u);
  ASSERT_LE(p.size(), 4u);
  // All EWMAs start at the optimistic 1.0, so throughput order is airtime
  // order: 11 Mbps best, 5.5 runner-up, 1 Mbps anchor.
  EXPECT_EQ(tail_stage(p, 2).rate, phy::Rate::kR11);
  EXPECT_EQ(tail_stage(p, 1).rate, phy::Rate::kR5_5);
  EXPECT_EQ(tail_stage(p, 0).rate, phy::Rate::kR1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tail_stage(p, i).attempts, MinstrelLite::kStageAttempts);
  }
}

TEST(MinstrelLiteTest, ProbeStageIsSingleAttemptNonBest) {
  MinstrelLite c(3);
  constexpr int kPlans = 200;
  int probes = 0;
  for (int i = 0; i < kPlans; ++i) {
    const TxPlan p = c.plan({});
    if (p.size() == 4) {
      ++probes;
      EXPECT_EQ(p.stage(0).attempts, 1);
      EXPECT_NE(p.stage(0).rate, tail_stage(p, 2).rate);
    }
  }
  // Probe gaps are drawn from [1, 2 * kProbeInterval] frames, so every
  // run of that many plans holds at least one probe.
  EXPECT_GE(probes,
            kPlans / (2 * static_cast<int>(MinstrelLite::kProbeInterval)));
}

TEST(MinstrelLiteTest, SameSeedReplaysIdentically) {
  MinstrelLite a(11);
  MinstrelLite b(11);
  for (int i = 0; i < 300; ++i) {
    const Microseconds now{i * 7'000};
    a.on_tick(now);
    b.on_tick(now);
    TxContext ctx;
    ctx.payload_bytes = 1024;
    ctx.now = now;
    const TxPlan pa = a.plan(ctx);
    const TxPlan pb = b.plan(ctx);
    ASSERT_TRUE(plans_equal(pa, pb)) << "step " << i;
    const bool success = (i % 3) != 0;
    outcome(a, success, pa.rate_for_attempt(0));
    outcome(b, success, pb.rate_for_attempt(0));
  }
}

TEST(MinstrelLiteTest, DifferentSeedsShiftTheProbeSchedule) {
  MinstrelLite a(1);
  MinstrelLite b(2);
  std::vector<std::size_t> sizes_a, sizes_b;
  for (int i = 0; i < 400; ++i) {
    sizes_a.push_back(a.plan({}).size());
    sizes_b.push_back(b.plan({}).size());
  }
  EXPECT_NE(sizes_a, sizes_b);  // probe frames land on different plans
}

TEST(MinstrelLiteTest, EwmaUpdateIsPinned) {
  MinstrelLite c(7);
  c.on_tick(Microseconds{0});  // arms the first window at [0, window)
  outcome(c, true, phy::Rate::kR11);
  outcome(c, false, phy::Rate::kR11);
  EXPECT_EQ(c.window_attempts(phy::Rate::kR11), 2u);

  c.on_tick(MinstrelLite::kWindow);  // exactly one window rolls
  // alpha 0.25, window success ratio 0.5: 0.25 * 0.5 + 0.75 * 1.0.
  EXPECT_DOUBLE_EQ(c.ewma(phy::Rate::kR11), 0.875);
  EXPECT_EQ(c.window_attempts(phy::Rate::kR11), 0u);
  // Rates with no traffic this window keep their estimate.
  EXPECT_DOUBLE_EQ(c.ewma(phy::Rate::kR5_5), 1.0);
}

TEST(MinstrelLiteTest, IdleWindowsDoNotDecay) {
  MinstrelLite c(7);
  c.on_tick(Microseconds{0});
  outcome(c, false, phy::Rate::kR11);
  // Jump five windows ahead: the first roll applies the all-fail window,
  // the idle ones leave the estimate alone.
  c.on_tick(Microseconds{5 * MinstrelLite::kWindow.count()});
  EXPECT_DOUBLE_EQ(c.ewma(phy::Rate::kR11), 0.75);
}

TEST(MinstrelLiteTest, SustainedLossDemotesTheBestRate) {
  MinstrelLite c(7);
  c.on_tick(Microseconds{0});
  for (int w = 1; w <= 3; ++w) {
    outcome(c, false, phy::Rate::kR11);
    outcome(c, false, phy::Rate::kR11);
    c.on_tick(Microseconds{w * MinstrelLite::kWindow.count()});
  }
  EXPECT_DOUBLE_EQ(c.ewma(phy::Rate::kR11), 0.421875);  // 0.75^3
  // 11 Mbps at ~42% expected success scores below a clean 5.5 Mbps.
  const TxPlan p = c.plan({});
  EXPECT_EQ(tail_stage(p, 2).rate, phy::Rate::kR5_5);
  EXPECT_EQ(tail_stage(p, 0).rate, phy::Rate::kR1);
}

}  // namespace
}  // namespace wlan::rate
