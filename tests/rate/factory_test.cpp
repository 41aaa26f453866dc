// PolicyRegistry construction paths and the TxPlan retry-chain mechanics.
#include "rate/policy_registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "feedback.hpp"
#include "rate/fixed.hpp"

namespace wlan::rate {
namespace {

using testing::next_rate;

std::unique_ptr<RateController> make(const std::string& policy) {
  ControllerConfig cfg;
  cfg.policy = policy;
  return PolicyRegistry::instance().make(cfg, /*stream_seed=*/1);
}

TEST(PolicyRegistryTest, BuildsEveryPolicy) {
  const auto keys = PolicyRegistry::instance().keys();
  ASSERT_EQ(keys.size(), 6u);  // arf aarf snr fixed1 fixed11 minstrel
  for (const std::string& key : keys) {
    const auto ctl = make(key);
    ASSERT_NE(ctl, nullptr) << key;
  }
}

TEST(PolicyRegistryTest, DisplayNamesDistinct) {
  const auto& reg = PolicyRegistry::instance();
  EXPECT_EQ(reg.display_name("arf"), "ARF");
  EXPECT_EQ(reg.display_name("aarf"), "AARF");
  EXPECT_EQ(reg.display_name("snr"), "SNR");
  EXPECT_EQ(reg.display_name("fixed1"), "FIXED-1");
  EXPECT_EQ(reg.display_name("fixed11"), "FIXED-11");
  EXPECT_EQ(reg.display_name("minstrel"), "MINSTREL");
}

TEST(PolicyRegistryTest, UnknownKeyThrows) {
  ControllerConfig cfg;
  cfg.policy = "carrier-pigeon";
  EXPECT_THROW((void)PolicyRegistry::instance().make(cfg, 1),
               std::invalid_argument);
  EXPECT_THROW((void)PolicyRegistry::instance().display_name("nope"),
               std::invalid_argument);
}

TEST(FixedTest, NeverMoves) {
  Fixed fixed(phy::Rate::kR5_5);
  testing::fail(fixed, 5);
  EXPECT_EQ(next_rate(fixed), phy::Rate::kR5_5);
  testing::succeed(fixed, 50);
  EXPECT_EQ(next_rate(fixed, 40.0), phy::Rate::kR5_5);
}

TEST(PolicyRegistryTest, FixedPoliciesPinTheConfiguredRate) {
  EXPECT_EQ(next_rate(*make("fixed1"), 30.0), phy::Rate::kR1);
  EXPECT_EQ(next_rate(*make("fixed11"), -10.0), phy::Rate::kR11);
}

TEST(PolicyRegistryTest, ArfAndAarfKeysPartAtAFailedProbe) {
  // "arf" and "aarf" build one class at two success-train ceilings.  They
  // agree until an upward probe fails; then AARF wants twice the train
  // before it probes again, and ARF wants the same train as before.
  const auto arf = make("arf");
  const auto aarf = make("aarf");
  for (RateController* ctl : {arf.get(), aarf.get()}) {
    testing::fail(*ctl, 2);
    ASSERT_EQ(next_rate(*ctl), phy::Rate::kR5_5);
    testing::succeed(*ctl, 10);
    ASSERT_EQ(next_rate(*ctl), phy::Rate::kR11);  // the probe
    testing::fail(*ctl);
    ASSERT_EQ(next_rate(*ctl), phy::Rate::kR5_5);
    testing::succeed(*ctl, 10);
  }
  EXPECT_EQ(next_rate(*arf), phy::Rate::kR11);
  EXPECT_EQ(next_rate(*aarf), phy::Rate::kR5_5);
}

// --- TxPlan mechanics ------------------------------------------------------

TEST(TxPlanTest, SingleStagePlan) {
  const TxPlan p = TxPlan::single(phy::Rate::kR5_5);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.total_attempts(), 1u);
  EXPECT_EQ(p.rate_for_attempt(0), phy::Rate::kR5_5);
}

TEST(TxPlanTest, AttemptsWalkTheStages) {
  TxPlan p;
  p.push(phy::Rate::kR11, 2);
  p.push(phy::Rate::kR5_5, 1);
  p.push(phy::Rate::kR1, 3);
  EXPECT_EQ(p.total_attempts(), 6u);
  EXPECT_EQ(p.rate_for_attempt(0), phy::Rate::kR11);
  EXPECT_EQ(p.rate_for_attempt(1), phy::Rate::kR11);
  EXPECT_EQ(p.rate_for_attempt(2), phy::Rate::kR5_5);
  EXPECT_EQ(p.rate_for_attempt(3), phy::Rate::kR1);
  EXPECT_EQ(p.rate_for_attempt(5), phy::Rate::kR1);
}

TEST(TxPlanTest, PastEndClampsIntoFinalStage) {
  TxPlan p;
  p.push(phy::Rate::kR11, 1);
  p.push(phy::Rate::kR2, 1);
  EXPECT_EQ(p.rate_for_attempt(17), phy::Rate::kR2);
}

TEST(TxPlanTest, EmptyPlanFallsBackToBaseRate) {
  const TxPlan p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.rate_for_attempt(0), phy::Rate::kR1);
}

TEST(TxPlanTest, PushBeyondCapacityAndZeroAttemptsIgnored) {
  TxPlan p;
  for (std::size_t i = 0; i < TxPlan::kMaxStages + 3; ++i) {
    p.push(phy::Rate::kR11, 1);
  }
  EXPECT_EQ(p.size(), TxPlan::kMaxStages);
  TxPlan q;
  q.push(phy::Rate::kR11, 0);  // no-op
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace wlan::rate
