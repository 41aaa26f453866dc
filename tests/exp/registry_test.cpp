// Scenario/controller registry: every registered name builds and runs a
// tiny configuration, and the axis name maps round-trip.
#include "exp/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/spec.hpp"
#include "rate/policy_registry.hpp"

namespace wlan::exp {
namespace {

TEST(RegistryTest, BuiltInScenariosAreRegistered) {
  const auto names = ScenarioRegistry::instance().names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "cell");          // names() sorts
  EXPECT_EQ(names[1], "hidden-terminal");
  EXPECT_EQ(names[2], "ietf-day");
  EXPECT_EQ(names[3], "ietf-day-churn");
  EXPECT_EQ(names[4], "ietf-plenary");
  EXPECT_EQ(names[5], "ietf-plenary-churn");
  EXPECT_TRUE(ScenarioRegistry::instance().contains("cell"));
  EXPECT_FALSE(ScenarioRegistry::instance().contains("ballroom"));
}

TEST(RegistryTest, EveryRegisteredNameRunsATinyConfig) {
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    ExperimentSpec spec;
    spec.scenario = name;
    spec.base_seed = 7;
    spec.duration_s = 5.0;
    spec.loads = {{6, 10.0, 0.0, 1}};  // sessions read users as scale x100
    spec.base.warmup_s = 1.0;
    const auto runs = expand(spec);
    ASSERT_EQ(runs.size(), 1u);

    const RunOutput out = ScenarioRegistry::instance().run(name, runs[0]);
    EXPECT_GT(out.analysis.seconds.size(), 0u) << name;
    EXPECT_GT(out.analysis.total_frames, 0u) << name;
  }
}

TEST(RegistryTest, UnknownScenarioThrows) {
  const auto runs = expand(ExperimentSpec{});
  EXPECT_THROW(ScenarioRegistry::instance().run("nope", runs[0]),
               std::invalid_argument);
}

TEST(RegistryTest, PolicyKeysRoundTripThroughSpecAndRegistry) {
  // The exp layer carries rate::PolicyRegistry keys verbatim: every key the
  // registry publishes expands into a run whose controller config and
  // manifest column echo the key back, and each builds a controller.
  for (const std::string& key : rate::PolicyRegistry::instance().keys()) {
    ExperimentSpec spec;
    spec.rate_policies = {key};
    const auto runs = expand(spec);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].rate_policy, key);
    EXPECT_EQ(runs[0].cell.rate.policy, key);
    EXPECT_NE(rate::PolicyRegistry::instance().make(runs[0].cell.rate, 1),
              nullptr)
        << key;
  }
  ExperimentSpec bad;
  bad.rate_policies = {"carrier-pigeon"};
  EXPECT_THROW((void)expand(bad), std::invalid_argument);
}

TEST(RegistryTest, ParseTimingAcceptsEveryKey) {
  for (const std::string& key : timing_keys()) {
    EXPECT_NO_THROW((void)parse_timing(key)) << key;
  }
  EXPECT_EQ(parse_timing("paper"), mac::TimingProfile::kPaper);
  EXPECT_EQ(parse_timing("standard"), mac::TimingProfile::kStandard);
  try {
    (void)parse_timing("relativistic");
    ADD_FAILURE() << "an unknown timing key parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("(known: paper standard)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wlan::exp
