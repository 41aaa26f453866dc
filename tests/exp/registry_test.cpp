// Scenario/controller registry: every registered name builds and runs a
// tiny configuration, and the axis name maps round-trip.
#include "exp/registry.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <utility>

#include "exp/spec.hpp"
#include "obs/metrics.hpp"
#include "rate/policy_registry.hpp"

namespace wlan::exp {
namespace {

TEST(RegistryTest, BuiltInScenariosAreRegistered) {
  // names() sorts; each flag is pinned by name, since no rule derives it
  // from the name.
  const std::pair<const char*, bool> expected[] = {
      {"cell", false},          {"hidden-terminal", false},
      {"ietf-day", false},      {"ietf-day-churn", true},
      {"ietf-plenary", false},  {"ietf-plenary-churn", true}};
  const auto names = ScenarioRegistry::instance().names();
  ASSERT_EQ(names.size(), std::size(expected));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], expected[i].first);
    EXPECT_EQ(ScenarioRegistry::instance().churns(names[i]),
              expected[i].second)
        << names[i];
  }
  EXPECT_THROW((void)ScenarioRegistry::instance().churns("ballroom"),
               std::invalid_argument);
}

TEST(RegistryTest, EveryRegisteredNameRunsATinyConfig) {
  // The churn axis is one more input: a row flagged as churning runs it and
  // reports arrivals; every other row rejects it at expand() and runs with
  // none, so each flag is pinned to what its row runs.
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    const bool churns = ScenarioRegistry::instance().churns(name);
    ExperimentSpec spec;
    spec.scenario = name;
    spec.base_seed = 7;
    spec.duration_s = 5.0;
    spec.loads = {{6, 10.0, 0.0, 1}};  // sessions read users as scale x100
    spec.base.warmup_s = 1.0;
    spec.churn_rates = {2.0};
    if (!churns) {
      EXPECT_THROW((void)expand(spec), std::invalid_argument) << name;
      spec.churn_rates = {0.0};
    }
    const auto runs = expand(spec);
    ASSERT_EQ(runs.size(), 1u);

    obs::Metrics metrics;
    RunOutput out;
    {
      obs::MetricsScope scope(metrics);
      out = ScenarioRegistry::instance().run(name, runs[0]);
    }
    EXPECT_GT(out.analysis.seconds.size(), 0u) << name;
    EXPECT_GT(out.analysis.total_frames, 0u) << name;
    EXPECT_EQ(metrics.value(obs::Id::kChurnArrivals) > 0, churns) << name;
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
