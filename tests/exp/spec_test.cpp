// ExperimentSpec expansion: grid arithmetic, deterministic seed derivation,
// and axis-to-cell resolution.
#include "exp/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "exp/registry.hpp"
#include "util/rng.hpp"

namespace wlan::exp {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.base_seed = 99;
  spec.seeds_per_point = 2;
  spec.loads = {{6, 30.0, 0.1, 1}, {10, 60.0, 0.2, 3}};
  spec.rate_policies = {"arf", "snr"};
  spec.timings = {"paper", "standard"};
  spec.rtscts_fractions = {0.0, 0.5};
  spec.power_margins = {-1.0};
  return spec;
}

TEST(SpecTest, ExpansionCountIsGridTimesSeeds) {
  const auto spec = small_spec();
  EXPECT_EQ(grid_points(spec), 2u * 2u * 2u * 2u * 1u);
  const auto runs = expand(spec);
  EXPECT_EQ(runs.size(), grid_points(spec) * 2);
}

TEST(SpecTest, IndicesAreDenseAndSeedAxisIsInnermost) {
  const auto runs = expand(small_spec());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].run_index, i);
    EXPECT_EQ(runs[i].point_index, i / 2);  // seeds_per_point == 2
    EXPECT_EQ(runs[i].seed_ordinal, static_cast<int>(i % 2));
  }
}

TEST(SpecTest, SeedsAreSplitmixOfBaseAndPairIndex) {
  const auto spec = small_spec();
  const auto runs = expand(spec);
  std::set<std::uint64_t> distinct_pairs;
  for (const auto& run : runs) {
    EXPECT_EQ(run.seed, util::mix_seed(spec.base_seed, run.pair_index));
    distinct_pairs.insert(run.seed);
  }
  // 2 loads x 2 repeats = 4 distinct seeds, shared across treatment arms.
  EXPECT_EQ(distinct_pairs.size(), 4u);
}

TEST(SpecTest, TreatmentArmsShareSeedsWithinALoadPoint) {
  // Common random numbers: at a fixed load point and repeat, every
  // rtscts/policy/timing/power arm runs the same seed so ablation A/B
  // comparisons are paired.
  const auto runs = expand(small_spec());
  for (const auto& a : runs) {
    for (const auto& b : runs) {
      if (a.load.users == b.load.users && a.seed_ordinal == b.seed_ordinal) {
        EXPECT_EQ(a.seed, b.seed);
      }
    }
  }
}

TEST(SpecTest, SeedOfARunIsAPureFunctionOfItsGridPosition) {
  // Appending load points or treatment arms must not change the seeds of
  // earlier runs — a grown sweep reproduces its old runs bit-exactly.
  auto spec = small_spec();
  const auto before = expand(spec);
  spec.loads.push_back({20, 60.0, 0.4, 3});
  spec.rate_policies.push_back("aarf");
  const auto after = expand(spec);
  for (const auto& b : before) {
    bool found = false;
    for (const auto& a : after) {
      if (a.load.users == b.load.users && a.seed_ordinal == b.seed_ordinal &&
          a.rate_policy == b.rate_policy && a.timing == b.timing &&
          a.rtscts_fraction == b.rtscts_fraction) {
        EXPECT_EQ(a.seed, b.seed);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(SpecTest, AxisValuesResolveIntoTheCell) {
  auto spec = small_spec();
  spec.duration_s = 7.5;
  spec.base.sniffer_capacity_fps = 900.0;
  for (const auto& run : expand(spec)) {
    EXPECT_EQ(run.cell.seed, run.seed);
    EXPECT_DOUBLE_EQ(run.cell.duration_s, 7.5);
    EXPECT_DOUBLE_EQ(run.cell.sniffer_capacity_fps, 900.0);  // base carried
    EXPECT_EQ(run.cell.rate.policy, run.rate_policy);
    EXPECT_EQ(run.cell.timing, parse_timing(run.timing));
    EXPECT_DOUBLE_EQ(run.cell.rtscts_fraction, run.rtscts_fraction);
    EXPECT_EQ(run.cell.num_users, run.load.users);
    EXPECT_DOUBLE_EQ(run.cell.profile.mean_pps, run.load.pps);
    EXPECT_DOUBLE_EQ(run.cell.far_fraction, run.load.far_fraction);
    EXPECT_EQ(run.cell.profile.window, run.load.window);
  }
}

TEST(SpecTest, BadSpecsThrow) {
  auto spec = small_spec();
  spec.loads.clear();
  EXPECT_THROW(expand(spec), std::invalid_argument);

  spec = small_spec();
  spec.seeds_per_point = 0;
  EXPECT_THROW(expand(spec), std::invalid_argument);

  spec = small_spec();
  spec.rate_policies = {"warp-drive"};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  spec = small_spec();
  spec.timings = {"lunar"};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // The scenario table knows every name: a typo fails here, before any
  // run, and so does a name that merely ends the way churn rows do.
  spec = small_spec();
  spec.scenario = "celll";
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec = small_spec();
  spec.scenario = "foo-churn";
  spec.churn_rates = {2.0};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  spec = small_spec();
  spec.scenario = "ietf-day-churn";
  spec.churn_rates = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // Above the cap of 60 turnovers/min, arrivals swamp the run.
  spec = small_spec();
  spec.scenario = "ietf-day-churn";
  spec.churn_rates = {61.0};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // A negative rate (or -0) would run as the default while the manifest
  // records the value typed.
  for (double bad : {-1.0, -0.0}) {
    spec = small_spec();
    spec.scenario = "ietf-day-churn";
    spec.churn_rates = {2.0, bad};
    EXPECT_THROW(expand(spec), std::invalid_argument) << bad;
  }

  // A static-population scenario ignores churn, so a single nonzero rate
  // would only be written into every manifest row.
  for (const char* scenario : {"cell", "ietf-day", "hidden-terminal"}) {
    spec = small_spec();
    spec.scenario = scenario;
    spec.churn_rates = {5.0};
    EXPECT_THROW(expand(spec), std::invalid_argument) << scenario;
  }

  // The microsecond count of 1e300 s overflows the simulated clock.
  for (double bad : {1e300, 0.0, -1.0, std::nan("")}) {
    spec = small_spec();
    spec.duration_s = bad;
    EXPECT_THROW(expand(spec), std::invalid_argument) << bad;
  }

  // ExperimentSpec::shards is the one shard knob; expansion would silently
  // overwrite base.shards.
  spec = small_spec();
  spec.base.shards = 3;
  EXPECT_THROW(expand(spec), std::invalid_argument);
}

}  // namespace
}  // namespace wlan::exp
