// The shared bench flags: numeric values must be whole, positive tokens.
// A typo such as "--threads 2x" or "--duration 2m" exits 2 with the flag's
// name, instead of running a sweep with a silently truncated value, and so
// does a grid or --out-dir that apply_args finds unusable.
#include "exp/args.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace wlan::exp {
namespace {

/// Parses `flags` as a bench driver's command line.
BenchArgs parse(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  return parse_bench_args(static_cast<int>(argv.size()), argv.data(), "test");
}

TEST(BenchArgsTest, ParsesNumericFlags) {
  const BenchArgs args = parse({"--threads", "2", "--shards", "3", "--seeds",
                                "10", "--duration", "2.5"});
  EXPECT_EQ(args.threads, 2);
  EXPECT_EQ(args.shards, 3);
  EXPECT_EQ(args.seeds, 10);
  EXPECT_DOUBLE_EQ(args.duration_s, 2.5);
}

TEST(BenchArgsTest, ParsesCommaLists) {
  const BenchArgs args =
      parse({"--churn", "1,2.5", "--rate-policies", "arf,aarf"});
  EXPECT_EQ(args.churn_rates, (std::vector<double>{1, 2.5}));
  EXPECT_EQ(args.rate_policies, (std::vector<std::string>{"arf", "aarf"}));
}

using BenchArgsDeathTest = ::testing::Test;

TEST_F(BenchArgsDeathTest, RejectsTrailingCharacters) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(static_cast<void>(parse({"--threads", "2x"})),
              ExitedWithCode(2), "--threads wants");
  EXPECT_EXIT(static_cast<void>(parse({"--shards", "3 "})),
              ExitedWithCode(2), "--shards wants");
  EXPECT_EXIT(static_cast<void>(parse({"--seeds", "1e1"})),
              ExitedWithCode(2), "--seeds wants");
  EXPECT_EXIT(static_cast<void>(parse({"--duration", "2m"})),
              ExitedWithCode(2), "--duration wants");
}

TEST_F(BenchArgsDeathTest, RejectsEmptyAndOutOfRangeValues) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(static_cast<void>(parse({"--threads", ""})), ExitedWithCode(2),
              "--threads wants");
  EXPECT_EXIT(static_cast<void>(parse({"--seeds", "0"})), ExitedWithCode(2),
              "--seeds wants");
  EXPECT_EXIT(static_cast<void>(parse({"--shards", "4294967297"})),
              ExitedWithCode(2), "--shards wants");
  EXPECT_EXIT(static_cast<void>(parse({"--duration", "-1"})),
              ExitedWithCode(2), "--duration wants");
  EXPECT_EXIT(static_cast<void>(parse({"--duration", "inf"})),
              ExitedWithCode(2), "--duration wants");
  EXPECT_EXIT(static_cast<void>(parse({"--duration", "nan"})),
              ExitedWithCode(2), "--duration wants");
  EXPECT_EXIT(static_cast<void>(parse({"--churn", "inf"})),
              ExitedWithCode(2), "--churn wants");
  EXPECT_EXIT(static_cast<void>(parse({"--churn", "nan"})),
              ExitedWithCode(2), "--churn wants");
  EXPECT_EXIT(static_cast<void>(parse({"--churn", "1,inf"})),
              ExitedWithCode(2), "--churn wants");
  // A negative rate would run as the default but reach the manifest as
  // typed; -0 would print as "-0".
  EXPECT_EXIT(static_cast<void>(parse({"--churn", "-1"})), ExitedWithCode(2),
              "--churn wants");
  EXPECT_EXIT(static_cast<void>(parse({"--churn", "-0"})), ExitedWithCode(2),
              "--churn wants");
  EXPECT_EXIT(static_cast<void>(parse({"--churn", "1,-1"})),
              ExitedWithCode(2), "--churn wants");
  EXPECT_EXIT(static_cast<void>(parse({"--rate-policies", "arf,,aarf"})),
              ExitedWithCode(2), "--rate-policies wants");
  EXPECT_EXIT(static_cast<void>(parse({"--rate-policies", "arf,"})),
              ExitedWithCode(2), "--rate-policies wants");
  // Past the cap of 60 turnovers/min, arrivals swamp the run.
  EXPECT_EXIT(static_cast<void>(parse({"--churn", "1e12"})),
              ExitedWithCode(2), "--churn wants .* at most 60");
  EXPECT_EXIT(static_cast<void>(parse({"--churn", "61"})), ExitedWithCode(2),
              "--churn wants .* at most 60");
  // A duration whose microsecond count overflows the simulated clock.
  EXPECT_EXIT(static_cast<void>(parse({"--duration", "1e300"})),
              ExitedWithCode(2), "--duration wants");
}

/// Folds `flags` into a one-point static-cell spec, as a driver does last.
void apply(std::vector<std::string> flags, const std::string& scenario) {
  ExperimentSpec spec;
  spec.scenario = scenario;
  apply_args(parse(std::move(flags)), spec);
}

TEST_F(BenchArgsDeathTest, RejectsAGridBeforeAnyRun) {
  using ::testing::ExitedWithCode;
  // Well-formed flags that make a grid expand() rejects, or an --only past
  // the grid: a usage error, not an uncaught exception.
  EXPECT_EXIT(apply({"--churn", "5"}, "cell"), ExitedWithCode(2),
              "error: .*static population");
  EXPECT_EXIT(apply({"--rate-policies", "warp"}, "cell"), ExitedWithCode(2),
              "error: .*unknown policy \"warp\"");
  EXPECT_EXIT(apply({}, "celll"), ExitedWithCode(2),
              "error: .*unknown scenario \"celll\"");
  EXPECT_EXIT(apply({"--only", "1"}, "cell"), ExitedWithCode(2),
              "error: .*--only 1 but grid has 1 runs");
}

TEST_F(BenchArgsDeathTest, RejectsAnUnusableOutDirBeforeAnyRun) {
  // This source file is a regular file, so no directory can be made there;
  // the runner used to find that out only after the whole sweep.
  EXPECT_EXIT(apply({"--out-dir", __FILE__}, "cell"),
              ::testing::ExitedWithCode(2), "error: .*args_test.cpp");
}

}  // namespace
}  // namespace wlan::exp
