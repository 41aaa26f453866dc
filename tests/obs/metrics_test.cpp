// Unit tests for the observability layer: the counter catalog, register
// merge semantics, the thread-local MetricsScope plumbing, and the trace
// log's Chrome-JSON output.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace_span.hpp"

namespace wlan::obs {
namespace {

TEST(ObsCatalogTest, NamesAreDottedUniqueAndStable) {
  std::set<std::string> seen;
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    const std::string n = name(static_cast<Id>(c));
    EXPECT_NE(n.find('.'), std::string::npos) << n;
    EXPECT_TRUE(seen.insert(n).second) << "duplicate counter name " << n;
  }
  // Spot-check a few names other layers hard-code (perfbench/
  // expected.json, docs/OBSERVABILITY.md): renaming these is an API break.
  EXPECT_STREQ(name(Id::kEventsExecuted), "sim.events_executed");
  EXPECT_STREQ(name(Id::kDeliveryChanceDraws), "sim.delivery_chance_draws");
  EXPECT_STREQ(name(Id::kFrameSuccessEvals), "phy.frame_success_evals");
  EXPECT_EQ(kind(Id::kEventsExecuted), Kind::kSum);
  EXPECT_EQ(kind(Id::kEventQueueDepthHw), Kind::kMax);
}

TEST(ObsMetricsTest, MergeSumsCountersAndMaxesGauges) {
  Metrics a, b;
  a.add(Id::kEventsExecuted, 10);
  b.add(Id::kEventsExecuted, 5);
  a.note_max(Id::kEventQueueDepthHw, 7);
  b.note_max(Id::kEventQueueDepthHw, 3);

  Metrics ab = a;
  ab.merge(b);
  EXPECT_EQ(ab.value(Id::kEventsExecuted), 15u);
  EXPECT_EQ(ab.value(Id::kEventQueueDepthHw), 7u);

  // Commutative: the runner's grid-order merge may fold either way.
  Metrics ba = b;
  ba.merge(a);
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    EXPECT_EQ(ab.value(static_cast<Id>(c)), ba.value(static_cast<Id>(c)));
  }
}

TEST(ObsMetricsTest, NoteMaxNeverLowersTheGauge) {
  Metrics m;
  m.note_max(Id::kArenaBlocksHw, 9);
  m.note_max(Id::kArenaBlocksHw, 4);
  EXPECT_EQ(m.value(Id::kArenaBlocksHw), 9u);
  m.clear();
  EXPECT_EQ(m.value(Id::kArenaBlocksHw), 0u);
}

TEST(ObsScopeTest, HelpersDepositIntoTheInstalledRegisterOnly) {
  count(Id::kRuns);  // no scope installed: must be a safe no-op
  Metrics m;
  {
    MetricsScope scope(m);
    count(Id::kRuns, 2);
    note_max(Id::kChurnPeakLive, 11);
  }
  count(Id::kRuns);  // scope gone: no-op again
  EXPECT_EQ(m.value(Id::kRuns), 2u);
  EXPECT_EQ(m.value(Id::kChurnPeakLive), 11u);
}

TEST(ObsScopeTest, ScopesNestAndRestore) {
  Metrics outer, inner;
  EXPECT_EQ(current(), nullptr);
  {
    MetricsScope a(outer);
    EXPECT_EQ(current(), &outer);
    {
      MetricsScope b(inner);
      EXPECT_EQ(current(), &inner);
      count(Id::kRuns);
    }
    EXPECT_EQ(current(), &outer);
    count(Id::kRuns);
  }
  EXPECT_EQ(current(), nullptr);
  EXPECT_EQ(outer.value(Id::kRuns), 1u);
  EXPECT_EQ(inner.value(Id::kRuns), 1u);
}

TEST(ObsScopeTest, ScopesAreThreadLocal) {
  Metrics main_m;
  MetricsScope scope(main_m);
  Metrics worker_m;
  std::thread worker([&] {
    EXPECT_EQ(current(), nullptr);  // nothing inherited across threads
    MetricsScope ws(worker_m);
    count(Id::kRuns, 3);
  });
  worker.join();
  EXPECT_EQ(current(), &main_m);
  EXPECT_EQ(worker_m.value(Id::kRuns), 3u);
  EXPECT_EQ(main_m.value(Id::kRuns), 0u);
}

TEST(ObsTraceTest, SpansRecordOnlyWhileEnabledAndWriteChromeJson) {
  TraceLog& log = TraceLog::instance();
  log.reset();
  { Span ignored("run: before enable"); }  // disabled: nothing buffered

  log.enable();
  { Span s("run: fig06 #1 seed 62"); }
  { Span s("merge: manifest", "merge"); }

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(log.write(path));
  log.reset();

  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_EQ(json.find("run: before enable"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"run: fig06 #1 seed 62\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"merge\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

}  // namespace
}  // namespace wlan::obs
