// Simulated capture -> pcap -> re-read -> re-analysis: the analysis must
// survive the (deliberately lossy) standard capture format.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/analyzer.hpp"
#include "trace/pcap.hpp"
#include "workload/scenario.hpp"

namespace wlan {
namespace {

TEST(PcapInterop, AnalysisSurvivesPcapRoundTrip) {
  workload::CellConfig cell;
  cell.seed = 777;
  cell.num_users = 12;
  cell.profile.mean_pps = 10.0;
  cell.duration_s = 8.0;
  const auto result = workload::run_cell(cell);
  ASSERT_GT(result.trace.records.size(), 100u);

  const std::string path = ::testing::TempDir() + "interop.pcap";
  trace::write_pcap(result.trace, path);
  auto reloaded = trace::read_pcap(path);
  std::remove(path.c_str());
  // pcap carries no capture-session bounds; restore them so the analyzers
  // bucket both traces into identical seconds.
  reloaded.start_us = result.trace.start_us;
  reloaded.end_us = result.trace.end_us;

  ASSERT_EQ(reloaded.records.size(), result.trace.records.size());

  const core::TraceAnalyzer analyzer;
  const auto direct = analyzer.analyze(result.trace);
  const auto via_pcap = analyzer.analyze(reloaded);

  ASSERT_EQ(via_pcap.seconds.size(), direct.seconds.size());
  EXPECT_EQ(via_pcap.total_data, direct.total_data);
  EXPECT_EQ(via_pcap.total_acks, direct.total_acks);
  for (std::size_t i = 0; i < direct.seconds.size(); ++i) {
    // Busy time per second must match exactly: size/rate/type all survive.
    EXPECT_DOUBLE_EQ(via_pcap.seconds[i].cbt_us, direct.seconds[i].cbt_us) << i;
    // The DATA->ACK matching keys on the data sender and survives too.
    EXPECT_EQ(via_pcap.seconds[i].first_attempt_acked,
              direct.seconds[i].first_attempt_acked)
        << i;
  }
}

TEST(PcapInterop, TimestampsPreservedToMicrosecond) {
  workload::CellConfig cell;
  cell.seed = 779;
  cell.num_users = 4;
  cell.duration_s = 5.0;
  const auto result = workload::run_cell(cell);

  const std::string path = ::testing::TempDir() + "interop_ts.pcap";
  trace::write_pcap(result.trace, path);
  const auto reloaded = trace::read_pcap(path);
  std::remove(path.c_str());

  ASSERT_EQ(reloaded.records.size(), result.trace.records.size());
  for (std::size_t i = 0; i < reloaded.records.size(); ++i) {
    EXPECT_EQ(reloaded.records[i].time_us, result.trace.records[i].time_us);
  }
}

}  // namespace
}  // namespace wlan
