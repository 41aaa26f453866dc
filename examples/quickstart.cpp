// Quickstart: simulate a congested 802.11b cell, sniff it, and run the
// paper's congestion analysis on the capture.
//
//   $ ./quickstart [num_users]
//
// Walks through the whole public API surface in ~60 lines: build a cell,
// run it, analyze the sniffer trace, classify congestion, and print the
// headline metrics.
#include <cstdio>
#include <limits>
#include <string>

#include "core/analyzer.hpp"
#include "core/congestion.hpp"
#include "core/unrecorded.hpp"
#include "core/utilization.hpp"
#include "exp/args.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace wlan;

  workload::CellConfig cell;
  cell.seed = 42;
  const std::string usage = std::string("usage: ") + argv[0] + " [num_users]";
  cell.num_users =
      argc > 1 ? exp::int_arg(argv[1], "num_users", 1,
                              std::numeric_limits<int>::max(), usage)
               : 30;
  cell.duration_s = 20.0;

  std::printf("Simulating one 802.11b channel: %d users, %.0f s...\n",
              cell.num_users, cell.duration_s);
  const workload::CellResult result = workload::run_cell(cell);
  std::printf("Sniffer captured %zu frames (%llu transmissions on the medium, "
              "%llu collisions).\n\n",
              result.trace.records.size(),
              static_cast<unsigned long long>(result.medium_transmissions),
              static_cast<unsigned long long>(result.medium_collisions));

  // The analysis layer sees only the capture, exactly like the paper.
  const core::TraceAnalyzer analyzer;
  const core::AnalysisResult analysis = analyzer.analyze(result.trace);

  util::Accumulator util_acc, thr_acc, good_acc;
  for (const auto& s : analysis.seconds) {
    util_acc.add(s.utilization());
    thr_acc.add(s.throughput_mbps());
    good_acc.add(s.goodput_mbps());
  }

  std::printf("Per-second averages over %zu s:\n", analysis.seconds.size());
  std::printf("  channel utilization : %5.1f %%  (min %.1f, max %.1f)\n",
              util_acc.mean(), util_acc.min(), util_acc.max());
  std::printf("  throughput          : %5.2f Mbps\n", thr_acc.mean());
  std::printf("  goodput             : %5.2f Mbps\n", good_acc.mean());

  const auto level = core::classify(util_acc.mean());
  std::printf("  congestion state    : %s (paper thresholds: <30%% / 30-84%% / >84%%)\n",
              std::string(core::congestion_level_name(level)).c_str());

  std::printf("  unrecorded frames   : %.1f %% (estimated via DCF atomicity)\n",
              analysis.unrecorded.unrecorded_pct());

  std::printf("\nFrame mix: %llu data, %llu ACK, %llu RTS, %llu CTS\n",
              static_cast<unsigned long long>(analysis.total_data),
              static_cast<unsigned long long>(analysis.total_acks),
              static_cast<unsigned long long>(analysis.total_rts),
              static_cast<unsigned long long>(analysis.total_cts));
  return 0;
}
