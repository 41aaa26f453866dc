// Table 1: the two IETF62 data sets (day / plenary), as metadata of our
// scenario builders, plus the headline frame counts the reproduction
// produces at the default scale.
#include <cstdio>

#include "common.hpp"
#include "core/analyzer.hpp"
#include "trace/merge.hpp"
#include "util/ascii_chart.hpp"

int main() {
  using namespace wlan;

  std::printf("Table 1: the two sets of IETF wireless network data\n\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Data set", "Day", "Channels", "Time"});
  for (const auto& info : workload::Scenario::table1()) {
    std::string chans;
    for (std::size_t i = 0; i < info.channels.size(); ++i) {
      if (i) chans += ", ";
      chans += std::to_string(int{info.channels[i]});
    }
    rows.push_back({info.name, info.date, chans, info.time_range});
  }
  std::fputs(util::text_table(rows).c_str(), stdout);

  std::printf("\nReproduction counts (scaled sessions, 60 s each):\n");
  const core::TraceAnalyzer analyzer;
  std::vector<std::vector<std::string>> counts;
  counts.push_back({"Session", "Frames", "Data", "ACK", "RTS", "CTS"});
  for (const bool plenary : {false, true}) {
    auto scenario = bench::ietf_session(plenary, 60.0);
    scenario.run();
    const auto analysis = analyzer.analyze(
        trace::merge_sniffer_traces(scenario.network().sniffer_traces()).trace);
    counts.push_back({scenario.name(), std::to_string(analysis.total_frames),
                      std::to_string(analysis.total_data),
                      std::to_string(analysis.total_acks),
                      std::to_string(analysis.total_rts),
                      std::to_string(analysis.total_cts)});
  }
  std::fputs(util::text_table(counts).c_str(), stdout);
  std::printf("\nPaper totals (full scale, ~8.5 h): 28.6M data, 27.05M ACK, "
              "40k RTS, 17.5k CTS -- RTS/CTS use is minimal there and here.\n");
  return 0;
}
