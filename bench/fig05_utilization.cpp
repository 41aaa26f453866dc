// Figure 5: (a/b) per-channel utilization time series for the day and
// plenary sessions, (c) the frequency histogram of utilization values.
// Also writes the day session's merged capture as ietf_day.trace, the
// input example_trace_tool analyzes without re-simulating.
#include <cstdio>

#include "common.hpp"
#include "core/utilization.hpp"
#include "trace/merge.hpp"
#include "trace/trace_io.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"

int main() {
  using namespace wlan;
  const core::TraceAnalyzer analyzer;

  for (const bool plenary : {false, true}) {
    auto scenario = bench::ietf_session(plenary, 120.0);
    std::printf("=== %s session ===\n", scenario.name().c_str());
    scenario.run();

    util::Histogram hist(0.0, 101.0, 101);
    util::CsvWriter csv("fig05_" + scenario.name() + ".csv",
                        {"second", "channel", "utilization_pct"});
    for (const auto& sniffer : scenario.network().sniffers()) {
      const int ch = sniffer->channel();
      const auto analysis = analyzer.analyze(sniffer->trace());
      const auto series = core::utilization_series(analysis);
      std::vector<double> xs(series.size());
      for (std::size_t t = 0; t < xs.size(); ++t) {
        xs[t] = static_cast<double>(t);
        hist.add(series[t]);
        csv.row({xs[t], static_cast<double>(ch), series[t]});
      }
      std::fputs(util::line_chart("Fig 5: utilization, channel " +
                                      std::to_string(ch),
                                  xs, {{"util%", series}}, 70, 10)
                     .c_str(),
                 stdout);
    }
    if (!plenary) {
      const auto merged =
          trace::merge_sniffer_traces(scenario.network().sniffer_traces());
      trace::write_binary(merged.trace, "ietf_day.trace");
    }

    // 5c: decimate the histogram into 10%-wide buckets for display.
    std::vector<std::string> labels;
    std::vector<double> counts;
    for (int b = 0; b < 10; ++b) {
      std::uint64_t c = 0;
      for (int p = b * 10; p < (b + 1) * 10; ++p) {
        c += hist.bin_count(static_cast<std::size_t>(p));
      }
      labels.push_back(std::to_string(b * 10) + "-" + std::to_string(b * 10 + 9) + "%");
      counts.push_back(static_cast<double>(c));
    }
    std::fputs(util::bar_chart("Fig 5c: utilization frequency (channel-seconds)",
                               labels, counts)
                   .c_str(),
               stdout);
    if (const auto mode = hist.mode()) {
      std::printf("Histogram mode: %.0f%% (paper: ~55%% day, ~86%% plenary)\n\n",
                  *mode);
    }
  }
  return 0;
}
