// IETF62 day-session reproduction (scaled).
//
//   $ ./ietf_day [duration_s] [scale]
//
// Builds the Figure 2 venue (conference rooms + ballrooms, APs on three
// floors, three sniffers spread through the busiest room on channels
// 1/6/11), drives the day-session population curve, then analyzes each
// sniffer's capture: utilization time series + histogram (Figure 5a/5c),
// user counts (Figure 4b), per-AP activity (Figure 4a) and unrecorded
// percentages (Figure 4c).
#include <cstdio>
#include <string>

#include "core/analyzer.hpp"
#include "core/per_ap.hpp"
#include "core/unrecorded.hpp"
#include "core/utilization.hpp"
#include "exp/args.hpp"
#include "trace/merge.hpp"
#include "trace/trace_io.hpp"
#include "util/ascii_chart.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace wlan;

  workload::ScenarioConfig cfg;
  cfg.seed = 62;
  const std::string usage =
      std::string("usage: ") + argv[0] + " [duration_s] [scale]";
  cfg.duration_s =
      argc > 1 ? exp::duration_arg(argv[1], "duration_s", usage) : 120.0;
  cfg.scale = argc > 2 ? exp::positive_arg(argv[2], "scale", usage) : 0.2;
  // Daytime: parallel sessions, moderate per-user activity (the paper's day
  // channels hovered around 55% utilization).
  cfg.profile.mean_pps *= 3.0;
  cfg.profile.window = 1;

  std::printf("Building IETF62 day session (scale %.2f, %.0f s)...\n",
              cfg.scale, cfg.duration_s);
  workload::Scenario scenario = workload::Scenario::day(cfg);
  std::fputs(workload::render_ascii(scenario.floorplan()).c_str(), stdout);
  scenario.run();

  std::printf("\nSpawned %zu user sessions total.\n", scenario.users().spawned());

  // Utilization is per channel: one analysis per sniffer (Figure 5a).
  const auto traces = scenario.network().sniffer_traces();
  const core::TraceAnalyzer analyzer;
  util::Histogram hist(0.0, 101.0, 101);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto ch = scenario.network().channel_numbers()[i % 3];
    const auto analysis = analyzer.analyze(traces[i]);
    const auto series = core::utilization_series(analysis);
    std::printf("\n-- Sniffer %zu (channel %d): %zu frames --\n", i, int{ch},
                traces[i].records.size());
    std::vector<double> xs(series.size());
    for (std::size_t t = 0; t < xs.size(); ++t) xs[t] = static_cast<double>(t);
    std::fputs(util::line_chart("Utilization over time (Fig 5a)", xs,
                                {{"util%", series}}, 70, 12)
                   .c_str(),
               stdout);
    for (const auto& s : analysis.seconds) hist.add(s.utilization());
  }

  if (const auto mode = hist.mode()) {
    std::printf("\nUtilization histogram mode (Fig 5c): %.0f%%\n", *mode);
  }

  // Venue-wide statistics use the merged capture (AP ranking, user counts,
  // unrecorded estimation are cross-channel quantities).
  const trace::Trace merged = trace::merge_sniffer_traces(traces).trace;

  const auto aps = core::ap_activity(merged);
  std::printf("\nTop APs by frames (Fig 4a):\n");
  for (std::size_t i = 0; i < aps.size() && i < 15; ++i) {
    std::printf("  #%2zu  bssid %5d : %8llu frames\n", i + 1, aps[i].bssid,
                static_cast<unsigned long long>(aps[i].frames));
  }

  const auto users = core::user_count_series(merged);
  util::Accumulator peak;
  for (const auto& p : users) peak.add(p.users);
  std::printf("\nAssociated users (Fig 4b): peak %.0f, mean %.1f\n", peak.max(),
              peak.mean());

  const auto unrec = core::estimate_unrecorded(merged);
  std::printf("Unrecorded frames (Fig 4c): %.1f%% overall\n",
              unrec.totals.unrecorded_pct());

  trace::write_binary(merged, "ietf_day.trace");
  std::printf("\nMerged capture written to ietf_day.trace (%zu records); "
              "inspect it with ./trace_tool.\n",
              merged.records.size());
  return 0;
}
