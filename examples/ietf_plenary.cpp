// IETF62 plenary-session reproduction (scaled).
//
//   $ ./ietf_plenary [duration_s] [scale]
//
// The Figure 3 configuration: temporary ballroom walls removed, all users
// congregated in one large room, three co-located sniffers (channels 1, 6,
// 11).  Compared with the day session the sniffers sit close to everyone,
// so captured utilization is much higher — the paper's Figure 5 contrast.
#include <cstdio>
#include <string>

#include "core/analyzer.hpp"
#include "core/congestion.hpp"
#include "core/utilization.hpp"
#include "exp/args.hpp"
#include "util/ascii_chart.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace wlan;

  workload::ScenarioConfig cfg;
  cfg.seed = 63;
  const std::string usage =
      std::string("usage: ") + argv[0] + " [duration_s] [scale]";
  cfg.duration_s =
      argc > 1 ? exp::duration_arg(argv[1], "duration_s", usage) : 120.0;
  cfg.scale = argc > 2 ? exp::positive_arg(argv[2], "scale", usage) : 0.2;
  // Plenary evenings: everyone in one room, laptops busy (the paper's
  // plenary channels sat near 86% utilization).
  cfg.profile.mean_pps *= 6.0;
  cfg.profile.window = 3;

  std::printf("Building IETF62 plenary session (scale %.2f, %.0f s)...\n",
              cfg.scale, cfg.duration_s);
  workload::Scenario scenario = workload::Scenario::plenary(cfg);
  std::fputs(workload::render_ascii(scenario.floorplan()).c_str(), stdout);
  scenario.run();

  // Utilization is a per-channel quantity: analyze each sniffer's capture
  // separately (the paper's Figure 5b shows one panel per channel).
  const core::TraceAnalyzer analyzer;
  util::Histogram hist(0.0, 101.0, 101);
  core::CongestionBreakdown total_breakdown;
  for (std::size_t i = 0; i < scenario.network().sniffers().size(); ++i) {
    const auto& sniffer = *scenario.network().sniffers()[i];
    const auto analysis = analyzer.analyze(sniffer.trace());
    const auto series = core::utilization_series(analysis);
    std::vector<double> xs(series.size());
    for (std::size_t t = 0; t < xs.size(); ++t) xs[t] = static_cast<double>(t);
    std::printf("\n-- Channel %d --\n",
                int{scenario.network().channel_numbers()[i % 3]});
    std::fputs(util::line_chart("Utilization over time (Fig 5b)", xs,
                                {{"util%", series}}, 70, 10)
                   .c_str(),
               stdout);
    for (const auto& s : analysis.seconds) hist.add(s.utilization());
    const auto b = core::breakdown(analysis);
    total_breakdown.uncongested += b.uncongested;
    total_breakdown.moderate += b.moderate;
    total_breakdown.high += b.high;
  }

  if (const auto mode = hist.mode()) {
    std::printf("\nUtilization histogram mode (Fig 5c): %.0f%% "
                "(paper: ~86%% for the plenary)\n",
                *mode);
  }
  std::printf("Congestion breakdown (channel-seconds): %llu uncongested, "
              "%llu moderate, %llu high\n",
              static_cast<unsigned long long>(total_breakdown.uncongested),
              static_cast<unsigned long long>(total_breakdown.moderate),
              static_cast<unsigned long long>(total_breakdown.high));
  return 0;
}
