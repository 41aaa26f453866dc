// Figures 6 and 8-15: every figure the standard utilization sweep feeds.
// Each is a utilization-binned mean over the same one-second intervals
// (§6), so one run of the sweep writes them all.
//
// Paper shapes:
//   Fig. 6: throughput and goodput rise with utilization to a knee near 84%
//     (4.9 / 4.4 Mbps there), then fall (to 2.8 / 2.6 Mbps at 98%) as rate
//     adaptation floods the channel with slow frames.
//   Fig. 8: 1 Mbps frames occupy the largest fraction of every second and
//     grow from ~0.43 s to ~0.54 s under high congestion, even though
//     11 Mbps carries far more bytes (Figure 9).
//   Fig. 9: 11 Mbps carries by far the most bytes (~300% more than 1 Mbps)
//     while occupying about half the airtime 1 Mbps does — the DCF airtime
//     anomaly (Heusse et al.).
//   Figs. 10-13: data-frame transmissions per second by size class and rate.
//     S-11 and XL-11 dominate their size classes at every utilization
//     (Figs 10-11); at 1 Mbps the S class leads (Fig 12); 2 and 5.5 Mbps are
//     scarce everywhere ("current rate adaptation implementations make
//     scarce use of the 2 and 5.5 Mbps rates").
//   Fig. 14: data frames acknowledged on their first attempt. 11 Mbps
//     dominates; it dips in the 80-84% contention band and recovers under
//     high congestion (fast frames win access while slow 1 Mbps frames
//     crowd the air).
//   Fig. 15: acceptance delay (first transmission -> recorded ACK) for S-1,
//     XL-1, S-11 and XL-11 frames rises with utilization; both 1 Mbps
//     categories sit well above both 11 Mbps categories — an S-1 frame
//     takes longer to accept than an XL-11 frame, i.e. rate beats size.
#include <cstdio>

#include "common.hpp"
#include "core/theoretical.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  const auto args = exp::parse_bench_args(
      argc, argv, "Figures 6 and 8-15: the standard utilization sweep");
  auto spec = bench::standard_spec("fig06_15", args);
  std::printf("Figures 6 and 8-15 bench: standard utilization sweep "
              "(%zu runs)\n\n", exp::expand(spec).size());
  const auto acc = bench::run_sweep(spec, args);

  for (const auto& [file, fig] : core::paper_figures(acc)) {
    // bench_fig07_rtscts draws Fig. 7 from a sweep with more RTS/CTS users.
    if (file == "fig07.csv") continue;
    bench::emit_figure(fig, file, args);
    if (file != "fig06.csv") continue;
    std::printf("Detected saturation knee: %.0f%% utilization (paper: 84%%)\n",
                acc.knee_utilization());
    std::printf("Theoretical max (Jun et al., full-MTU @ 11 Mbps): %.2f Mbps — "
                "the paper notes its 4.9 Mbps at 84%% sits closest to it.\n",
                core::best_case_tmt_mbps(core::DelayComponents::paper()));
    std::printf("Seconds aggregated: %zu\n\n", acc.seconds_absorbed());
  }
  return 0;
}
