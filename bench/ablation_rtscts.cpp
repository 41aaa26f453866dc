// Ablation: RTS/CTS adoption fraction under congestion (§6.1).
//
// The paper observes that when only a few nodes use RTS/CTS, those nodes
// are denied fair access under congestion.  This bench sweeps the adoption
// fraction from 0% to 100% — one spec with the RTS/CTS axis, per-point
// figure accumulators giving each fraction its own fairness split.
#include <cstdio>

#include "common.hpp"
#include "util/ascii_chart.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  const auto args = exp::parse_bench_args(
      argc, argv, "RTS/CTS adoption ablation on a saturated cell");

  exp::ExperimentSpec spec;
  spec.name = "ablation_rtscts";
  spec.base_seed = 8100;
  spec.seeds_per_point = 2;
  spec.duration_s = 20.0;
  spec.rtscts_fractions = {0.0, 0.1, 0.25, 0.5, 1.0};
  spec.timings = {"standard"};
  spec.loads = {{16, 60.0, 0.25, 3}};
  spec.base.profile.uplink_fraction = 0.5;
  exp::apply_args(args, spec);

  std::printf("RTS/CTS adoption ablation: saturated cell, 16 users, %.0f s x "
              "%d seeds per point\n\n", spec.duration_s, spec.seeds_per_point);

  auto opt = exp::runner_options(args);
  opt.per_point_figures = true;  // §6.1 fairness split per adoption fraction
  const auto res = exp::run_experiment(spec, opt);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Adoption %", "RTS users del %", "Others del %",
                  "Goodput Mbps", "RTS/s", "CTS/s"});
  for (const auto& p : exp::summarize_by_point(res.runs)) {
    const auto fair = res.per_point[p.point_index].rts_fairness();
    rows.push_back({util::fmt(p.rep.rtscts_fraction * 100),
                    fair.rts_senders ? util::fmt(fair.rts_delivery_ratio * 100)
                                     : std::string("-"),
                    fair.other_senders
                        ? util::fmt(fair.other_delivery_ratio * 100)
                        : std::string("-"),
                    util::fmt(p.mean_goodput_mbps), util::fmt(p.rts_per_s()),
                    util::fmt(p.cts_per_s())});
  }
  std::fputs(util::text_table(rows).c_str(), stdout);
  std::printf("\nPaper (S6.1): RTS/CTS users depend on two extra control\n"
              "frames surviving the congested channel, so a small adopting\n"
              "minority sees a lower delivery ratio than plain CSMA users.\n");
  return 0;
}
