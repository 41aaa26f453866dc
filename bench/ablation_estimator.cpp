// Ablation: unrecorded-frame estimator vs. simulator ground truth.
//
// The paper's atomicity-based estimator (§4.4) could never be validated on
// the real network — the authors had no ground truth.  The simulator does:
// compare the estimated unrecorded percentage against the sniffer's true
// miss rate across load levels.  One spec — the load axis — and the
// runner's manifest already carries both sides of the comparison.
#include <cstdio>

#include "common.hpp"
#include "util/ascii_chart.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  const auto args = exp::parse_bench_args(
      argc, argv, "Estimator validation: estimated vs true unrecorded %");

  exp::ExperimentSpec spec;
  spec.name = "ablation_estimator";
  spec.base_seed = 9000;
  spec.seeds_per_point = 1;
  spec.duration_s = 20.0;
  spec.rtscts_fractions = {0.15};
  spec.timings = {"standard"};
  spec.loads = {{6, 60.0, 0.25, 3}, {10, 60.0, 0.25, 3},
                {14, 60.0, 0.25, 3}, {18, 60.0, 0.25, 3}};
  spec.base.profile.uplink_fraction = 0.5;
  // A weaker sniffer so there is something to estimate.
  spec.base.sniffer_capacity_fps = 600.0;
  exp::apply_args(args, spec);

  std::printf("Estimator validation: estimated vs. true unrecorded %%\n\n");

  const auto res = exp::run_experiment(spec, exp::runner_options(args));

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Load (users)", "True miss %", "Estimated %", "Est. DATA",
                  "Est. RTS", "Est. CTS"});
  for (const auto& p : exp::summarize_by_point(res.runs)) {
    rows.push_back({std::to_string(p.rep.users), util::fmt(p.true_miss_pct),
                    util::fmt(p.est_unrecorded_pct),
                    util::fmt(p.est_missed_data),
                    util::fmt(p.est_missed_rts),
                    util::fmt(p.est_missed_cts)});
  }
  std::fputs(util::text_table(rows).c_str(), stdout);
  std::printf("\nThe estimator is a lower bound (it cannot see exchanges where\n"
              "both frames vanished), exactly as the paper cautions in S4.4.\n");
  return 0;
}
