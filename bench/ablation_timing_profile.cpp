// Ablation: paper Table 2 timing (10 us slot, CW 31..255) vs. the IEEE
// 802.11b standard values (20 us slot, CW 31..1023) on the simulated radios.
//
// The paper quotes Jun et al.'s parameters; real Airespace/IETF hardware
// used the standard ones.  The analyzer always applies Table 2; this bench
// shows how much the *radio-side* profile matters for the congestion
// dynamics.  One spec: timing axis × two populations × seed repeats.
#include <cstdio>

#include "common.hpp"
#include "util/ascii_chart.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  const auto args = exp::parse_bench_args(
      argc, argv, "Timing-profile ablation: paper vs standard 802.11b");

  exp::ExperimentSpec spec;
  spec.name = "ablation_timing_profile";
  spec.base_seed = 9500;
  spec.seeds_per_point = 2;
  spec.duration_s = 20.0;
  spec.timings = {"paper", "standard"};
  spec.loads = {{8, 60.0, 0.2, 3}, {16, 60.0, 0.2, 3}};
  spec.base.profile.uplink_fraction = 0.5;
  exp::apply_args(args, spec);

  const auto res = exp::run_experiment(spec, exp::runner_options(args));

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Radio timing", "Users", "Util %", "Goodput Mbps",
                  "Collision %", "Retry frames %"});
  for (const auto& p : exp::summarize_by_point(res.runs)) {
    rows.push_back({p.rep.timing == "paper" ? "paper (slot 10, CW<=255)"
                                            : "standard (slot 20, CW<=1023)",
                    std::to_string(p.rep.users), util::fmt(p.mean_util_pct),
                    util::fmt(p.mean_goodput_mbps),
                    util::fmt(p.collision_pct), util::fmt(p.retry_pct())});
  }
  std::fputs(util::text_table(rows).c_str(), stdout);
  std::printf("\nThe paper profile's 10 us slots halve the idle cost of every\n"
              "backoff slot, so it posts higher utilization and goodput at\n"
              "equal load.  The standard profile spends twice the airtime per\n"
              "slot, and at these populations its deeper CW ceiling does not\n"
              "recoup the difference -- each recovery round drains the same\n"
              "contention more slowly, so retry shares stay higher.\n");
  return 0;
}
