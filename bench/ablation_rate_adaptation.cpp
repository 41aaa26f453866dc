// Ablation: rate-adaptation policy under congestion (the experiment the
// paper's conclusion calls for).
//
// Runs the saturated cell under ARF / AARF / SNR-threshold / MinstrelLite /
// fixed-11 / fixed-1 and reports goodput, per-rate airtime, delivery ratio
// and the per-frame delay-component percentiles (queueing wait / head-of-
// line service, the paper's §6 decomposition).  The grid is one declarative
// spec — the policy axis × seed repeats — executed on the parallel runner.
#include <cstdio>

#include "common.hpp"
#include "rate/policy_registry.hpp"
#include "util/ascii_chart.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  const auto args = exp::parse_bench_args(
      argc, argv, "Rate-adaptation ablation: policy axis on a saturated cell");

  exp::ExperimentSpec spec;
  spec.name = "ablation_rate_adaptation";
  spec.base_seed = 7000;
  spec.seeds_per_point = 3;
  spec.duration_s = 20.0;
  spec.rate_policies = {"arf", "aarf", "snr", "minstrel", "fixed11", "fixed1"};
  spec.timings = {"standard"};
  spec.loads = {{14, 60.0, 0.3, 3}};
  spec.base.profile.uplink_fraction = 0.5;
  exp::apply_args(args, spec);

  std::printf("Rate-adaptation ablation: saturated cell, 14 users (30%% weak "
              "links), %.0f s x %d seeds per policy\n\n",
              spec.duration_s, spec.seeds_per_point);

  exp::RunnerOptions opt = exp::runner_options(args);
  opt.per_point_figures = true;  // per-policy delay percentiles
  const auto res = exp::run_experiment(spec, opt);

  const auto ms = [](std::uint64_t us) {
    return util::fmt(static_cast<double>(us) / 1000.0);
  };
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Policy", "Util %", "Thr Mbps", "Good Mbps", "1M busy s",
                  "11M busy s", "delivery %", "queue p50 ms", "svc p50 ms",
                  "svc p95 ms"});
  for (const auto& p : exp::summarize_by_point(res.runs)) {
    const core::FigureAccumulator& figs = res.per_point[p.point_index];
    rows.push_back(
        {std::string(
             rate::PolicyRegistry::instance().display_name(p.rep.rate_policy)),
         util::fmt(p.mean_util_pct), util::fmt(p.mean_throughput_mbps),
         util::fmt(p.mean_goodput_mbps),
         util::fmt(p.busy_s_by_rate[phy::rate_index(phy::Rate::kR1)]),
         util::fmt(p.busy_s_by_rate[phy::rate_index(phy::Rate::kR11)]),
         util::fmt(p.delivery_pct()), ms(figs.queue_delay().percentile(0.5)),
         ms(figs.service_delay().percentile(0.5)),
         ms(figs.service_delay().percentile(0.95))});
  }
  std::fputs(util::text_table(rows).c_str(), stdout);
  std::printf("\nPaper (S7): loss-triggered adaptation responds to collision\n"
              "losses by lowering the rate, which is detrimental; SNR-based\n"
              "selection avoids the 1 Mbps airtime flood.\n");
  return 0;
}
