#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "util/csv.hpp"

namespace wlan::bench {

exp::ExperimentSpec standard_spec(const std::string& name,
                                  const SweepOptions& opt) {
  exp::ExperimentSpec spec;
  spec.name = name;
  spec.scenario = "cell";
  spec.base_seed = opt.base_seed;
  spec.seeds_per_point = opt.seeds_per_point;
  spec.duration_s = opt.duration_s;
  spec.rtscts_fractions = {opt.rtscts_fraction};
  spec.rate_policies = {opt.rate.policy};
  // Radios use the paper's Table 2 contention profile (10 us slots,
  // CW 31..255) — the values the paper attributes to the venue hardware;
  // the ablation_timing_profile bench compares against standard 802.11b.
  spec.timings = {"paper"};

  spec.base.rate = opt.rate;
  spec.base.profile.uplink_fraction = 0.5;
  // Conference mix skewed toward full-MTU transfers (the paper's peak
  // throughput implies XL-11 dominance).
  spec.base.profile.size_weights = {0.35, 0.10, 0.08, 0.47};

  spec.loads.clear();
  // Regime A: population of lightly loaded users (20-60% bins).
  for (double pps : {4.0, 7.0, 10.0, 14.0, 18.0}) {
    spec.loads.push_back({24, pps, 0.15, 1});
  }
  // Regime B: few saturated users filling the channel; the weak-link share
  // grows with the population so the 1 Mbps airtime flood — and with it the
  // post-knee throughput decline — arrives at the top of the range.
  for (const auto& [users, far] :
       {std::pair{4, 0.0}, {5, 0.0}, {6, 0.0}, {8, 0.03}, {10, 0.06},
        {12, 0.10}, {14, 0.15}, {16, 0.22}, {18, 0.30}, {20, 0.40}}) {
    spec.loads.push_back({users, 60.0, far, 3});
  }
  return spec;
}

exp::ExperimentSpec standard_spec(const std::string& name,
                                  const exp::BenchArgs& args,
                                  const SweepOptions& opt) {
  auto spec = standard_spec(name, opt);
  exp::apply_args(args, spec);
  return spec;
}

workload::Scenario ietf_session(bool plenary, double duration_s) {
  workload::ScenarioConfig cfg;
  cfg.seed = plenary ? 63 : 62;
  cfg.duration_s = duration_s;
  cfg.scale = kIetfSessionScale;
  cfg.profile.mean_pps *= plenary ? 6.0 : 3.0;
  cfg.profile.window = plenary ? 3 : 1;
  return plenary ? workload::Scenario::plenary(cfg)
                 : workload::Scenario::day(cfg);
}

core::FigureAccumulator run_sweep(const exp::ExperimentSpec& spec,
                                  const exp::BenchArgs& args) {
  return exp::run_experiment(spec, exp::runner_options(args)).figures;
}

void emit_figure(const core::FigureSeries& fig, const std::string& csv_name,
                 const std::string& out_dir) {
  std::fputs(core::render_figure(fig).c_str(), stdout);

  std::filesystem::create_directories(out_dir);
  const std::string path =
      (std::filesystem::path(out_dir) / csv_name).string();
  core::write_figure_csv(fig, path);
  std::printf("series written to %s\n\n", path.c_str());
}

void emit_figure(const core::FigureSeries& fig, const std::string& csv_name,
                 const exp::BenchArgs& args) {
  std::string name = csv_name;
  if (args.only_run) {
    const auto dot = name.rfind('.');
    name.insert(dot == std::string::npos ? name.size() : dot,
                "_run" + std::to_string(*args.only_run));
  }
  emit_figure(fig, name, args.out_dir);
}

}  // namespace wlan::bench
