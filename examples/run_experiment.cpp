// Experiment-runner walkthrough: pick any registered scenario by name, run
// a small load grid across all cores, and print the per-point summary the
// manifest rows aggregate to.
//
//   $ ./example_run_experiment                  # the "cell" fixture
//   $ ./example_run_experiment ietf-day --threads 4 --duration 20
//   $ ./example_run_experiment --list           # what can I run?
//
// Shares the bench flag dialect (--threads/--seeds/--duration/--out-dir/
// --only/--quiet); manifests land in --out-dir for re-plotting or for
// reproducing any single run with --only <run>.
#include <cstdio>
#include <cstring>

#include "exp/args.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "rate/policy_registry.hpp"
#include "util/ascii_chart.hpp"

int main(int argc, char** argv) {
  using namespace wlan;

  // Peel off [scenario] / --list before the shared flags.
  std::string scenario = "cell";
  if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
    std::printf("registered scenarios:\n");
    for (const auto& name : exp::ScenarioRegistry::instance().names()) {
      std::printf("  %s\n", name.c_str());
    }
    std::printf("rate policies: ");
    for (const auto& key : rate::PolicyRegistry::instance().keys()) {
      std::printf("%s ", key.c_str());
    }
    std::printf("\ntiming profiles: ");
    for (const auto& key : exp::timing_keys()) std::printf("%s ", key.c_str());
    std::printf("\n");
    return 0;
  }
  if (argc > 1 && argv[1][0] != '-') {
    scenario = argv[1];
    --argc;
    ++argv;
  }
  const auto args = exp::parse_bench_args(
      argc, argv,
      "run_experiment [scenario|--list]: a small grid on the parallel runner");

  exp::ExperimentSpec spec;
  spec.name = "example_" + scenario;
  spec.scenario = scenario;
  spec.base_seed = 62;
  spec.seeds_per_point = 2;
  spec.duration_s = 10.0;
  // A small load ladder; session scenarios read `users` as scale x100.
  spec.loads = {{6, 20.0, 0.1, 1}, {10, 40.0, 0.15, 2}, {14, 60.0, 0.2, 3}};
  exp::apply_args(args, spec);  // an unknown scenario exits 2 here

  std::printf("scenario %s: %zu grid points x %d seeds, %.0f s each\n\n",
              scenario.c_str(), exp::grid_points(spec), spec.seeds_per_point,
              spec.duration_s);

  const auto res = exp::run_experiment(spec, exp::runner_options(args));

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Users", "pps", "Util %", "Thr Mbps", "Good Mbps",
                  "Delivery %", "Frames"});
  std::uint64_t frames = 0;
  for (const auto& r : res.runs) frames += r.frames;
  for (const auto& p : exp::summarize_by_point(res.runs)) {
    rows.push_back({std::to_string(p.rep.users), util::fmt(p.rep.pps),
                    util::fmt(p.mean_util_pct),
                    util::fmt(p.mean_throughput_mbps),
                    util::fmt(p.mean_goodput_mbps),
                    util::fmt(p.delivery_pct()), std::to_string(p.frames)});
  }
  std::fputs(util::text_table(rows).c_str(), stdout);
  std::printf("\n%zu runs, %llu frames, %.2f s wall; manifest in %s\n",
              res.runs.size(), static_cast<unsigned long long>(frames),
              res.wall_s, args.out_dir.c_str());
  return 0;
}
