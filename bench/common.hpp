// Shared bench harness: the standard utilization sweep every figure bench
// feeds from — expressed as a declarative exp::ExperimentSpec and executed
// on the parallel experiment runner — plus small printing helpers.
//
// The sweep is a composite of two operating regimes of the single-channel
// cell fixture (workload::CellConfig in src/workload/scenario.hpp):
//   A. population regime — a room of lightly loaded closed-loop users;
//      fills the 20-55% utilization bins (the paper's "moderate" band),
//   B. saturation regime — a handful of saturated users with a rising share
//      of weak-SNR (outer-ring) links; fills the 55-95% bins including the
//      throughput knee and the post-knee decline driven by rate adaptation.
// Every per-second sample from every run is binned by that second's
// measured utilization, exactly as the paper aggregates (§6).
//
// Every driver shares the exp::parse_bench_args flags: --threads, --seeds,
// --duration, --out-dir, --only, --quiet.  Progress goes to stderr; figures
// and tables stay on stdout so output pipes cleanly.
#pragma once

#include <string>

#include "core/report.hpp"
#include "exp/args.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "workload/scenario.hpp"

namespace wlan::bench {

struct SweepOptions {
  /// 62 (as in IETF 62) parks the detected knee on the paper's 84-85%.
  std::uint64_t base_seed = 62;
  double rtscts_fraction = 0.05;
  rate::ControllerConfig rate;  ///< ARF by default, like commodity radios
  double duration_s = 18.0;
  int seeds_per_point = 3;
};

/// The frozen standard sweep grid as a declarative spec (15 load points,
/// seeds_per_point repeats each).  `name` labels the manifest files.
[[nodiscard]] exp::ExperimentSpec standard_spec(const std::string& name,
                                                const SweepOptions& opt = {});

/// Same, with the shared CLI flags folded in by exp::apply_args, which
/// exits 2 on a grid it rejects.
[[nodiscard]] exp::ExperimentSpec standard_spec(const std::string& name,
                                                const exp::BenchArgs& args,
                                                const SweepOptions& opt = {});

/// Scale of the Table 1 sessions the fig04, fig05 and tab1 benches run.
inline constexpr double kIetfSessionScale = 0.2;

/// One of the two Table 1 sessions as those benches run it, for
/// `duration_s` simulated seconds: the day (seed 62, mean_pps x3,
/// window 1) or the plenary (seed 63, mean_pps x6, window 3), both at
/// kIetfSessionScale.
[[nodiscard]] workload::Scenario ietf_session(bool plenary, double duration_s);

/// Runs the spec on the parallel runner and returns the merged figures.
/// Per-run progress lines go to stderr when args.progress.
[[nodiscard]] core::FigureAccumulator run_sweep(const exp::ExperimentSpec& spec,
                                                const exp::BenchArgs& args);

/// Renders the figure to stdout and writes its series to
/// `<out_dir>/<csv_name>`.
void emit_figure(const core::FigureSeries& fig, const std::string& csv_name,
                 const std::string& out_dir = ".");

/// Same, but an --only replay writes `<stem>_run<N>.csv` so it never
/// clobbers the full sweep's series in the same out-dir (mirrors the
/// runner's manifest naming).
void emit_figure(const core::FigureSeries& fig, const std::string& csv_name,
                 const exp::BenchArgs& args);

}  // namespace wlan::bench
