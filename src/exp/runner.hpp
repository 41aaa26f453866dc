// Parallel experiment runner.
//
// Shards the independent runs of an expanded ExperimentSpec across a
// thread pool that takes runs lowest-index-first from one shared cursor,
// and streams the results into figure accumulators *in grid order*: each
// worker analyzes its run into a private per-run FigureAccumulator, and the
// calling thread merges completed runs strictly by run index as they become
// available.  Because every run's seed is a pure function of its grid index
// and the merge order is fixed, the aggregated figures, manifest rows and
// per-point accumulators are bit-identical for any thread count and any
// schedule.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "exp/manifest.hpp"
#include "exp/metrics_io.hpp"
#include "exp/spec.hpp"

namespace wlan::exp {

struct RunnerOptions {
  /// Worker threads; 0 = one per hardware thread.
  int threads = 0;
  /// One line per completed run on stderr (stdout stays clean for figures).
  bool progress = false;
  /// When set, <spec.name>_manifest.csv/.json are written here (the
  /// directory is created if missing).
  std::string out_dir;
  /// Keep one FigureAccumulator per grid point (seed axis collapsed) —
  /// for per-point analyses such as the §6.1 RTS/CTS fairness split.
  bool per_point_figures = false;
  /// Include per-run wall time in the manifest.  Disable to make manifests
  /// byte-identical across runs and thread counts (determinism tests).
  bool timing_in_manifest = true;
  /// Run only this grid run (a manifest row's `run` column), keeping its
  /// full-grid indices — the reproduce-one-point path.
  std::optional<std::size_t> only_run;
};

struct ExperimentResult {
  /// Every run, merged in grid order — what the figure benches render.
  core::FigureAccumulator figures;
  /// Per grid point, when RunnerOptions::per_point_figures is set
  /// (indexed by point_index; empty otherwise).
  std::vector<core::FigureAccumulator> per_point;
  /// One manifest row per run, in grid order.
  std::vector<RunRecord> runs;
  /// One work-counter snapshot per run, in grid order.  Deterministic:
  /// byte-identical for any thread count and for an --only replay of the
  /// same row.
  std::vector<RunMetrics> run_metrics;
  /// Every run's counters folded with Metrics::merge (kSum adds, kMax
  /// takes the high-water mark across runs).
  obs::Metrics metrics;
  double wall_s = 0.0;  ///< whole-experiment wall clock
};

/// Expands and runs the spec.  Throws what expand()/the registry throw
/// (unknown scenario or axis name, bad grid) and std::out_of_range when
/// only_run is past the grid.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec,
                                              const RunnerOptions& opt = {});

}  // namespace wlan::exp
