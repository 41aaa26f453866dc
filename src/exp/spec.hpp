// Declarative experiment specifications.
//
// An ExperimentSpec describes a parameter grid — scenario × load points ×
// RTS/CTS fraction × rate policy × timing profile × power margin × seed
// repeats — and expand() unrolls it into fully resolved, independent runs.
// Per-run seeds are drawn from the SplitMix64 stream seeded with
// `base_seed` (util::mix_seed) at the run's (load point, repeat)
// coordinates, so a run's seed depends only on its grid position: results
// are bit-identical regardless of thread count or schedule, any single run
// can be reproduced in isolation from its manifest row, and treatment arms
// at the same load share draws (common random numbers), keeping ablation
// comparisons paired.
//
// Layer contract (exp): this layer composes workload scenarios and core
// analyzers into reusable experiment machinery (specs, registry, parallel
// runner, manifests).  Nothing below it — sim, workload, core — may depend
// on it; benches, examples and tests drive it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/scenario.hpp"

namespace wlan::exp {

/// One operating point of the load axis.  For the "cell" scenario these map
/// 1:1 onto CellConfig; session scenarios reinterpret `users` as population
/// scale ×100 (see registry.cpp).
struct LoadPoint {
  int users = 10;
  double pps = 5.0;             ///< per-user packets/s while sending
  double far_fraction = 0.15;   ///< share of weak-SNR (outer-ring) links
  std::uint32_t window = 1;     ///< closed-loop packets in flight
};

/// A declarative parameter grid.  The grid is the cartesian product
/// loads × rtscts_fractions × rate_policies × timings × power_margins,
/// each point repeated seeds_per_point times with derived seeds.
struct ExperimentSpec {
  std::string name = "experiment";  ///< labels output files (manifest)
  std::string scenario = "cell";    ///< ScenarioRegistry key
  std::uint64_t base_seed = 1;
  int seeds_per_point = 1;
  double duration_s = 18.0;
  /// Worker threads for each run's per-channel shard phases (see
  /// sim::EngineOptions::shards).  Like RunnerOptions::threads — and
  /// composing with it — this is an execution knob, not a treatment: output
  /// is byte-identical for any value, and it stays out of the manifest.
  int shards = 1;

  // --- grid axes (every axis must be non-empty) -------------------------
  std::vector<LoadPoint> loads = {LoadPoint{}};
  std::vector<std::string> rate_policies = {"arf"};
  std::vector<std::string> timings = {"paper"};
  std::vector<double> rtscts_fractions = {0.05};
  std::vector<double> power_margins = {-1.0};  ///< <0 disables client TPC
  /// Population turnover per minute for the churn scenarios.  A treatment
  /// axis like rtscts/policy: churn arms at the same load share seeds, so
  /// churn-rate sweeps are paired.  Caveats, enforced by expand(): manifests
  /// record the *raw* axis value, and a churn scenario substitutes its
  /// default (1 turnover/min) for any value <= 0 — so at most one
  /// non-positive value may be on the axis; static scenarios ignore the
  /// axis entirely, so a multi-valued axis there is rejected (it would only
  /// duplicate every run).
  std::vector<double> churn_rates = {0.0};

  /// Everything not on an axis (traffic profile, geometry, sniffer
  /// capacity, ...).  Axis values, duration_s and seed are overwritten per
  /// run during expansion.
  workload::CellConfig base;
};

/// One fully resolved run of the grid.
struct RunSpec {
  std::size_t run_index = 0;    ///< dense position in the expansion order
  std::size_t point_index = 0;  ///< grid point (seed axis collapsed)
  int seed_ordinal = 0;         ///< which repeat of the point this is
  /// load_index * seeds_per_point + seed_ordinal: the coordinates the seed
  /// derives from.  Treatment arms (rtscts/policy/timing/power) at the same
  /// load and repeat share a pair_index — common random numbers, so
  /// ablation A/B comparisons are paired.
  std::size_t pair_index = 0;
  std::uint64_t seed = 0;       ///< util::mix_seed(base_seed, pair_index)

  std::string scenario;
  std::string rate_policy;
  std::string timing;
  double rtscts_fraction = 0.0;
  double power_margin_db = -1.0;
  double churn_rate = 0.0;  ///< population turnover per minute (churn axis)
  LoadPoint load;

  /// Resolved cell parameters.  The "cell" scenario runs exactly this;
  /// session scenarios map the shared fields onto a ScenarioConfig.
  workload::CellConfig cell;
};

/// Number of grid points (the expansion's run count / seeds_per_point).
[[nodiscard]] std::size_t grid_points(const ExperimentSpec& spec);

/// Unrolls the grid in a fixed order — loads (outermost) × rtscts × rate
/// policy × timing × power margin × seed repeats (innermost) — so run and
/// point indices are stable properties of the spec.  Throws
/// std::invalid_argument on an empty axis, seeds_per_point < 1, an unknown
/// rate-policy / timing name, or a churn_rates axis that would silently
/// duplicate runs (multi-valued on a static scenario, or more than one
/// non-positive value).
[[nodiscard]] std::vector<RunSpec> expand(const ExperimentSpec& spec);

}  // namespace wlan::exp
