// Per-run metric snapshots and their CSV/JSON serializers.
//
// The runner deposits one obs::Metrics register per run (worker-thread
// private, installed via MetricsScope) and the merging thread collects them
// in grid order.  Because every counter is a deterministic function of
// (seed, config) and Metrics::merge is commutative/associative, both the
// per-run rows and the sweep aggregate are byte-identical for any
// --threads N and for an --only replay of a single row — the property
// exp.runner_determinism_test pins.
//
// Snapshots land in their own <stem>_metrics.csv/.json files rather than as
// extra manifest columns, so the manifest byte-identity contract is
// untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace wlan::exp {

/// One run's counter register plus the grid coordinates that identify it
/// (same run/point/seed triple as the manifest row).
struct RunMetrics {
  std::size_t run_index = 0;
  std::size_t point_index = 0;
  std::uint64_t seed = 0;
  obs::Metrics metrics;
};

/// Header: run,point,seed followed by every dotted counter name in catalog
/// order; one row per run, in grid order.
void write_metrics_csv(const std::string& path,
                       const std::vector<RunMetrics>& runs);

/// {"runs":[{run,point,seed,counters:{...}}...],"aggregate":{...}} — the
/// aggregate folds every run with Metrics::merge (kSum adds, kMax maxes).
void write_metrics_json(const std::string& path,
                        const std::vector<RunMetrics>& runs,
                        const obs::Metrics& aggregate);

}  // namespace wlan::exp
