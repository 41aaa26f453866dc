// String-keyed registries: scenarios runnable by name, and the name map
// for the timing-profile grid axis.  (The rate-policy axis needs no map
// here: spec strings are rate::PolicyRegistry keys, end to end.)
//
// The scenario registry is how benches and tools select what a RunSpec
// executes at runtime ("cell", "ietf-day", "ietf-plenary") and how new
// workloads plug into the experiment machinery without touching the runner:
// a scenario is one row in the table in registry.cpp — its name, whether
// its population churns, and its function — and every spec, manifest and
// CLI flag picks it up.  The table is constant, so any thread may read the
// registry.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyzer.hpp"
#include "core/report.hpp"
#include "core/unrecorded.hpp"
#include "exp/spec.hpp"
#include "mac/timing.hpp"
#include "util/log_histogram.hpp"

namespace wlan::exp {

/// What one run hands back for aggregation and the manifest.  The analysis
/// and figures are capture-derived (the paper's methodology); the remaining
/// fields are simulator/sniffer ground truth a scenario may report (zeros
/// when it cannot, e.g. multi-sniffer sessions).
struct RunOutput {
  /// What the manifest row reads.  A session's holds no acceptance
  /// sample: it streams those straight into `figures`.
  core::AnalysisResult analysis;
  /// The run's seconds, acceptance samples and senders, binned.
  core::FigureAccumulator figures;
  core::UnrecordedTotals unrecorded;     ///< §4.4 estimate on the capture
  std::uint64_t medium_transmissions = 0;
  std::uint64_t medium_collisions = 0;
  std::uint64_t sniffer_offered = 0;
  std::uint64_t sniffer_captured = 0;
  /// Per-frame delay components from the simulator (paper §6): queueing
  /// wait and head-of-line service time, microseconds.  Empty when a
  /// scenario does not report them.
  util::LogHistogram queue_delay;
  util::LogHistogram service_delay;
};

class ScenarioRegistry {
 public:
  /// The process-wide registry of the built-in scenarios.
  static const ScenarioRegistry& instance();

  [[nodiscard]] std::vector<std::string> names() const;  ///< sorted

  /// Whether the named scenario has a dynamic population, the only kind
  /// the churn_rates axis reaches.  This and run() throw
  /// std::invalid_argument listing the known names on an unknown one.
  [[nodiscard]] bool churns(const std::string& name) const;

  /// Runs one resolved grid run.
  [[nodiscard]] RunOutput run(const std::string& name, const RunSpec& run) const;

 private:
  ScenarioRegistry() = default;
};

// --- axis name maps --------------------------------------------------------
// Lower-case stable keys used on spec axes, CLI flags and manifest rows.
// Rate policies already live behind string keys (rate::PolicyRegistry);
// only the timing-profile enum still needs a map here.

[[nodiscard]] mac::TimingProfile parse_timing(std::string_view key);  ///< throws
[[nodiscard]] std::vector<std::string> timing_keys();

}  // namespace wlan::exp
