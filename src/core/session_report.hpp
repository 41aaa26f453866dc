// One-call session report: everything the paper's §5-§6 reports about a
// capture, as a structured summary plus a human-readable rendering.
//
// This is the top of the core layer — it folds one capture's
// AnalysisResult (which carries the unrecorded-frame estimate) and the
// congestion classifier's verdict into a single struct, which is what
// example_trace_tool and the table benches print.
#pragma once

#include <string>

#include "core/analyzer.hpp"
#include "core/congestion.hpp"

namespace wlan::core {

struct SessionSummary {
  double duration_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t data = 0;
  std::uint64_t acks = 0;
  std::uint64_t rts = 0;
  std::uint64_t cts = 0;

  double mean_utilization_pct = 0.0;
  double max_utilization_pct = 0.0;
  double utilization_mode_pct = 0.0;  ///< Fig. 5c mode

  double mean_throughput_mbps = 0.0;
  double mean_goodput_mbps = 0.0;
  double peak_throughput_mbps = 0.0;
  double knee_utilization_pct = 0.0;  ///< §5.2 saturation knee

  CongestionBreakdown congestion;      ///< seconds per level
  CongestionLevel dominant_level = CongestionLevel::kUncongested;

  /// Mean seconds of airtime per second occupied by each rate (Fig. 8).
  std::array<double, phy::kNumRates> busy_share_s{};
  /// Mean bytes/s carried at each rate (Fig. 9).
  std::array<double, phy::kNumRates> bytes_per_s{};

  double unrecorded_pct = 0.0;  ///< §4.4 estimate
  double retry_fraction = 0.0;  ///< retransmitted / all data frames
};

/// Computes the summary from an analyzed capture.
[[nodiscard]] SessionSummary summarize(const AnalysisResult& analysis);

/// Multi-line human-readable rendering (used by trace_tool and examples).
[[nodiscard]] std::string render_summary(const SessionSummary& summary);

}  // namespace wlan::core
