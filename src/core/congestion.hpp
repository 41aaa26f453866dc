// Congestion classification (§5.3): uncongested (<30%), moderately
// congested (30-84%), highly congested (>84%), plus the data-driven knee
// detector that recovers the 84% threshold from the throughput curve.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/analyzer.hpp"
#include "core/utilization.hpp"

namespace wlan::core {

enum class CongestionLevel : std::uint8_t {
  kUncongested = 0,
  kModerate = 1,
  kHigh = 2,
};

[[nodiscard]] std::string_view congestion_level_name(CongestionLevel level);

inline constexpr double kModerateFromPct = 30.0;  ///< below: uncongested
inline constexpr double kHighAbovePct = 84.0;     ///< above: highly congested

[[nodiscard]] CongestionLevel classify(double utilization_pct);

/// Finds the utilization percentage at which utilization-binned throughput
/// peaks — the paper's §5.2 method for picking the "highly congested"
/// boundary.  The curve is smoothed with a centered 5-point moving average
/// and searched over [30, 100]%.  Finds no knee (nullopt) when fewer than
/// 10 smoothed points hold data.
[[nodiscard]] std::optional<double> detect_saturation_knee(
    const UtilizationBinner& throughput);

/// Seconds spent in each congestion level (useful summary for reports).
struct CongestionBreakdown {
  std::uint64_t uncongested = 0;
  std::uint64_t moderate = 0;
  std::uint64_t high = 0;
};

[[nodiscard]] CongestionBreakdown breakdown(const AnalysisResult& a);

}  // namespace wlan::core
