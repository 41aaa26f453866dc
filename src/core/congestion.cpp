#include "core/congestion.hpp"

#include <cmath>

namespace wlan::core {

std::string_view congestion_level_name(CongestionLevel level) {
  switch (level) {
    case CongestionLevel::kUncongested: return "uncongested";
    case CongestionLevel::kModerate: return "moderately congested";
    case CongestionLevel::kHigh: return "highly congested";
  }
  return "?";
}

CongestionLevel classify(double utilization_pct) {
  if (utilization_pct < kModerateFromPct) return CongestionLevel::kUncongested;
  if (utilization_pct <= kHighAbovePct) return CongestionLevel::kModerate;
  return CongestionLevel::kHigh;
}

double detect_saturation_knee(const UtilizationBinner& throughput) {
  constexpr int kHalfWindow = 2;  // the moving average spans p-2 .. p+2
  double best_util = kHighAbovePct;
  double best_value = -1.0;
  int populated = 0;
  for (int p = 30; p <= 100; ++p) {
    double sum = 0.0;
    int n = 0;
    for (int q = p - kHalfWindow; q <= p + kHalfWindow; ++q) {
      const double m = throughput.mean(q);
      if (std::isfinite(m)) {
        sum += m;
        ++n;
      }
    }
    if (n == 0) continue;
    ++populated;
    const double smoothed = sum / n;
    if (smoothed > best_value) {
      best_value = smoothed;
      best_util = p;
    }
  }
  if (populated < 10) return kHighAbovePct;
  return best_util;
}

CongestionBreakdown breakdown(const AnalysisResult& a) {
  CongestionBreakdown b;
  for (const SecondStats& s : a.seconds) {
    switch (classify(s.utilization())) {
      case CongestionLevel::kUncongested: ++b.uncongested; break;
      case CongestionLevel::kModerate: ++b.moderate; break;
      case CongestionLevel::kHigh: ++b.high; break;
    }
  }
  return b;
}

}  // namespace wlan::core
