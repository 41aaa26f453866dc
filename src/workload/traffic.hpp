// Stochastic traffic profiles.
//
// The paper's frame-size taxonomy (§6): Small 0-400 B (voice/control),
// Medium 401-800 B, Large 801-1200 B, Extra-large >1200 B (bulk transfer,
// HTTP, video).  A profile mixes the four classes the way the paper's
// applications would, with on/off bursting and exponential interarrivals.
#pragma once

#include <array>
#include <cstdint>

#include "util/rng.hpp"

namespace wlan::workload {

/// Payload-size class boundaries (MAC payload bytes).
inline constexpr std::uint32_t kSmallMax = 400;
inline constexpr std::uint32_t kMediumMax = 800;
inline constexpr std::uint32_t kLargeMax = 1200;
inline constexpr std::uint32_t kXlMax = 1472;  ///< Ethernet MTU minus headers

struct TrafficProfile {
  double mean_pps = 6.0;          ///< packets/s per user while ON
  double uplink_fraction = 0.35;  ///< rest is downlink through the AP
  /// Relative weight of S / M / L / XL packet sizes.
  std::array<double, 4> size_weights{0.45, 0.15, 0.12, 0.28};
  /// Fraction of time the source is ON (1.0 = always on).
  double on_fraction = 0.55;
  double mean_on_seconds = 8.0;
  /// Closed-loop (TCP-like) clocking: each direction keeps at most `window`
  /// packets outstanding and sends the next one `~exp(1/rate)` after the
  /// previous completes.  Prevents the unbounded open-loop backlog a real
  /// transport's congestion control prevents.  on_fraction is ignored.
  bool closed_loop = false;
  std::uint32_t window = 1;
};

/// Conference-floor mix: interactive SSH/HTTP + some transfers (default).
[[nodiscard]] TrafficProfile conference_profile();

/// Draws a payload size according to the profile's class weights.
[[nodiscard]] std::uint32_t sample_payload(const TrafficProfile& profile,
                                           util::Rng& rng);

}  // namespace wlan::workload
