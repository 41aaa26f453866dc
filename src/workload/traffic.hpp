// Stochastic traffic profiles.
//
// The paper's frame-size taxonomy (§6): Small 0-400 B (voice/control),
// Medium 401-800 B, Large 801-1200 B, Extra-large >1200 B (bulk transfer,
// HTTP, video).  A profile mixes the four classes the way the paper's
// applications would, clocked off completions with exponential think times.
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

/// Conference-floor traffic, mostly TCP-borne (interactive SSH/HTTP plus
/// some transfers): sends are clocked off completions so offered load
/// adapts to channel state, as the IETF attendees' transports did.  Each
/// direction keeps at most `window` packets outstanding and sends the next
/// one `~exp(1/rate)` after the previous completes, which bounds the
/// backlog the way a real transport's congestion control does.
struct TrafficProfile {
  /// The `rate` above, per window slot, split between the directions by
  /// uplink_fraction; completions come later on a busy channel, so the
  /// achieved rate is lower.
  double mean_pps = 6.0;
  double uplink_fraction = 0.35;  ///< rest is downlink through the AP
  /// Relative weight of S / M / L / XL packet sizes.
  std::array<double, 4> size_weights{0.45, 0.15, 0.12, 0.28};
  std::uint32_t window = 1;  ///< packets outstanding per direction
};

/// Draws a payload size according to the profile's class weights.
[[nodiscard]] std::uint32_t sample_payload(const TrafficProfile& profile,
                                           util::Rng& rng);

}  // namespace wlan::workload
