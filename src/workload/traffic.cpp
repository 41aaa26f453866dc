#include "workload/traffic.hpp"

namespace wlan::workload {

std::uint32_t sample_payload(const TrafficProfile& profile, util::Rng& rng) {
  double total = 0.0;
  for (double w : profile.size_weights) total += w;
  double pick = rng.uniform01() * total;
  std::size_t cls = 0;
  for (; cls < 3; ++cls) {
    if (pick < profile.size_weights[cls]) break;
    pick -= profile.size_weights[cls];
  }
  switch (cls) {
    case 0:  // Small: TCP acks, voice payloads — skew low.
      return static_cast<std::uint32_t>(rng.uniform_int(40, kSmallMax));
    case 1:
      return static_cast<std::uint32_t>(rng.uniform_int(kSmallMax + 1, kMediumMax));
    case 2:
      return static_cast<std::uint32_t>(rng.uniform_int(kMediumMax + 1, kLargeMax));
    default:  // XL: mostly full MTU segments.
      return rng.chance(0.7)
                 ? kXlMax
                 : static_cast<std::uint32_t>(rng.uniform_int(kLargeMax + 1, kXlMax));
  }
}

}  // namespace wlan::workload
