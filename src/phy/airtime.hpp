// Physical-layer airtime of an 802.11b frame.
//
// Every 802.11b transmission starts with a PLCP preamble + header sent at
// 1 Mbps (192 us with the long preamble the paper assumes), followed by the
// MAC frame body at the selected rate.  The paper's Table 2 models the body
// as 8 * (34 + payload) / rate microseconds, where 34 bytes is the MAC
// header + FCS overhead; we use the same expression so simulator airtime and
// analyzer busy-time agree exactly.
#pragma once

#include <cstdint>

#include "phy/rate.hpp"
#include "util/time.hpp"

namespace wlan::phy {

/// Long-preamble PLCP duration (paper Table 2: D_PLCP = 192 us).
inline constexpr Microseconds kPlcpDuration{192};

/// MAC header + FCS bytes folded into the airtime formula (paper: 34).
inline constexpr std::uint32_t kMacOverheadBytes = 34;

/// Body time of `bytes` of MAC frame sent at `rate`: 8*bytes/rate, rounded
/// up to a whole microsecond.  Inline: the analyzer charges it once per
/// captured frame (core::DelayComponents' D_DATA).
[[nodiscard]] inline Microseconds body_airtime(std::uint64_t bytes, Rate rate) {
  const std::uint64_t kbps = rate_kbps(rate);
  return Microseconds{
      static_cast<std::int64_t>((bytes * 8 * 1000 + kbps - 1) / kbps)};
}

/// Airtime of a data frame whose MAC *payload* is `payload_bytes`, sent at
/// `rate`: PLCP + 8*(34+payload)/rate, rounded up to a whole microsecond.
Microseconds data_airtime(std::uint32_t payload_bytes, Rate rate);

/// Airtime of a raw MAC frame of `frame_bytes` total (header already
/// included), e.g. control frames: PLCP + 8*frame/rate, rounded up.
Microseconds raw_airtime(std::uint32_t frame_bytes, Rate rate);

}  // namespace wlan::phy
