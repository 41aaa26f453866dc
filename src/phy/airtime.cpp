#include "phy/airtime.hpp"

namespace wlan::phy {

Microseconds data_airtime(std::uint32_t payload_bytes, Rate rate) {
  return kPlcpDuration + body_airtime(payload_bytes + kMacOverheadBytes, rate);
}

Microseconds raw_airtime(std::uint32_t frame_bytes, Rate rate) {
  return kPlcpDuration + body_airtime(frame_bytes, rate);
}

}  // namespace wlan::phy
