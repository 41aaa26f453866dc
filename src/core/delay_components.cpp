#include "core/delay_components.hpp"

#include "mac/timing.hpp"
#include "phy/airtime.hpp"

namespace wlan::core {

DelayComponents DelayComponents::paper() {
  const mac::Timing t = mac::timing_for(mac::TimingProfile::kPaper);
  return {.difs = t.difs,
          .sifs = t.sifs,
          .rts = t.rts_duration,
          .cts = t.cts_duration,
          .ack = t.ack_duration,
          .beacon = t.beacon_duration,
          .bo = Microseconds{0},
          .plcp = phy::kPlcpDuration};
}

Microseconds DelayComponents::data_duration_payload(std::uint32_t payload_bytes,
                                                    phy::Rate rate) const {
  return plcp + phy::body_airtime(
                    std::uint64_t{payload_bytes} + phy::kMacOverheadBytes, rate);
}

Microseconds DelayComponents::data_duration_total(std::uint32_t total_bytes,
                                                  phy::Rate rate) const {
  return plcp + phy::body_airtime(total_bytes, rate);
}

Microseconds DelayComponents::cbt(const trace::CaptureRecord& r) const {
  switch (r.type) {
    case mac::FrameType::kRts:
      return rts;  // Eq. 3: the DIFS is charged to the data frame
    case mac::FrameType::kCts:
      return sifs + cts;  // Eq. 4
    case mac::FrameType::kAck:
      return sifs + ack;  // Eq. 5
    case mac::FrameType::kBeacon:
      return difs + beacon;  // Eq. 6
    case mac::FrameType::kData:
    case mac::FrameType::kAssocReq:
    case mac::FrameType::kAssocResp:
    case mac::FrameType::kDisassoc:
      // Eq. 2; management payloads ride the same DIFS + D_DATA sequence.
      return difs + bo + data_duration_total(r.size_bytes, r.rate);
  }
  return Microseconds{0};
}

}  // namespace wlan::core
