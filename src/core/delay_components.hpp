// Paper Table 2 + Equations 2-6: the channel busy-time (CBT) a sniffed
// frame accounts for, including the unshared inter-frame spacings.
//
// These are the *analysis-side* constants: the paper computes utilization
// from captured traces using exactly these values (after Jun et al.), with
// the saturated-network assumption D_BO = 0.
#pragma once

#include <cstdint>

#include "phy/rate.hpp"
#include "trace/record.hpp"
#include "util/time.hpp"

namespace wlan::core {

struct DelayComponents {
  Microseconds difs;
  Microseconds sifs;
  Microseconds rts;     ///< D_RTS, PLCP included
  Microseconds cts;     ///< D_CTS
  Microseconds ack;     ///< D_ACK
  Microseconds beacon;  ///< D_BEACON
  Microseconds bo;      ///< D_BO — zero in a saturated network
  Microseconds plcp;    ///< D_PLCP

  /// Table 2: the spacings and control-frame durations of the paper's MAC
  /// timing profile (mac::timing_for), the long-preamble D_PLCP
  /// (phy::kPlcpDuration) and D_BO = 0.
  [[nodiscard]] static DelayComponents paper();

  /// D_DATA(size)(rate) = D_PLCP + 8 * (34 + payload) / rate  [us].
  /// `payload_bytes` excludes the 34-byte MAC overhead.
  [[nodiscard]] Microseconds data_duration_payload(std::uint32_t payload_bytes,
                                                   phy::Rate rate) const;

  /// Same, but from the total on-air MAC size a sniffer reports
  /// (header already included): D_PLCP + 8 * total / rate.
  [[nodiscard]] Microseconds data_duration_total(std::uint32_t total_bytes,
                                                 phy::Rate rate) const;

  /// Equations 2-6: per-frame channel busy-time by frame type.
  [[nodiscard]] Microseconds cbt(const trace::CaptureRecord& record) const;
};

}  // namespace wlan::core
