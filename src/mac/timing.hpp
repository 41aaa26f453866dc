// IEEE 802.11b DCF timing parameters.
//
// Two profiles:
//  * Paper    — the values of the paper's Table 2 (after Jun et al.),
//               including the 10 us slot and the 31..255 backoff ceiling the
//               paper quotes.  Used everywhere by default so reproduced
//               figures are computed exactly as the authors did.
//  * Standard — IEEE 802.11b-1999 values (20 us slot, CW 31..1023) for the
//               timing-profile ablation bench.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace wlan::mac {

/// The defaults are the paper's Table 2 values; core::DelayComponents reads
/// its spacings and control-frame durations from here.
struct Timing {
  Microseconds slot{10};
  Microseconds sifs{10};
  Microseconds difs{50};
  /// Control-frame total on-air durations as fixed by the paper's Table 2.
  Microseconds rts_duration{352};
  Microseconds cts_duration{304};
  Microseconds ack_duration{304};
  Microseconds beacon_duration{304};
  std::uint32_t cw_min = 31;   ///< initial contention window (slots)
  std::uint32_t cw_max = 255;  ///< backoff ceiling (slots)
  std::uint32_t short_retry_limit = 7;  ///< RTS / small-frame retries
  Microseconds beacon_interval{100'000};

  /// ACK timeout: SIFS + ACK airtime + propagation guard.
  [[nodiscard]] Microseconds ack_timeout() const {
    return sifs + ack_duration + Microseconds{25};
  }
  /// CTS timeout after an RTS.
  [[nodiscard]] Microseconds cts_timeout() const {
    return sifs + cts_duration + Microseconds{25};
  }
};

enum class TimingProfile { kPaper, kStandard };

[[nodiscard]] Timing timing_for(TimingProfile profile);

}  // namespace wlan::mac
