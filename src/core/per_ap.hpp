// Per-AP activity ranking (Fig. 4a), per-AP unrecorded frames (Fig. 4c)
// and the associated-user time series (Fig. 4b), computed from a capture
// alone.
//
// Association is inferred the way the paper infers it (§5): a client is
// counted toward the AP whose BSSID its data frames carry, with beacons
// identifying which senders are APs in the first place.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/frame.hpp"
#include "trace/record.hpp"
#include "util/time.hpp"

namespace wlan::core {

struct ApActivity {
  mac::Addr bssid = mac::kNoAddr;
  std::uint64_t frames = 0;         ///< data + control + beacons attributed
  std::uint64_t data_frames = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t beacons = 0;
  /// Distinct client stations whose *latest* data-like frame carried this
  /// BSSID.  Under churn/roaming a client appears mid-capture and may hop
  /// APs; last-association-wins keeps each client counted exactly once,
  /// at the AP it ended up on.
  std::uint64_t clients = 0;
  /// Frames the §4.4 rules infer went unrecorded, charged to the AP their
  /// transmitter talked through when the miss was inferred.
  std::uint64_t missed = 0;

  /// Equation 1 for this AP (Fig. 4c).
  [[nodiscard]] double unrecorded_pct() const {
    const double total = static_cast<double>(missed + frames);
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(missed) / total;
  }
};

/// Frames sent/received and inferred missed per virtual AP, sorted
/// descending by frames — take the first 15 for the paper's "15 most active
/// APs".
[[nodiscard]] std::vector<ApActivity> ap_activity(const trace::Trace& trace);

struct UserCountConfig {
  /// Sampling window (paper: 30-second means).
  Microseconds window{30'000'000};
  /// A station with no frames for this long is presumed gone even without
  /// a captured Disassoc (sniffers miss some).
  Microseconds idle_timeout{90'000'000};
};

struct UserCountPoint {
  double time_s = 0.0;
  double users = 0.0;
};

/// Associated-user counts over time from AssocReq/Resp and Disassoc frames,
/// with activity-based expiry for missed departures.
[[nodiscard]] std::vector<UserCountPoint> user_count_series(
    const trace::Trace& trace, const UserCountConfig& cfg = {});

}  // namespace wlan::core
