// Unrecorded-frame estimation (§4.4, Figure 4c).
//
// Sniffers miss frames (bit errors, hardware drops, hidden terminals); the
// paper estimates how many using the DCF atomicity rules:
//   DATA->ACK        : an ACK not preceded by its DATA implies a missed DATA
//   RTS->CTS         : a CTS not preceded by its RTS implies a missed RTS
//   RTS->CTS->DATA   : an RTS followed by its DATA without a CTS in between
//                      implies a missed CTS
// and reports Equation 1, unrecorded / (unrecorded + captured).
//
// The rules run in one pass with the rest of the analysis:
// StreamingAnalyzer feeds every record to an UnrecordedCounter and returns
// the totals in AnalysisResult::unrecorded, and ap_activity (per_ap.hpp)
// runs one to charge each inferred miss to an AP.
#pragma once

#include <cstdint>

#include "mac/frame.hpp"
#include "trace/record.hpp"
#include "util/flat_map.hpp"

namespace wlan::core {

struct UnrecordedTotals {
  std::uint64_t captured = 0;          ///< frames in the trace
  std::uint64_t missed_data = 0;
  std::uint64_t missed_rts = 0;
  std::uint64_t missed_cts = 0;

  [[nodiscard]] std::uint64_t missed() const {
    return missed_data + missed_rts + missed_cts;
  }
  /// Equation 1.
  [[nodiscard]] double unrecorded_pct() const {
    const double total = static_cast<double>(missed() + captured);
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(missed()) / total;
  }
};

/// The three atomicity rules, one record at a time.  Push a capture's
/// records in time order: each record is judged against the one before it,
/// and a DATA against its sender's pending RTS.
class UnrecordedCounter {
 public:
  /// Counts `r` and applies the rules to it.  Returns the transmitter of
  /// the frame `r` proves went unrecorded, or mac::kNoAddr if none.
  mac::Addr push(const trace::CaptureRecord& r);

  [[nodiscard]] const UnrecordedTotals& totals() const { return totals_; }

 private:
  /// The previous record's fields that the rules read.  Before the first
  /// record it reads as a beacon, which completes no exchange.
  struct Previous {
    mac::FrameType type = mac::FrameType::kBeacon;
    mac::Addr src = mac::kNoAddr;
    std::int64_t time_us = 0;
    std::uint32_t size_bytes = 0;
  };
  /// A recorded RTS awaiting its DATA (the missed-CTS rule).
  struct PendingRts {
    std::int64_t time_us;
    mac::Addr dst;
    bool cts_seen;
  };

  UnrecordedTotals totals_;
  Previous prev_;
  /// By RTS sender.  Broadcast is the table's reserved key, so an RTS
  /// claiming to come from it is not tracked.
  util::FlatMap<mac::Addr, PendingRts, mac::kBroadcast> pending_rts_;
};

struct UnrecordedReport {
  UnrecordedTotals totals;
};

/// Runs the estimator over a time-sorted trace.
[[nodiscard]] UnrecordedReport estimate_unrecorded(const trace::Trace& trace);

}  // namespace wlan::core
