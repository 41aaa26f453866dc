// Capture records — the unit of data the analysis layer consumes.
//
// A CaptureRecord is what an RFMon-mode sniffer reports per frame: receive
// timestamp, channel, rate, SNR, and the MAC header fields (paper §4.2: the
// sniffers captured RFMon + MAC + IP + TCP/UDP headers with a 250-byte snap
// length; we model the RFMon + MAC portion the analysis actually uses).
//
// A TxRecord is simulator ground truth (one per transmission *attempt*) that
// no real sniffer could produce; tests use it to validate the estimators.
// The simulator logs them only for a run that asks (tests opt in).
//
// Layer contract (trace): this layer is the boundary between producers
// (sim sniffers, pcap/CSV readers) and consumers (core analyzers).  Both
// sides speak time-sorted captures, and several captures become one only
// through merge.hpp, for simulated and real sniffers alike.  Neither side
// may depend on the other, which is what lets the core analyzers run on
// real captures.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/frame.hpp"
#include "phy/rate.hpp"
#include "util/time.hpp"

namespace wlan::trace {

/// Fields run from widest to narrowest, so the struct packs into 40 bytes
/// with no padding between fields.  The codecs read and write field by
/// field, so the order is not a file format.
struct CaptureRecord {
  std::int64_t time_us = 0;    ///< sniffer clock at frame start
  /// Simulator frame id (0 for real captures).  Lets tests join captures
  /// against ground truth; the analysis layer never reads it.
  std::uint64_t frame_id = 0;
  float snr_db = 0.0f;         ///< RFMon-reported SNR at the sniffer
  std::uint32_t size_bytes = 0;  ///< total MAC bytes on air
  mac::Addr src = mac::kNoAddr;
  mac::Addr dst = mac::kNoAddr;
  mac::Addr bssid = mac::kNoAddr;
  std::uint16_t seq = 0;
  std::uint8_t channel = 1;
  phy::Rate rate = phy::Rate::kR1;
  mac::FrameType type = mac::FrameType::kData;
  bool retry = false;
  std::uint8_t sniffer_id = 0;
};
static_assert(sizeof(CaptureRecord) == 40,
              "CaptureRecord packs into 40 bytes only with its widest "
              "fields first");

/// Outcome of one transmission attempt, from the simulator's omniscient view.
enum class TxOutcome : std::uint8_t {
  kDelivered = 0,   ///< receiver decoded it
  kCollision = 1,   ///< overlapped with another frame, not captured
  kChannelError = 2 ///< bit errors at the receiver
};

struct TxRecord {
  std::int64_t time_us = 0;
  std::uint64_t frame_id = 0;
  mac::FrameType type = mac::FrameType::kData;
  mac::Addr src = mac::kNoAddr;
  mac::Addr dst = mac::kNoAddr;
  std::uint8_t channel = 1;
  phy::Rate rate = phy::Rate::kR1;
  std::uint32_t size_bytes = 0;
  bool retry = false;
  std::uint16_t seq = 0;
  TxOutcome outcome = TxOutcome::kDelivered;
};

/// Within-capture sortedness tolerance, shared by the merge and the
/// analyzer: a record may start this much before the latest one of its
/// capture (sniffers log overlapping frames at frame end, so starts can
/// invert by a few us).
inline constexpr std::int64_t kSortSlackUs = 10;

/// The largest record time, either side of 0, a capture file may carry:
/// 2^53 us, about 285 years.  Such times are exact as doubles, and the
/// merge and the analyzer add and subtract them without overflowing int64.
/// A pcap's 32-bit seconds stay far below it.
inline constexpr std::int64_t kMaxRecordTimeUs = std::int64_t{1} << 53;

[[nodiscard]] constexpr bool valid_record_time(std::int64_t time_us) {
  return time_us >= -kMaxRecordTimeUs && time_us <= kMaxRecordTimeUs;
}

/// A full capture: records sorted by time plus capture metadata.
struct Trace {
  std::vector<CaptureRecord> records;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;

  /// Subtracts in double: a file's bounds are unchecked, and their int64
  /// difference can overflow.  Exact for bounds within kMaxRecordTimeUs.
  [[nodiscard]] double duration_seconds() const {
    return (static_cast<double>(end_us) - static_cast<double>(start_us)) / 1e6;
  }
};

/// Stable sort by timestamp, for real captures logged out of order (the
/// merge and the analyzers require time-sorted input).
void sort_by_time(std::vector<CaptureRecord>& records);

/// Builds a CaptureRecord from a frame as heard by a sniffer.
CaptureRecord record_from_frame(const mac::Frame& frame, Microseconds at,
                                float snr_db, std::uint8_t sniffer_id);

}  // namespace wlan::trace
