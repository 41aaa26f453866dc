// Vicinity sniffer model (paper §4.2, §4.4).
//
// A passive RFMon radio pinned to one channel.  It misses frames for the
// paper's three reasons:
//   (1) bit errors  — drawn from the PHY error model at the sniffer's SINR,
//   (2) hardware overload — capture probability degrades once the incoming
//       frame rate exceeds the card's capacity (Yeo et al. effect),
//   (3) hidden terminals / range — senders below receive sensitivity.
//
// The capture is kept sorted by start time as it is recorded, which is the
// form trace::merge_sniffer_traces and the core analyzers read from real
// sniffers too.  A sniffer without a stream keeps its whole capture.  A
// streaming sniffer (stream_to) hands each record over once it is final,
// in capture order, and trace() holds only the unfinished tail.
#pragma once

#include <cstdint>
#include <optional>

#include "mac/frame.hpp"
#include "phy/error_model.hpp"
#include "phy/propagation.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

namespace wlan::trace {
class CaptureStream;
}

namespace wlan::sim {

struct SnifferConfig {
  phy::Position position;
  std::uint8_t channel = 1;
  /// Unset, Network::add_sniffer draws one from the network's stream; a
  /// sniffer built outside a network uses 7.
  std::optional<std::uint64_t> seed;
  /// Frames/second the capture hardware sustains without loss.
  double capacity_fps = 1500.0;
  /// Ceiling on the overload drop probability.
  double max_overload_drop = 0.35;
  /// Std-dev of the RFMon SNR measurement jitter (dB).
  double snr_jitter_db = 1.0;
  /// Offset of this sniffer's clock from true simulation time: recorded
  /// timestamps read frame_start + clock_offset_us.  The paper's sniffer
  /// clocks were unsynchronized; trace::merge recovers and removes this
  /// from beacon anchors before merging captures.
  std::int64_t clock_offset_us = 0;
};

struct SnifferStats {
  std::uint64_t offered = 0;         ///< frames on the air on our channel
  std::uint64_t captured = 0;
  std::uint64_t missed_range = 0;    ///< hidden / out of range
  std::uint64_t missed_error = 0;    ///< bit errors
  std::uint64_t missed_overload = 0; ///< hardware drop under load
};

class Sniffer {
 public:
  Sniffer(const SnifferConfig& config, std::uint8_t id);

  /// Called by the channel for every frame that finishes on the air.
  void observe(const mac::Frame& frame, Microseconds start, double sinr_db,
               bool in_range);

  [[nodiscard]] phy::Position position() const { return config_.position; }
  /// The channel the sniffer is pinned to (SnifferConfig::channel).
  [[nodiscard]] std::uint8_t channel() const { return config_.channel; }
  [[nodiscard]] std::uint8_t id() const { return id_; }
  [[nodiscard]] const SnifferStats& stats() const { return stats_; }

  /// The capture so far: records sorted by start time (stable, so frames
  /// that start together keep their end-of-air order), bounds set to the
  /// first and last record.  A streaming sniffer's holds only the records
  /// not yet handed over.
  [[nodiscard]] const trace::Trace& trace() const { return capture_; }

  /// Streams the capture into `stream` instead of keeping it.  Call before
  /// the first observe(); the stream must outlive the sniffer's use of it.
  void stream_to(trace::CaptureStream& stream) { stream_ = &stream; }
  [[nodiscard]] bool streams() const { return stream_ != nullptr; }
  /// Hands over, in capture order, every record that starts before
  /// `horizon` (true time; the clock offset is added here).  The caller
  /// promises that no frame still to be observed starts before `horizon`,
  /// so no later record can be inserted ahead of those handed over.
  void hand_over(Microseconds horizon);
  /// Hands over the rest of the capture and closes the stream (end of the
  /// run).  The sniffer then keeps its captures again.
  void close_stream();

  /// The sniffer's own frame-success memo, for cache-telemetry harvest.
  [[nodiscard]] const phy::FrameSuccessCache& frame_success_cache() const {
    return frame_success_;
  }

 private:
  SnifferConfig config_;
  std::uint8_t id_;
  util::Rng rng_;
  /// The channel's own start-small policy, 2^12 entries growing to at most
  /// 2^14: a sniffer in a conference-scale session sees the channel's
  /// entire (size, SINR) working set, which thrashes a fixed 4096-entry
  /// table.
  phy::FrameSuccessCache frame_success_{12, 14};
  trace::Trace capture_;
  trace::CaptureStream* stream_ = nullptr;
  SnifferStats stats_;
  std::int64_t current_second_ = -1;
  std::uint64_t frames_this_second_ = 0;
};

}  // namespace wlan::sim
