// Multi-sniffer capture merge (paper §4.3).
//
// The paper's dataset came from three RFMon sniffers whose per-sniffer pcap
// captures were clock-corrected, deduplicated, and merged before any
// congestion analysis ran.  This module reproduces that pipeline:
//
//   1. Clock-offset estimation — beacon frames are the anchors: a beacon is
//      uniquely identified by (bssid, seq), every sniffer in range hears the
//      same transmission, so the per-anchor timestamp difference between a
//      sniffer and the reference sniffer (input 0) is that sniffer's clock
//      offset.  We take the median difference, which is robust to anchors
//      corrupted by sequence-number wrap or capture glitches.
//   2. k-way merge — a heap over per-input cursors emits records in
//      corrected-time order (ties broken by input index, so the merge is
//      deterministic and independent of how captures are listed on disk).
//   3. Duplicate suppression — two sniffers on the same channel hear the
//      same frame once each.  A duplicate is a record with the same
//      (channel, type, src, dst, seq, retry) key within dup_window_us of an
//      already-emitted record.  ACK/CTS keys ignore src: real ACK/CTS frames
//      carry no transmitter address, so a pcap round-trip erases it and the
//      merge must behave identically on raw and pcap-loaded captures.
//
// Everything streams: MergingReader pulls from TraceReaders, holds one
// record per input plus a sliding dedup window, and never materializes a
// capture — the memory bound is O(inputs + window), independent of size.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "trace/reader.hpp"
#include "trace/record.hpp"

namespace wlan::trace {

struct MergeOptions {
  /// Records with equal dedup keys closer than this (after clock
  /// correction) are one frame heard twice.  Must stay well below the
  /// minimum retry spacing (ACK timeout, ~300 us) and well above the
  /// residual clock error (a few us).
  std::int64_t dup_window_us = 100;
  /// Estimate and subtract per-sniffer clock offsets before merging.
  bool clock_correction = true;
};

/// Per-input clock offsets relative to input 0 (always 0 for input 0).
/// Subtracting offset_us[i] from input i's timestamps moves it onto the
/// reference clock.
struct ClockOffsets {
  std::vector<std::int64_t> offset_us;
  /// Matched beacon anchors backing each estimate (0 = no shared beacons;
  /// that input could not be aligned and keeps its raw clock).
  std::vector<std::size_t> anchors;
};

struct MergeStats {
  std::uint64_t records_in = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t emitted = 0;
};

/// Scans every reader to estimate per-input clock offsets from shared
/// beacons, keeping at most 8192 anchors per input.  Consumes the readers;
/// reset() them before reuse.
[[nodiscard]] ClockOffsets estimate_clock_offsets(
    const std::vector<TraceReader*>& inputs);

/// Streaming k-way merge with duplicate suppression.  Inputs must each be
/// time-sorted and outlive the reader; as in the analyzer, a record may
/// start up to kSortSlackUs (10 us) before the latest one of its input, and
/// worse disorder throws std::runtime_error.  Offsets come from
/// estimate_clock_offsets (or all-zero to merge raw clocks).
class MergingReader final : public TraceReader {
 public:
  MergingReader(std::vector<TraceReader*> inputs,
                std::vector<std::int64_t> offsets_us,
                const MergeOptions& options = {});

  bool next(CaptureRecord& out) override;
  void reset() override;

  [[nodiscard]] const MergeStats& stats() const { return stats_; }

 private:
  void prime();
  void advance(std::size_t input);

  struct HeapEntry {
    std::int64_t time_us;  ///< corrected
    std::size_t input;
    bool operator>(const HeapEntry& o) const {
      return time_us != o.time_us ? time_us > o.time_us : input > o.input;
    }
  };

  std::vector<TraceReader*> inputs_;
  std::vector<std::int64_t> offsets_us_;
  MergeOptions options_;
  std::vector<CaptureRecord> head_;        ///< current record per input
  std::vector<std::int64_t> latest_time_;  ///< per-input sortedness guard
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  bool primed_ = false;
  MergeStats stats_;

  // Sliding dedup window: key -> last emitted corrected time, pruned as the
  // merged timeline advances so memory stays O(window).
  std::unordered_map<std::uint64_t, std::int64_t> last_emit_;
  std::deque<std::pair<std::uint64_t, std::int64_t>> emit_order_;
};

/// One-call in-memory convenience: estimates offsets, merges, and returns
/// the corrected capture.  The merged trace's start_us/end_us are the first
/// and last surviving records (what a streamed merge of the same captures
/// observes).  Input traces must be time-sorted.
struct MergeResult {
  Trace trace;
  ClockOffsets offsets;
  MergeStats stats;
};

[[nodiscard]] MergeResult merge_sniffer_traces(const std::vector<Trace>& traces,
                                               const MergeOptions& options = {});

}  // namespace wlan::trace
