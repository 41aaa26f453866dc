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
//      corrupted by sequence-number wrap or capture glitches.  Only a prefix
//      of each capture is read: input 0 up to its first repeated beacon key,
//      every other input up to its first record more than kMaxClockOffsetUs
//      (1 s, merge.cpp) past input 0's last anchor.  The estimator rewinds
//      what it read, so the merge then reads the same inputs from the top.
//   2. k-way merge — a heap over per-input cursors emits records in
//      corrected-time order (ties broken by input index, so the merge is
//      deterministic and independent of how captures are listed on disk).
//   3. Duplicate suppression — two sniffers on the same channel hear the
//      same frame once each.  A duplicate is a record with the same
//      (channel, type, src, dst, seq, retry) key within dup_window_us of an
//      already-emitted record.  ACK/CTS keys ignore src: real ACK/CTS frames
//      carry no transmitter address, so a pcap round-trip erases it and the
//      merge must behave identically on raw and pcap-loaded captures.  The
//      window is a ring of (key, time) entries in merge order plus an
//      open-addressing map from key to its latest time, so no record costs
//      an allocation.
//
// Everything streams: MergingReader pulls from TraceReaders, holds one
// record per input plus a sliding dedup window, and never materializes a
// capture — the memory bound is O(inputs + window), independent of size.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "trace/reader.hpp"
#include "trace/record.hpp"
#include "util/flat_map.hpp"

namespace wlan::trace {

/// MergingReader's one setting: the dedup window.
struct MergeOptions {
  /// Records with equal dedup keys closer than this (after clock
  /// correction) are one frame heard twice.  Must stay well below the
  /// minimum retry spacing (ACK timeout, ~300 us) and well above the
  /// residual clock error (a few us).
  std::int64_t dup_window_us = 100;
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

/// Estimates per-input clock offsets from shared beacons, keeping at most
/// 8192 anchors per input.  Reads input 0 up to its first repeated beacon
/// key (a sequence wrap); if that prefix holds no beacon, returns all-zero
/// offsets without reading any other input.  Reads input i >= 1 up to its
/// first record later than input 0's last anchor plus kMaxClockOffsetUs
/// (1 s), or until every anchor matched.  An input whose clock runs behind
/// input 0, or ahead by at most 1 s, is aligned from every anchor it shares;
/// one further ahead is aligned from the anchors it shows before that bound,
/// and keeps its raw clock (0 anchors) when the lead exceeds the anchor
/// prefix's span plus 1 s.  Before returning it rewinds what it read (input
/// 0 alone when that prefix holds no beacon, every input otherwise), so
/// each input's next record is its first again: the caller hands the same
/// readers straight to MergingReader.
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
  void remember(std::uint64_t key, std::int64_t time_us);

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

  // Sliding dedup window, pruned as the merged timeline advances so memory
  // stays O(window).  window_ is a power-of-two ring of (key, corrected
  // time) entries in insertion order, the oldest at window_head_; it doubles
  // only when the window holds more entries than it has slots.  last_emit_
  // maps each key in the window to its last emitted time.  Dedup keys use
  // only the low 56 bits, so the map's empty key (all ones) never occurs.
  struct WindowEntry {
    std::uint64_t key;
    std::int64_t time_us;
  };
  std::vector<WindowEntry> window_;
  std::size_t window_head_ = 0;
  std::size_t window_size_ = 0;
  util::FlatMap<std::uint64_t, std::int64_t, ~std::uint64_t{0}> last_emit_;
};

/// One-call in-memory convenience: estimates offsets, merges with the
/// default dedup window, and returns the corrected capture.  The merged
/// trace's start_us/end_us are the first and last surviving records (what a
/// streamed merge of the same captures observes).  Input traces must be
/// time-sorted.
struct MergeResult {
  Trace trace;
  ClockOffsets offsets;
  MergeStats stats;
};

[[nodiscard]] MergeResult merge_sniffer_traces(
    const std::vector<Trace>& traces);

}  // namespace wlan::trace
