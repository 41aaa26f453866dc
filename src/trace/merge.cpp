#include "trace/merge.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace wlan::trace {

namespace {

/// Beacon anchor identity: (bssid, 12-bit seq).
constexpr std::uint32_t anchor_key(const CaptureRecord& r) {
  return (static_cast<std::uint32_t>(r.bssid) << 12) | (r.seq & 0xfffu);
}

/// Cross-sniffer duplicate identity.  ACK/CTS normalize src to kNoAddr:
/// the real frames carry no transmitter address, so raw sim captures and
/// pcap round-trips must dedup identically.  The fields fill bits 0-55, so
/// the key is never all ones (MergingReader's empty key).
std::uint64_t dedup_key(const CaptureRecord& r) {
  const bool no_src =
      r.type == mac::FrameType::kAck || r.type == mac::FrameType::kCts;
  const std::uint64_t src = no_src ? mac::kNoAddr : r.src;
  return (static_cast<std::uint64_t>(r.seq) & 0xfffu) |
         (static_cast<std::uint64_t>(r.dst) << 12) | (src << 28) |
         (static_cast<std::uint64_t>(r.retry) << 44) |
         (static_cast<std::uint64_t>(r.type) << 45) |
         (static_cast<std::uint64_t>(r.channel) << 48);
}

/// Beacon anchors retained per input during offset estimation (bounds the
/// estimator's memory on arbitrarily long captures).
constexpr std::size_t kMaxAnchors = 8192;

/// Largest clock lead over input 0 the estimator waits out: it stops
/// reading input i at its first record later than input 0's last anchor
/// plus this.  1 s is 44x the largest skew the simulator configures (15 x
/// 1.5 ms with 16 sniffers); NTP-synced sniffers sit within milliseconds.
constexpr std::int64_t kMaxClockOffsetUs = 1'000'000;

/// First size of MergingReader's dedup ring (a power of two).
constexpr std::size_t kInitialWindowSlots = 16;

}  // namespace

ClockOffsets estimate_clock_offsets(const std::vector<TraceReader*>& inputs) {
  ClockOffsets out;
  out.offset_us.assign(inputs.size(), 0);
  out.anchors.assign(inputs.size(), 0);
  if (inputs.size() < 2) return out;

  // Reference anchors: the longest prefix of input 0 in which every beacon
  // key occurs once.  The first repeated key marks a 12-bit sequence wrap;
  // collection stops there so that everything kept is a first occurrence —
  // on multi-hour captures (many wraps) the prefix still holds thousands
  // of valid anchors, and clock offsets are constant, so a prefix is all
  // the estimate needs.
  std::unordered_map<std::uint32_t, std::int64_t> ref;
  std::int64_t ref_last_us = std::numeric_limits<std::int64_t>::min();
  CaptureRecord r;
  while (inputs[0]->next(r)) {
    if (r.type != mac::FrameType::kBeacon) continue;
    if (!ref.emplace(anchor_key(r), r.time_us).second) break;
    ref_last_us = std::max(ref_last_us, r.time_us);
    if (ref.size() >= kMaxAnchors) break;
  }
  // Nothing to align against: rewind input 0, leave the others unread.
  if (ref.empty()) {
    inputs[0]->reset();
    return out;
  }

  // An input whose clock leads input 0's by at most kMaxClockOffsetUs has
  // shown every anchor it shares by this time, so reading on finds none.
  const std::int64_t horizon_us =
      std::min(ref_last_us,
               std::numeric_limits<std::int64_t>::max() - kMaxClockOffsetUs) +
      kMaxClockOffsetUs;

  for (std::size_t i = 1; i < inputs.size(); ++i) {
    std::vector<std::int64_t> deltas;
    std::unordered_set<std::uint32_t> seen;
    while (inputs[i]->next(r)) {
      if (r.time_us > horizon_us) break;
      if (r.type != mac::FrameType::kBeacon) continue;
      const std::uint32_t key = anchor_key(r);
      if (!seen.insert(key).second) continue;
      const auto it = ref.find(key);
      if (it == ref.end()) continue;
      deltas.push_back(r.time_us - it->second);
      // Every reference anchor matched (or the cap hit): no point scanning
      // the rest of a potentially huge capture.
      if (deltas.size() >= kMaxAnchors || deltas.size() >= ref.size()) break;
    }
    out.anchors[i] = deltas.size();
    if (!deltas.empty()) {
      // Upper median; exact when the true offset is constant, robust when a
      // minority of anchors are first-occurrence mismatches.
      const auto mid = deltas.begin() +
                       static_cast<std::ptrdiff_t>(deltas.size() / 2);
      std::nth_element(deltas.begin(), mid, deltas.end());
      out.offset_us[i] = *mid;
    }
  }
  for (TraceReader* in : inputs) in->reset();
  return out;
}

MergingReader::MergingReader(std::vector<TraceReader*> inputs,
                             std::vector<std::int64_t> offsets_us,
                             const MergeOptions& options)
    : inputs_(std::move(inputs)), offsets_us_(std::move(offsets_us)),
      options_(options), head_(inputs_.size()),
      latest_time_(inputs_.size(), std::numeric_limits<std::int64_t>::min()),
      window_(kInitialWindowSlots) {
  if (offsets_us_.size() != inputs_.size()) {
    throw std::invalid_argument(
        "MergingReader: one clock offset per input required");
  }
}

void MergingReader::advance(std::size_t input) {
  CaptureRecord r;
  if (!inputs_[input]->next(r)) return;
  r.time_us -= offsets_us_[input];
  if (r.time_us + kSortSlackUs < latest_time_[input]) {
    // A regression beyond capture jitter means the input is not the
    // time-sorted stream the k-way merge requires.
    throw std::runtime_error(
        "MergingReader: input " + std::to_string(input) +
        " is not time-sorted (" + std::to_string(r.time_us) + " after " +
        std::to_string(latest_time_[input]) + "); sort the capture first");
  }
  latest_time_[input] = std::max(latest_time_[input], r.time_us);
  head_[input] = r;
  heap_.push({r.time_us, input});
  ++stats_.records_in;
}

void MergingReader::prime() {
  for (std::size_t i = 0; i < inputs_.size(); ++i) advance(i);
}

bool MergingReader::next(CaptureRecord& out) {
  if (!primed_) {
    prime();
    primed_ = true;
  }
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    heap_.pop();
    const CaptureRecord r = head_[top.input];
    advance(top.input);

    // Slide the dedup window forward.
    while (window_size_ != 0 &&
           window_[window_head_].time_us + options_.dup_window_us <
               top.time_us) {
      const auto [key, when] = window_[window_head_];
      const std::int64_t* last = last_emit_.find(key);
      if (last != nullptr && *last == when) last_emit_.erase(key);
      window_head_ = (window_head_ + 1) & (window_.size() - 1);
      --window_size_;
    }

    const std::uint64_t key = dedup_key(r);
    std::int64_t* last = last_emit_.find(key);
    if (last != nullptr && top.time_us - *last <= options_.dup_window_us) {
      // Same frame heard by another sniffer: suppress, and slide the
      // window so a third sniffer's copy is suppressed too.
      *last = top.time_us;
      remember(key, top.time_us);
      ++stats_.duplicates_dropped;
      continue;
    }
    last_emit_.insert_or_assign(key, top.time_us);
    remember(key, top.time_us);
    ++stats_.emitted;
    out = r;
    return true;
  }
  return false;
}

void MergingReader::remember(std::uint64_t key, std::int64_t time_us) {
  if (window_size_ == window_.size()) {
    // Full: move the oldest entry to slot 0, then double the ring.
    std::rotate(window_.begin(),
                window_.begin() + static_cast<std::ptrdiff_t>(window_head_),
                window_.end());
    window_head_ = 0;
    window_.resize(window_.size() * 2);
  }
  const std::size_t mask = window_.size() - 1;
  window_[(window_head_ + window_size_) & mask] = {key, time_us};
  ++window_size_;
}

void MergingReader::reset() {
  for (TraceReader* in : inputs_) in->reset();
  head_.assign(inputs_.size(), CaptureRecord{});
  latest_time_.assign(inputs_.size(), std::numeric_limits<std::int64_t>::min());
  heap_ = {};
  primed_ = false;
  stats_ = {};
  window_head_ = 0;
  window_size_ = 0;
  last_emit_ = {};
}

MergeResult merge_sniffer_traces(const std::vector<Trace>& traces) {
  MergeResult result;
  std::vector<VectorReader> readers;
  readers.reserve(traces.size());
  for (const Trace& t : traces) readers.emplace_back(t);
  std::vector<TraceReader*> inputs;
  inputs.reserve(readers.size());
  for (VectorReader& r : readers) inputs.push_back(&r);

  result.offsets = estimate_clock_offsets(inputs);
  MergingReader merger(std::move(inputs), result.offsets.offset_us);
  result.trace = read_all(merger);
  result.stats = merger.stats();
  return result;
}

}  // namespace wlan::trace
