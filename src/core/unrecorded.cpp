#include "core/unrecorded.hpp"

#include "core/frame_classes.hpp"

namespace wlan::core {

namespace {

/// Max gap from a DATA's end to its ACK for the pair to count as atomic.
/// The DATA's end is bounded by its start plus 8 us per byte (1 Mbps).
constexpr std::int64_t kAckGapUs = 400;
/// Max gap from an RTS's start to its CTS's start.
constexpr std::int64_t kCtsGapUs = 400;
/// Max RTS -> DATA window for the missed-CTS rule.
constexpr std::int64_t kRtsDataWindowUs = 3000;

}  // namespace

mac::Addr UnrecordedCounter::push(const trace::CaptureRecord& r) {
  ++totals_.captured;
  const Previous prev = prev_;
  prev_ = Previous{r.type, r.src, r.time_us, r.size_bytes};

  switch (r.type) {
    case mac::FrameType::kAck:
      // DATA->ACK atomicity: the previous record must be the DATA this ACK
      // acknowledges (sent by the ACK's destination).
      if (is_data_like(prev.type) && prev.src == r.dst &&
          r.time_us - prev.time_us <= kAckGapUs + 8LL * prev.size_bytes) {
        return mac::kNoAddr;
      }
      ++totals_.missed_data;
      return r.dst;  // the DATA's sender
    case mac::FrameType::kCts: {
      // Mark any pending RTS from this exchange as answered.
      if (PendingRts* pending = pending_rts_.find(r.dst)) {
        pending->cts_seen = true;
      }
      // RTS->CTS atomicity: the previous record must be the matching RTS.
      if (prev.type == mac::FrameType::kRts && prev.src == r.dst &&
          r.time_us - prev.time_us <= kCtsGapUs) {
        return mac::kNoAddr;
      }
      ++totals_.missed_rts;
      return r.dst;  // the RTS's sender
    }
    case mac::FrameType::kRts:
      if (r.src != mac::kBroadcast) {
        pending_rts_.insert_or_assign(r.src,
                                      PendingRts{r.time_us, r.dst, false});
      }
      return mac::kNoAddr;
    default:
      break;
  }
  if (!is_data_like(r.type)) return mac::kNoAddr;

  // RTS->CTS->DATA atomicity: DATA following its sender's recorded RTS
  // without a CTS in between means the CTS went unrecorded.
  const PendingRts* pending = pending_rts_.find(r.src);
  if (pending == nullptr) return mac::kNoAddr;
  const bool cts_missed = pending->dst == r.dst &&
                          r.time_us - pending->time_us <= kRtsDataWindowUs &&
                          !pending->cts_seen;
  pending_rts_.erase(r.src);
  if (!cts_missed) return mac::kNoAddr;
  ++totals_.missed_cts;
  return r.dst;  // the CTS sender is the DATA's receiver
}

UnrecordedReport estimate_unrecorded(const trace::Trace& trace) {
  UnrecordedCounter counter;
  for (const trace::CaptureRecord& r : trace.records) counter.push(r);
  return {counter.totals()};
}

}  // namespace wlan::core
