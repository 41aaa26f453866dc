#include "core/streaming.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace wlan::core {

namespace {

/// Keep finalized-second utilizations this far behind the finalization
/// front: acceptance samples can lag their second by at most the one-record
/// lookahead plus the ±10 us capture tolerance, so a margin of several
/// seconds is already far beyond any reachable lag.
constexpr std::size_t kUtilizationTail = 8;

/// Max gap between a DATA frame's end and its ACK for the pair to count as
/// an atomic exchange (SIFS + ACK duration + slack).
constexpr std::int64_t kAckMatchSlackUs = 150;
/// Acceptance-delay matching forgets a pending data frame after this long
/// (sequence numbers wrap; stale entries would fabricate huge delays).
constexpr std::int64_t kPendingExpiryUs = 2'000'000;

/// Key for the pending-acceptance map: sender address + sequence number.
constexpr std::uint32_t pending_key(mac::Addr src, std::uint16_t seq) {
  return (static_cast<std::uint32_t>(src) << 16) | seq;
}

/// Longest capture the analyzer accepts: 7 days.  Every second of the span
/// becomes one SecondStats (256 B), so a sink-less caller holds at most
/// about 155 MB; a conference week fits, and the paper's sessions last
/// hours.  A longer span is a timestamp jump or a runaway session bound.
constexpr std::int64_t kMaxCaptureSpanUs = 7LL * 86'400 * 1'000'000;

[[noreturn]] void span_error(const char* what, std::int64_t time_us,
                             std::int64_t start_us) {
  throw std::invalid_argument(
      std::string("StreamingAnalyzer: ") + what + " at " +
      std::to_string(time_us) + " us is more than " +
      std::to_string(kMaxCaptureSpanUs / 1'000'000) +
      " s (7 days) after the capture start at " + std::to_string(start_us) +
      " us");
}

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(AnalyzerConfig config, AnalysisSink* sink)
    : config_(config), sink_(sink != nullptr ? sink : this) {}

void StreamingAnalyzer::on_second(const SecondStats& s) {
  result_.seconds.push_back(s);
}

void StreamingAnalyzer::on_acceptance(const AcceptanceSample& sample,
                                      double /*utilization_pct*/) {
  result_.acceptance.push_back(sample);
}

void StreamingAnalyzer::set_bounds(std::int64_t start_us, std::int64_t end_us) {
  have_bounds_ = true;
  bound_start_us_ = start_us;
  bound_end_us_ = end_us;
}

SecondStats& StreamingAnalyzer::second_at(std::size_t sec_idx,
                                          std::int64_t now_us) {
  while (base_second_ + open_seconds_.size() <= sec_idx) {
    SecondStats s;
    s.second = static_cast<std::int64_t>(base_second_ + open_seconds_.size());
    open_seconds_.push_back(s);
    // Keep the deque O(1) across capture gaps: a multi-hour silence must
    // stream its empty seconds through the sink, not materialize them.
    emit_final_seconds(now_us);
  }
  return open_seconds_[sec_idx - base_second_];
}

void StreamingAnalyzer::emit_second(const SecondStats& s) {
  sink_->on_second(s);
  final_utilization_.emplace_back(s.second, s.utilization());
  while (final_utilization_.size() > 1 &&
         final_utilization_.front().first +
             static_cast<std::int64_t>(kUtilizationTail) <
             static_cast<std::int64_t>(base_second_)) {
    final_utilization_.pop_front();
  }
}

void StreamingAnalyzer::emit_final_seconds(std::int64_t now_us) {
  while (!open_seconds_.empty() &&
         start_us_ +
                 static_cast<std::int64_t>(base_second_ + 1) * 1'000'000 <=
             now_us - trace::kSortSlackUs) {
    emit_second(open_seconds_.front());
    open_seconds_.pop_front();
    ++base_second_;
  }
  flush_ready_acceptance();
}

void StreamingAnalyzer::flush_ready_acceptance() {
  while (!pending_acceptance_.empty() &&
         pending_acceptance_.front().second <
             static_cast<std::int64_t>(base_second_)) {
    const AcceptanceSample sample = pending_acceptance_.front();
    pending_acceptance_.pop_front();
    for (const auto& [second, utilization] : final_utilization_) {
      if (second == sample.second) {
        sink_->on_acceptance(sample, utilization);
        break;
      }
    }
  }
}

void StreamingAnalyzer::push(const trace::CaptureRecord& r) {
  if (!started_) {
    started_ = true;
    start_us_ = have_bounds_ && bound_start_us_ <= r.time_us ? bound_start_us_
                                                             : r.time_us;
    result_.start_us = start_us_;
    latest_time_ = start_us_;
    // Saturates instead of overflowing for a start near the int64 limit.
    span_end_us_ =
        start_us_ > std::numeric_limits<std::int64_t>::max() - kMaxCaptureSpanUs
            ? std::numeric_limits<std::int64_t>::max()
            : start_us_ + kMaxCaptureSpanUs;
    if (have_bounds_ && bound_end_us_ > span_end_us_) {
      span_error("session end bound", bound_end_us_, start_us_);
    }
  }
  // Also catches a start bound too far before the first record, because
  // that bound is the capture start.  Checked before the record is held,
  // so no second of the span is made.
  if (r.time_us > span_end_us_) span_error("record", r.time_us, start_us_);
  if (held_) {
    const trace::CaptureRecord prev = *held_;
    held_ = r;
    process(prev, &*held_);
  } else {
    held_ = r;
  }
}

AnalysisResult StreamingAnalyzer::finish() {
  if (held_) {
    const trace::CaptureRecord last = *held_;
    held_.reset();
    process(last, nullptr);
  }
  result_.unrecorded = unrecorded_.totals();
  if (!started_) return std::move(result_);

  const std::int64_t target_end =
      have_bounds_ && bound_end_us_ >= last_record_us_ ? bound_end_us_
                                                       : last_record_us_;
  const auto num_seconds =
      static_cast<std::size_t>((target_end - start_us_) / 1'000'000 + 1);
  while (!open_seconds_.empty()) {
    emit_second(open_seconds_.front());
    open_seconds_.pop_front();
    ++base_second_;
  }
  // Every sample's second is final now; flush before the padding below
  // can prune those seconds' utilizations out of the lookup tail.
  flush_ready_acceptance();
  // Session-bound padding streams straight through, never materialized.
  while (base_second_ < num_seconds) {
    SecondStats s;
    s.second = static_cast<std::int64_t>(base_second_);
    emit_second(s);
    ++base_second_;
  }
  return std::move(result_);
}

void StreamingAnalyzer::process(const trace::CaptureRecord& r,
                                const trace::CaptureRecord* next) {
  if (r.time_us + trace::kSortSlackUs < latest_time_) {
    throw std::invalid_argument(
        "TraceAnalyzer: records not time-sorted; merge traces first");
  }
  latest_time_ = std::max(latest_time_, r.time_us);
  last_record_us_ = r.time_us;
  unrecorded_.push(r);

  // Sweep expired pending-ACK entries (~once per capture second).  This is
  // behavior-neutral: an expired entry's next touch resets it regardless of
  // path taken below, so dropping it early changes no analysis output —
  // it only keeps the map O(in-flight exchanges) on unbounded captures.
  if (r.time_us - last_prune_us_ >= 1'000'000) {
    last_prune_us_ = r.time_us;
    std::erase_if(pending_, [&](const auto& kv) {
      return r.time_us - kv.second.first_tx_us > kPendingExpiryUs;
    });
  }

  const auto sec_idx =
      static_cast<std::size_t>((r.time_us - start_us_) / 1'000'000);
  SecondStats& s = second_at(sec_idx, r.time_us);

  // --- Busy time (Eqs. 2-7) and byte/bit volumes -----------------------
  const double cbt_us = static_cast<double>(config_.delays.cbt(r).count());
  s.cbt_us += cbt_us;
  s.cbt_us_by_rate[phy::rate_index(r.rate)] += cbt_us;
  s.bits_all += static_cast<std::uint64_t>(r.size_bytes) * 8;
  s.bytes_by_rate[phy::rate_index(r.rate)] += r.size_bytes;

  ++result_.total_frames;

  // --- Per-type bookkeeping --------------------------------------------
  switch (r.type) {
    case mac::FrameType::kRts: {
      ++s.rts;
      ++result_.total_rts;
      s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
      auto& sender = result_.senders[r.src];
      ++sender.rts_tx;
      sender.uses_rtscts = true;
      break;
    }
    case mac::FrameType::kCts:
      ++s.cts;
      ++result_.total_cts;
      s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
      break;
    case mac::FrameType::kAck:
      ++s.ack;
      ++result_.total_acks;
      s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
      break;
    case mac::FrameType::kBeacon:
      ++s.beacon;
      s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
      break;
    default:
      break;
  }

  if (r.type != mac::FrameType::kData) {
    if (is_data_like(r.type)) ++s.mgmt;
    emit_final_seconds(r.time_us);
    return;
  }

  ++s.data;
  ++result_.total_data;
  const SizeClass cls = size_class(r.size_bytes);
  ++s.tx_by_category[category_index(cls, r.rate)];
  if (r.retry) ++s.retries_by_rate[phy::rate_index(r.rate)];
  ++result_.senders[r.src].data_tx;

  // --- DATA->ACK atomicity: was this frame acknowledged? ---------------
  // The ACK must be the next capture, addressed to this frame's sender,
  // within SIFS + D_ACK + slack of the data frame's end.
  const std::int64_t data_end =
      r.time_us +
      config_.delays.data_duration_total(r.size_bytes, r.rate).count();
  bool acked = false;
  if (next != nullptr) {
    acked = next->type == mac::FrameType::kAck && next->dst == r.src &&
            next->time_us <= data_end + kAckMatchSlackUs;
  }

  const std::uint32_t key = pending_key(r.src, r.seq);
  const std::size_t cat = category_index(size_class(r.size_bytes), r.rate);
  auto it = pending_.find(key);
  if (it == pending_.end() || !r.retry) {
    // First attempt (or we never saw the first attempt: approximate with
    // this one, as the authors must have).
    it = pending_.insert_or_assign(key, Pending{r.time_us, cat}).first;
  } else if (r.time_us - it->second.first_tx_us > kPendingExpiryUs) {
    it->second = Pending{r.time_us, cat};  // stale (seq wrapped)
  }

  if (acked) {
    const trace::CaptureRecord& ack_rec = *next;
    s.bits_good += static_cast<std::uint64_t>(r.size_bytes) * 8;
    ++s.acked_by_rate[phy::rate_index(r.rate)];
    if (!r.retry) ++s.first_attempt_acked[phy::rate_index(r.rate)];
    ++result_.senders[r.src].data_acked;

    AcceptanceSample sample;
    sample.second = (ack_rec.time_us - start_us_) / 1'000'000;
    sample.category = cat;
    sample.delay_us =
        static_cast<double>(ack_rec.time_us - it->second.first_tx_us);
    pending_acceptance_.push_back(sample);
    pending_.erase(it);
  }
  emit_final_seconds(r.time_us);
}

}  // namespace wlan::core
