#include "sim/sniffer.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "phy/error_model.hpp"
#include "trace/reader.hpp"

namespace wlan::sim {

Sniffer::Sniffer(const SnifferConfig& config, std::uint8_t id)
    : config_(config), id_(id), rng_(config.seed.value_or(7) ^ (0x534EULL * (id + 1))) {}

void Sniffer::observe(const mac::Frame& frame, Microseconds start,
                      double sinr_db, bool in_range) {
  ++stats_.offered;

  if (!in_range) {
    ++stats_.missed_range;
    return;
  }

  // Bit-error loss at our SINR (collisions appear here too: overlapping
  // frames depress the SINR the channel hands us).
  const double p_ok =
      frame_success_(frame.rate, frame.size_bytes(), sinr_db);
  if (!rng_.chance(p_ok)) {
    ++stats_.missed_error;
    return;
  }

  // Hardware overload: drop probability ramps up as this second's frame
  // rate exceeds the card's capture capacity.
  const std::int64_t second = start.count() / 1'000'000;
  if (second != current_second_) {
    current_second_ = second;
    frames_this_second_ = 0;
  }
  ++frames_this_second_;
  const double over =
      (static_cast<double>(frames_this_second_) - config_.capacity_fps) /
      config_.capacity_fps;
  const double p_drop = std::clamp(over, 0.0, config_.max_overload_drop);
  if (rng_.chance(p_drop)) {
    ++stats_.missed_overload;
    return;
  }

  const double measured_snr =
      sinr_db + (config_.snr_jitter_db > 0
                     ? rng_.normal(0.0, config_.snr_jitter_db)
                     : 0.0);
  const trace::CaptureRecord r = trace::record_from_frame(
      frame, start + Microseconds{config_.clock_offset_us},
      static_cast<float>(measured_snr), id_);
  // Frames are observed at frame end but stamped with their start, so a
  // frame overlapping a longer one (capture effect, collisions) can start
  // before records already kept.  Insert it after every record that does
  // not start later: the capture stays stably sorted, usually at the cost
  // of one comparison.
  std::vector<trace::CaptureRecord>& records = capture_.records;
  auto pos = records.end();
  while (pos != records.begin() && std::prev(pos)->time_us > r.time_us) --pos;
  records.insert(pos, r);
  capture_.start_us = records.front().time_us;
  capture_.end_us = records.back().time_us;
  ++stats_.captured;
}

void Sniffer::hand_over(Microseconds horizon) {
  std::vector<trace::CaptureRecord>& records = capture_.records;
  const std::int64_t final_before = horizon.count() + config_.clock_offset_us;
  std::size_t n = 0;
  while (n < records.size() && records[n].time_us < final_before) {
    stream_->push(records[n++]);
  }
  records.erase(records.begin(),
                records.begin() + static_cast<std::ptrdiff_t>(n));
}

void Sniffer::close_stream() {
  for (const trace::CaptureRecord& r : capture_.records) stream_->push(r);
  capture_.records.clear();
  stream_->close();
  stream_ = nullptr;
}

}  // namespace wlan::sim
