#include "trace/record.hpp"

#include <algorithm>
#include <map>

namespace wlan::trace {

void sort_by_time(std::vector<CaptureRecord>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const CaptureRecord& a, const CaptureRecord& b) {
                     return a.time_us < b.time_us;
                   });
}

std::vector<std::pair<std::uint8_t, Trace>> split_by_channel(const Trace& t) {
  std::map<std::uint8_t, Trace> by_channel;
  for (const auto& r : t.records) {
    Trace& channel_trace = by_channel[r.channel];
    channel_trace.records.push_back(r);
  }
  std::vector<std::pair<std::uint8_t, Trace>> out;
  out.reserve(by_channel.size());
  for (auto& [channel, channel_trace] : by_channel) {
    channel_trace.start_us = t.start_us;
    channel_trace.end_us = t.end_us;
    out.emplace_back(channel, std::move(channel_trace));
  }
  return out;
}

CaptureRecord record_from_frame(const mac::Frame& frame, Microseconds at,
                                float snr_db, std::uint8_t sniffer_id) {
  CaptureRecord r;
  r.time_us = at.count();
  r.channel = frame.channel;
  r.rate = frame.rate;
  r.snr_db = snr_db;
  r.type = frame.type;
  r.src = frame.src;
  r.dst = frame.dst;
  r.bssid = frame.bssid;
  r.seq = frame.seq;
  r.retry = frame.retry;
  r.size_bytes = frame.size_bytes();
  r.sniffer_id = sniffer_id;
  r.frame_id = frame.id;
  return r;
}

}  // namespace wlan::trace
