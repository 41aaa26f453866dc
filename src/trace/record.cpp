#include "trace/record.hpp"

#include <algorithm>

namespace wlan::trace {

void sort_by_time(std::vector<CaptureRecord>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const CaptureRecord& a, const CaptureRecord& b) {
                     return a.time_us < b.time_us;
                   });
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
