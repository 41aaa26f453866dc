#include "trace/reader.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "trace/pcap.hpp"
#include "trace/pcap_format.hpp"
#include "trace/trace_io.hpp"

namespace wlan::trace {

namespace {

using pcapfmt::get;

/// Decodes one captured packet (radiotap + 802.11 MAC header) into `r`.
/// False when the content is outside the subset we model — such packets are
/// skipped, since real captures carry frame types this library never reads.
bool parse_packet(const char* pkt, std::uint32_t incl, std::uint32_t orig,
                  CaptureRecord& r) {
  if (incl < 8) return false;  // radiotap header minimum
  const auto rt_len = get<std::uint16_t>(pkt + 2);
  const auto present = get<std::uint32_t>(pkt + 4);
  if (rt_len < 8 || rt_len > incl) return false;

  double signal = 0.0, noise = pcapfmt::kNoiseFloorDbm;
  // Walk the radiotap fields we understand (fixed order by bit number).  A
  // field the present word claims but rt_len cannot hold would be read from
  // the MAC header or past the packet: skip such a packet instead.
  std::size_t f = 8;
  const auto fits = [&](std::size_t bytes) { return f + bytes <= rt_len; };
  if (present & pcapfmt::kPresentRate) {
    if (!fits(1)) return false;
    const auto units = static_cast<std::uint8_t>(pkt[f]);
    f += 1;
    switch (units) {
      case 2: r.rate = phy::Rate::kR1; break;
      case 4: r.rate = phy::Rate::kR2; break;
      case 11: r.rate = phy::Rate::kR5_5; break;
      case 22: r.rate = phy::Rate::kR11; break;
      default: break;
    }
  }
  if (present & pcapfmt::kPresentChannel) {
    f = (f + 1) & ~std::size_t{1};  // align 2
    if (!fits(4)) return false;
    r.channel = pcapfmt::freq_channel(get<std::uint16_t>(pkt + f));
    f += 4;
  }
  if (present & pcapfmt::kPresentAntSignal) {
    if (!fits(1)) return false;
    signal = static_cast<std::int8_t>(pkt[f]);
    f += 1;
  }
  if (present & pcapfmt::kPresentAntNoise) {
    if (!fits(1)) return false;
    noise = static_cast<std::int8_t>(pkt[f]);
    f += 1;
  }
  r.snr_db = static_cast<float>(signal - noise);

  const char* m = pkt + rt_len;
  const std::size_t mac_len = incl - rt_len;
  if (mac_len < 10) return false;
  const auto fc = get<std::uint16_t>(m);
  if (!pcapfmt::decode_frame_control(fc, r.type)) return false;
  r.retry = (fc & 0x0800) != 0;
  if (pcapfmt::mac_header_len(r.type) > mac_len) return false;
  switch (r.type) {
    case mac::FrameType::kAck:
    case mac::FrameType::kCts:
      r.dst = pcapfmt::get_mac_addr(m + 4);
      break;
    case mac::FrameType::kRts:
      r.dst = pcapfmt::get_mac_addr(m + 4);
      r.src = pcapfmt::get_mac_addr(m + 10);
      break;
    default:
      r.dst = pcapfmt::get_mac_addr(m + 4);
      r.src = pcapfmt::get_mac_addr(m + 10);
      r.bssid = pcapfmt::get_mac_addr(m + 16);
      r.seq = static_cast<std::uint16_t>(get<std::uint16_t>(m + 22) >> 4);
      break;
  }
  r.size_bytes = orig > rt_len ? orig - rt_len : 0;
  return true;
}

}  // namespace

PcapReader::PcapReader(std::string path, std::size_t chunk_bytes)
    : path_(std::move(path)), chunk_bytes_(std::max<std::size_t>(chunk_bytes, 64)) {
  open_and_check_header();
}

void PcapReader::open_and_check_header() {
  in_.open(path_, std::ios::binary);
  if (!in_) throw std::runtime_error("read_pcap: cannot open " + path_);
  char header[24];
  in_.read(header, sizeof(header));
  if (in_.gcount() != sizeof(header)) {
    throw std::runtime_error("read_pcap: truncated header");
  }
  if (get<std::uint32_t>(header) != pcapfmt::kPcapMagic) {
    throw std::runtime_error("read_pcap: bad magic in " + path_);
  }
  if (get<std::uint32_t>(header + 20) != kPcapLinkType) {
    throw std::runtime_error("read_pcap: unsupported link type in " + path_);
  }
}

bool PcapReader::ensure(std::size_t n, const char* what) {
  if (end_ - begin_ >= n) return true;
  if (begin_ > 0) {  // compact the unparsed tail to the front
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (buf_.size() < std::max(n, chunk_bytes_)) {
    buf_.resize(std::max(n, chunk_bytes_));
  }
  while (!eof_ && end_ < n) {
    in_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    if (in_.eof()) {
      eof_ = true;
    } else if (!in_) {
      throw std::runtime_error("read_pcap: I/O error reading " + path_);
    }
  }
  if (end_ - begin_ >= n) return true;
  if (end_ == begin_) return false;  // clean EOF between packets
  throw std::runtime_error(std::string("read_pcap: ") + what + " in " + path_ +
                           " (" + std::to_string(end_ - begin_) + " of " +
                           std::to_string(n) + " bytes)");
}

bool PcapReader::next(CaptureRecord& out) {
  for (;;) {
    if (!ensure(16, "truncated packet header")) return false;
    const char* hdr = buf_.data() + begin_;
    const auto ts_sec = get<std::uint32_t>(hdr);
    const auto ts_usec = get<std::uint32_t>(hdr + 4);
    const auto incl = get<std::uint32_t>(hdr + 8);
    const auto orig = get<std::uint32_t>(hdr + 12);
    if (incl > kMaxPacketBytes || orig > kMaxPacketBytes) {
      throw std::runtime_error(
          "read_pcap: oversized packet length " +
          std::to_string(std::max(incl, orig)) + " in " + path_ +
          " (corrupt header? max " + std::to_string(kMaxPacketBytes) + ")");
    }
    if (!ensure(16 + incl, "truncated packet")) {
      // ensure() returning false means zero bytes buffered, impossible here:
      // the 16 header bytes are still pending.  Defensive.
      throw std::runtime_error("read_pcap: truncated packet in " + path_);
    }
    const char* pkt = buf_.data() + begin_ + 16;
    begin_ += 16 + incl;

    CaptureRecord r;
    r.time_us = static_cast<std::int64_t>(ts_sec) * 1000000 + ts_usec;
    if (parse_packet(pkt, incl, orig, r)) {
      out = r;
      return true;
    }
    // Unsupported content: skip and keep streaming.
  }
}

void PcapReader::reset() {
  in_.close();
  in_.clear();
  begin_ = end_ = 0;
  eof_ = false;
  open_and_check_header();
}

void CaptureStream::push(const CaptureRecord& r) {
  if (filling_.capacity() == 0) filling_.reserve(kBatchRecords);
  filling_.push_back(r);
  if (filling_.size() == kBatchRecords) publish();
}

void CaptureStream::publish() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!abandoned_) ready_.push_back(std::move(filling_));
  }
  filling_.clear();
  ready_cv_.notify_one();
}

void CaptureStream::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
    if (!abandoned_ && !filling_.empty()) ready_.push_back(std::move(filling_));
  }
  filling_ = {};
  ready_cv_.notify_one();
}

bool CaptureStream::next(CaptureRecord& out) {
  if (read_pos_ == reading_.size()) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [this] { return !ready_.empty() || closed_; });
    if (ready_.empty()) return false;
    reading_ = std::move(ready_.front());
    ready_.pop_front();
    read_pos_ = 0;
  }
  out = reading_[read_pos_++];
  return true;
}

void CaptureStream::reset() {
  throw std::logic_error("CaptureStream: a stream cannot rewind");
}

void CaptureStream::abandon() {
  const std::lock_guard<std::mutex> lock(mu_);
  abandoned_ = true;
  ready_.clear();
}

bool ReplayOnceReader::next(CaptureRecord& out) {
  if (rewound_ && replay_pos_ < recorded_.size()) {
    out = recorded_[replay_pos_++];
    if (replay_pos_ == recorded_.size()) recorded_ = {};  // replayed: free it
    return true;
  }
  if (!live_->next(out)) return false;
  if (!rewound_) recorded_.push_back(out);
  return true;
}

void ReplayOnceReader::reset() {
  if (rewound_) {
    throw std::logic_error("ReplayOnceReader: reset() twice");
  }
  rewound_ = true;
}

Trace read_capture(const std::string& path) {
  if (path.ends_with(".pcap")) return read_pcap(path);
  if (path.ends_with(".csv")) return read_csv(path);
  if (path.ends_with(".trace")) return read_binary(path);
  throw std::runtime_error("read_capture: unknown capture format " + path +
                           " (want .pcap, .csv or .trace)");
}

std::unique_ptr<TraceReader> open_capture(const std::string& path) {
  if (path.ends_with(".pcap")) return std::make_unique<PcapReader>(path);
  return std::make_unique<OwningReader>(read_capture(path));
}

Trace read_all(TraceReader& reader) {
  Trace trace;
  CaptureRecord r;
  while (reader.next(r)) trace.records.push_back(r);
  if (!trace.records.empty()) {
    trace.start_us = trace.records.front().time_us;
    trace.end_us = trace.records.back().time_us;
  }
  return trace;
}

}  // namespace wlan::trace
