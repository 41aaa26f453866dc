#include "trace/pcap.hpp"

#include <fstream>
#include <limits>
#include <stdexcept>

#include "trace/pcap_format.hpp"
#include "trace/reader.hpp"

namespace wlan::trace {

using pcapfmt::put;

namespace {

constexpr std::int64_t kMaxPcapSeconds =
    std::numeric_limits<std::uint32_t>::max();

[[noreturn]] void reject(const std::string& path, std::size_t record,
                         const std::string& what) {
  throw std::runtime_error("write_pcap: " + path + " record " +
                           std::to_string(record) + ": " + what);
}

}  // namespace

void write_pcap(const Trace& trace, const std::string& path) {
  std::string buf;
  buf.reserve(24 + trace.records.size() * 64);
  put<std::uint32_t>(buf, pcapfmt::kPcapMagic);
  put<std::uint16_t>(buf, 2);   // version major
  put<std::uint16_t>(buf, 4);   // version minor
  put<std::int32_t>(buf, 0);    // thiszone
  put<std::uint32_t>(buf, 0);   // sigfigs
  put<std::uint32_t>(buf, 65535);
  put<std::uint32_t>(buf, kPcapLinkType);

  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const CaptureRecord& r = trace.records[i];
    // pcap's seconds field is unsigned 32-bit: a negative stamp (e.g. a
    // sniffer clock offset pulling early frames below zero) or one past
    // 2^32 s would wrap and corrupt the capture's time order silently.
    if (r.time_us < 0 || r.time_us / 1000000 > kMaxPcapSeconds) {
      reject(path, i, "time_us " + std::to_string(r.time_us) +
             " does not fit pcap's unsigned 32-bit seconds");
    }
    // The radiotap signal byte is a signed dBm over the fixed noise floor;
    // converting a value outside int8 (or NaN) is undefined behaviour.
    const double signal_dbm = r.snr_db + pcapfmt::kNoiseFloorDbm;
    if (!(signal_dbm >= -128.0 && signal_dbm <= 127.0)) {
      reject(path, i, "snr_db " + std::to_string(r.snr_db) +
             " is outside the radiotap signal byte's [-32, 223] dB");
    }
    std::string pkt;
    // Radiotap header.
    pkt.push_back(0);  // version
    pkt.push_back(0);  // pad
    put<std::uint16_t>(pkt, pcapfmt::kRadiotapLen);
    put<std::uint32_t>(pkt, pcapfmt::kPresentRate | pcapfmt::kPresentChannel |
                                pcapfmt::kPresentAntSignal |
                                pcapfmt::kPresentAntNoise);
    pkt.push_back(static_cast<char>(phy::rate_kbps(r.rate) / 500));
    pkt.push_back(0);  // align channel field to 2 bytes
    put<std::uint16_t>(pkt, pcapfmt::channel_freq(r.channel));
    put<std::uint16_t>(pkt, 0x0080);  // 2 GHz spectrum flag
    pkt.push_back(static_cast<char>(static_cast<std::int8_t>(signal_dbm)));
    pkt.push_back(static_cast<char>(
        static_cast<std::int8_t>(pcapfmt::kNoiseFloorDbm)));

    // 802.11 MAC header.
    put<std::uint16_t>(pkt, pcapfmt::frame_control(r.type, r.retry));
    put<std::uint16_t>(pkt, 0);  // duration
    switch (r.type) {
      case mac::FrameType::kAck:
      case mac::FrameType::kCts:
        pcapfmt::put_mac_addr(pkt, r.dst);
        break;
      case mac::FrameType::kRts:
        pcapfmt::put_mac_addr(pkt, r.dst);
        pcapfmt::put_mac_addr(pkt, r.src);
        break;
      default:
        pcapfmt::put_mac_addr(pkt, r.dst);
        pcapfmt::put_mac_addr(pkt, r.src);
        pcapfmt::put_mac_addr(pkt, r.bssid);
        put<std::uint16_t>(pkt, static_cast<std::uint16_t>(r.seq << 4));
        break;
    }

    put<std::uint32_t>(buf, static_cast<std::uint32_t>(r.time_us / 1000000));
    put<std::uint32_t>(buf, static_cast<std::uint32_t>(r.time_us % 1000000));
    put<std::uint32_t>(buf, static_cast<std::uint32_t>(pkt.size()));
    put<std::uint32_t>(buf, pcapfmt::kRadiotapLen + r.size_bytes);
    buf += pkt;
  }

  // Opened only now, so a rejected record leaves no file behind.
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pcap: cannot open " + path);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("write_pcap: short write to " + path);
}

Trace read_pcap(const std::string& path) {
  PcapReader reader(path);
  return read_all(reader);
}

}  // namespace wlan::trace
