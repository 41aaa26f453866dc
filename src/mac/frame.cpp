#include "mac/frame.hpp"

#include "phy/airtime.hpp"

namespace wlan::mac {

std::string_view frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kAck: return "ACK";
    case FrameType::kRts: return "RTS";
    case FrameType::kCts: return "CTS";
    case FrameType::kBeacon: return "BEACON";
    case FrameType::kAssocReq: return "ASSOC-REQ";
    case FrameType::kAssocResp: return "ASSOC-RESP";
    case FrameType::kDisassoc: return "DISASSOC";
  }
  return "?";
}

std::uint32_t Frame::size_bytes() const {
  switch (type) {
    case FrameType::kData: return payload + phy::kMacOverheadBytes;
    case FrameType::kAck: return kAckBytes;
    case FrameType::kCts: return kCtsBytes;
    case FrameType::kRts: return kRtsBytes;
    case FrameType::kBeacon: return kBeaconBytes;
    case FrameType::kAssocReq:
    case FrameType::kAssocResp:
    case FrameType::kDisassoc: return kAssocBytes;
  }
  return 0;
}

Microseconds Frame::airtime() const {
  return phy::raw_airtime(size_bytes(), rate);
}

Frame make_data(Addr src, Addr dst, Addr bssid, std::uint16_t seq,
                std::uint32_t payload, phy::Rate rate, std::uint8_t channel) {
  Frame f;
  f.type = FrameType::kData;
  f.src = src;
  f.dst = dst;
  f.bssid = bssid;
  f.seq = seq & kSeqMask;
  f.payload = payload;
  f.rate = rate;
  f.channel = channel;
  return f;
}

Frame make_ack(Addr src, Addr dst, std::uint8_t channel) {
  Frame f;
  f.type = FrameType::kAck;
  f.src = src;
  f.dst = dst;
  f.rate = phy::Rate::kR1;  // control responses at the basic rate
  f.channel = channel;
  return f;
}

Frame make_rts(Addr src, Addr dst, Addr bssid, std::uint8_t channel) {
  Frame f;
  f.type = FrameType::kRts;
  f.src = src;
  f.dst = dst;
  f.bssid = bssid;
  f.rate = phy::Rate::kR1;
  f.channel = channel;
  return f;
}

Frame make_cts(Addr src, Addr dst, std::uint8_t channel) {
  Frame f;
  f.type = FrameType::kCts;
  f.src = src;
  f.dst = dst;
  f.rate = phy::Rate::kR1;
  f.channel = channel;
  return f;
}

Frame make_beacon(Addr src, std::uint8_t channel, std::uint16_t seq) {
  Frame f;
  f.type = FrameType::kBeacon;
  f.src = src;
  f.dst = kBroadcast;
  f.bssid = src;
  f.seq = seq & kSeqMask;
  f.rate = phy::Rate::kR1;
  f.channel = channel;
  return f;
}

}  // namespace wlan::mac
