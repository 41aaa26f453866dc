#include "sim/access_point.hpp"

#include <algorithm>

namespace wlan::sim {

AccessPoint::AccessPoint(Channel& channel, mac::Addr radio_addr,
                         std::vector<mac::Addr> vap_addrs,
                         const StationConfig& config)
    : Station(channel, radio_addr, config), vaps_(std::move(vap_addrs)) {
  for (mac::Addr vap : vaps_) channel.add_alias(vap, this);
}

bool AccessPoint::owns_addr(mac::Addr a) const {
  if (a == addr()) return true;
  return std::find(vaps_.begin(), vaps_.end(), a) != vaps_.end();
}

mac::Addr AccessPoint::least_loaded_vap() const {
  mac::Addr best = vaps_.empty() ? addr() : vaps_.front();
  std::size_t best_load = association_count(best);
  for (mac::Addr vap : vaps_) {
    const std::size_t load = association_count(vap);
    if (load < best_load) {
      best = vap;
      best_load = load;
    }
  }
  return best;
}

void AccessPoint::deregister_client(mac::Addr client) {
  assoc_.erase(client);
  purge_peer(client);
}

std::size_t AccessPoint::association_count(mac::Addr vap) const {
  std::size_t n = 0;
  // wlan-lint: allow(unordered-iteration) — pure count; order-independent
  for (const auto& [sta, v] : assoc_) {
    if (v == vap) ++n;
  }
  return n;
}

void AccessPoint::start_beacons() {
  if (vaps_.empty()) return;
  beacon_tick();
}

void AccessPoint::beacon_tick() {
  if (!active()) return;
  // One VAP per tick, cycling, so the four BSSIDs stagger their beacons
  // across the 100 ms interval instead of bursting together.
  Packet beacon;
  beacon.dst = mac::kBroadcast;
  beacon.type = mac::FrameType::kBeacon;
  beacon.bssid = vaps_[beacon_cursor_];
  beacon_cursor_ = (beacon_cursor_ + 1) % vaps_.size();
  enqueue(beacon);

  const Microseconds step{channel().timing().beacon_interval.count() /
                          static_cast<std::int64_t>(vaps_.size())};
  channel().simulator().in(step, [this] { beacon_tick(); });
}

void AccessPoint::on_payload(const mac::Frame& f, double /*snr_db*/) {
  switch (f.type) {
    case mac::FrameType::kAssocReq: {
      // f.dst is the virtual AP the client chose; register and respond.
      assoc_[f.src] = f.dst;
      Packet resp;
      resp.dst = f.src;
      resp.type = mac::FrameType::kAssocResp;
      resp.bssid = f.dst;
      enqueue(resp);
      return;
    }
    case mac::FrameType::kDisassoc:
      assoc_.erase(f.src);
      forget_peer(f.src);
      return;
    default:  // uplink data terminates at the wired side
      return;
  }
}

}  // namespace wlan::sim
