// Access point: a Station with virtual APs (BSSIDs), periodic beaconing and
// association bookkeeping.
//
// The IETF network's Airespace hardware exposed 4 virtual APs per physical
// radio (paper §4.1); we model one DCF radio carrying four BSSIDs.  Frames
// to/from an associated client carry the client's virtual-AP BSSID, so the
// per-AP activity ranking (Figure 4a) groups by virtual AP exactly as the
// paper's does.
#pragma once

#include <unordered_map>
#include <vector>

#include "sim/station.hpp"

namespace wlan::sim {

class AccessPoint : public Station {
 public:
  /// `vap_addrs` are pre-allocated BSSID addresses (typically 4).
  AccessPoint(Channel& channel, mac::Addr radio_addr,
              std::vector<mac::Addr> vap_addrs, const StationConfig& config);

  [[nodiscard]] const std::vector<mac::Addr>& vap_addrs() const { return vaps_; }

  /// Starts the staggered per-VAP beacon schedule.
  void start_beacons();

  /// BSSID with the fewest associated clients (client load balancing).
  [[nodiscard]] mac::Addr least_loaded_vap() const;

  /// Controller-plane removal of a client that left without a (received)
  /// Disassoc — the workload layer calls this when it tears a station down
  /// (roaming/churn), standing in for the enterprise controller's aging.
  /// Keeps assoc_ and the per-client rate state bounded by the concurrent
  /// client set.
  void deregister_client(mac::Addr client);

  [[nodiscard]] std::size_t association_count() const { return assoc_.size(); }
  [[nodiscard]] std::size_t association_count(mac::Addr vap) const;

 protected:
  void on_payload(const mac::Frame& frame, double snr_db) override;
  [[nodiscard]] bool owns_addr(mac::Addr a) const override;

 private:
  void beacon_tick();

  std::vector<mac::Addr> vaps_;
  std::unordered_map<mac::Addr, mac::Addr> assoc_;  ///< client -> vap
  std::size_t beacon_cursor_ = 0;
};

}  // namespace wlan::sim
