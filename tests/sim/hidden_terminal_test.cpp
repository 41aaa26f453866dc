// Hidden terminals via sensing domains: stations whose sense masks do not
// intersect cannot defer to each other, so their uplink frames overlap at
// the shared AP and collide far more often than in a single carrier-sense
// domain.  Same traffic, same seeds — only the masks differ.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/network.hpp"

namespace wlan::sim {
namespace {

Packet data_to(mac::Addr dst, std::uint32_t payload) {
  Packet p;
  p.dst = dst;
  p.payload = payload;
  p.bssid = dst;
  return p;
}

struct RunStats {
  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;
  std::uint64_t acks = 0;
};

// Two saturated uplink stations on one AP; the masks decide who hears whom.
RunStats run_with_masks(std::uint32_t east_mask, std::uint32_t west_mask,
                        phy::Position west_pos = {0, 0, 0}) {
  NetworkConfig cfg;
  cfg.seed = 5;
  cfg.channels = {6};
  cfg.propagation.shadowing_sigma_db = 0.0;  // deterministic links
  cfg.keep_ground_truth = true;
  Network net(cfg);
  // The AP senses both wings, so its ACKs freeze everyone.
  AccessPoint& ap = net.add_ap({5, 5, 0}, 6, 4, east_mask | west_mask);
  StationConfig east;
  east.position = {10, 10, 0};
  east.seed = 77;
  east.sense_mask = east_mask;
  StationConfig west;
  west.position = west_pos;
  west.seed = 78;
  west.sense_mask = west_mask;
  Station& sta_east = net.add_station(6, east);
  Station& sta_west = net.add_station(6, west);

  const mac::Addr dst = ap.vap_addrs()[0];
  for (int i = 0; i < 400; ++i) {
    sta_east.enqueue(data_to(dst, 1000));
    sta_west.enqueue(data_to(dst, 1000));
  }
  net.run_for(msec(2000));

  RunStats stats;
  stats.transmissions = net.channel(6).transmissions();
  stats.collisions = net.channel(6).collisions();
  const std::vector<trace::TxRecord> gt = net.ground_truth();
  EXPECT_FALSE(gt.empty());
  stats.acks = static_cast<std::uint64_t>(std::count_if(
      gt.begin(), gt.end(),
      [](const trace::TxRecord& r) { return r.type == mac::FrameType::kAck; }));
  return stats;
}

TEST(HiddenTerminalTest, DisjointMasksCollideMoreThanSharedDomain) {
  const RunStats shared = run_with_masks(1, 1);
  const RunStats hidden = run_with_masks(0b01, 0b10);
  // Both runs move real traffic...
  EXPECT_GT(shared.transmissions, 100u);
  EXPECT_GT(hidden.transmissions, 100u);
  // ...but only the hidden pair overlaps persistently: backoff cannot help
  // when neither side hears the other start.
  EXPECT_GT(hidden.collisions, 2 * (shared.collisions + 1));
}

TEST(HiddenTerminalTest, CaptureRescuesTheNearHiddenStation) {
  // Equidistant hidden stations starve each other completely (no capture,
  // every overlap kills both frames)...
  const RunStats symmetric = run_with_masks(0b01, 0b10);
  EXPECT_EQ(symmetric.acks, 0u);
  // ...but a station much closer to the AP wins the SINR race: overlaps
  // still happen, yet its frames decode and get acked.
  const RunStats near_west = run_with_masks(0b01, 0b10, {4, 4, 0});
  EXPECT_GT(near_west.acks, 20u);
  EXPECT_GT(near_west.collisions, 0u);
}

TEST(HiddenTerminalTest, SharedDomainDeliversMostFrames) {
  // Regression for the default topology: with everyone in one sensing
  // domain the medium arbitrates, so nearly every data frame is acked
  // (residual collisions come only from same-slot backoff draws).
  const RunStats shared = run_with_masks(1, 1);
  EXPECT_GT(shared.acks, 100u);
  EXPECT_LT(shared.collisions, shared.transmissions / 10);
}

}  // namespace
}  // namespace wlan::sim
