// Transmit power control (paper §7) at the sim layer.
#include <gtest/gtest.h>

#include "phy/error_model.hpp"
#include "sim/network.hpp"
#include "workload/user.hpp"

namespace wlan::sim {
namespace {

NetworkConfig fringe_net(std::uint64_t seed = 71) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.channels = {6};
  cfg.propagation.path_loss_exponent = 4.0;
  cfg.propagation.shadowing_sigma_db = 0.0;
  return cfg;
}

Packet data_to(mac::Addr dst, std::uint32_t payload) {
  Packet p;
  p.dst = dst;
  p.payload = payload;
  p.bssid = dst;
  return p;
}

TEST(PowerControlTest, FringeStationDeadWithoutBoost) {
  Network net(fringe_net());
  auto& ap = net.add_ap({10, 10, 0}, 6);
  StationConfig sc;
  sc.position = {50, 50, 0};  // SNR ~1 dB uplink: below even 1 Mbps
  sc.seed = 3;
  auto& sta = net.add_station(6, sc);
  for (int i = 0; i < 30; ++i) sta.enqueue(data_to(ap.vap_addrs()[0], 1400));
  net.run_for(sec(5));
  EXPECT_EQ(sta.stats().delivered, 0u);
  EXPECT_GT(sta.stats().retry_drops, 0u);
}

TEST(PowerControlTest, BoostRestoresElevenMbps) {
  NetworkConfig cfg = fringe_net();
  cfg.keep_ground_truth = true;
  Network net(cfg);
  auto& ap = net.add_ap({10, 10, 0}, 6);
  StationConfig sc;
  sc.position = {50, 50, 0};
  sc.seed = 3;
  sc.tx_power_offset_db = 12.0;
  auto& sta = net.add_station(6, sc);
  for (int i = 0; i < 30; ++i) sta.enqueue(data_to(ap.vap_addrs()[0], 1400));
  net.run_for(sec(5));
  EXPECT_EQ(sta.stats().delivered, 30u);
  // ARF stays at 11 Mbps: every ground-truth data frame is fast.
  const auto gt = net.ground_truth();
  ASSERT_FALSE(gt.empty());
  for (const auto& r : gt) {
    if (r.type == mac::FrameType::kData) {
      EXPECT_EQ(r.rate, phy::Rate::kR11);
    }
  }
}

TEST(PowerControlTest, ApOffsetKeepsAckPathAlive) {
  // The boosted client's ACKs come back from the AP at the AP's offset;
  // with the default +5 dB AP power the return path at ~46 dB of path
  // difference still decodes a 1 Mbps ACK.
  NetworkConfig cfg = fringe_net();
  cfg.ap_power_offset_db = 5.0;
  Network net(cfg);
  auto& ap = net.add_ap({10, 10, 0}, 6);
  StationConfig sc;
  sc.position = {45, 45, 0};
  sc.seed = 4;
  sc.tx_power_offset_db = 10.0;
  auto& sta = net.add_station(6, sc);
  for (int i = 0; i < 20; ++i) sta.enqueue(data_to(ap.vap_addrs()[0], 800));
  net.run_for(sec(5));
  EXPECT_EQ(sta.stats().delivered, 20u);

  // Without the AP offset the same exchange starves on lost ACKs.
  NetworkConfig weak = fringe_net(72);
  weak.ap_power_offset_db = 0.0;
  weak.propagation.path_loss_exponent = 4.5;  // harsher return path
  Network net2(weak);
  auto& ap2 = net2.add_ap({10, 10, 0}, 6);
  StationConfig sc2;
  sc2.position = {48, 48, 0};
  sc2.seed = 4;
  sc2.tx_power_offset_db = 14.0;
  auto& sta2 = net2.add_station(6, sc2);
  for (int i = 0; i < 20; ++i) sta2.enqueue(data_to(ap2.vap_addrs()[0], 800));
  net2.run_for(sec(5));
  EXPECT_LT(sta2.stats().delivered, 20u);
}

TEST(PowerControlTest, RuntimeAdjustmentTakesEffect) {
  Network net(fringe_net(73));
  auto& ap = net.add_ap({10, 10, 0}, 6);
  StationConfig sc;
  sc.position = {50, 50, 0};
  sc.seed = 5;
  auto& sta = net.add_station(6, sc);
  for (int i = 0; i < 10; ++i) sta.enqueue(data_to(ap.vap_addrs()[0], 1000));
  net.run_for(sec(3));
  const auto before = sta.stats().delivered;
  EXPECT_EQ(before, 0u);
  sta.set_tx_power_offset_db(12.0);
  for (int i = 0; i < 10; ++i) sta.enqueue(data_to(ap.vap_addrs()[0], 1000));
  net.run_for(sec(3));
  EXPECT_EQ(sta.stats().delivered, 10u);
}

TEST(PowerControlTest, AutoPowerSessionBoostsOnlyWhenNeeded) {
  Network net(fringe_net(74));
  net.add_ap({10, 10, 0}, 6);

  workload::UserSpec near_spec;
  near_spec.position = {12, 12, 0};
  near_spec.auto_power_margin_db = 3.0;
  workload::UserSession near_user(net, near_spec, 11);

  workload::UserSpec far_spec = near_spec;
  far_spec.position = {45, 45, 0};
  workload::UserSession far_user(net, far_spec, 12);

  net.run_for(sec(2));
  ASSERT_NE(near_user.station(), nullptr);
  ASSERT_NE(far_user.station(), nullptr);
  EXPECT_DOUBLE_EQ(near_user.station()->tx_power_offset_db(), 0.0);
  EXPECT_GT(far_user.station()->tx_power_offset_db(), 3.0);
  EXPECT_LE(far_user.station()->tx_power_offset_db(),
            workload::kMaxPowerBoostDb);
}

}  // namespace
}  // namespace wlan::sim
