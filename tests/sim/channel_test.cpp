// Channel-level behaviour, observed through the ground-truth log of small
// hand-built networks.
#include <gtest/gtest.h>

#include <algorithm>

#include "phy/airtime.hpp"
#include "sim/network.hpp"

namespace wlan::sim {
namespace {

NetworkConfig quiet_config(std::uint64_t seed = 5) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.channels = {6};
  cfg.propagation.shadowing_sigma_db = 0.0;  // deterministic links
  cfg.keep_ground_truth = true;
  return cfg;
}

Packet data_to(mac::Addr dst, std::uint32_t payload) {
  Packet p;
  p.dst = dst;
  p.payload = payload;
  p.bssid = dst;
  return p;
}

class SingleExchange : public ::testing::Test {
 protected:
  SingleExchange() : net_(quiet_config()) {
    ap_ = &net_.add_ap({5, 5, 0}, 6);
    StationConfig sc;
    sc.position = {10, 10, 0};
    sc.seed = 77;
    sta_ = &net_.add_station(6, sc);
  }
  Network net_;
  AccessPoint* ap_;
  Station* sta_;
};

TEST_F(SingleExchange, DataThenAckWithSifsGap) {
  sta_->enqueue(data_to(ap_->vap_addrs()[0], 1000));
  net_.run_for(msec(100));

  const auto& gt = net_.ground_truth();
  ASSERT_GE(gt.size(), 2u);
  const auto data_it =
      std::find_if(gt.begin(), gt.end(), [](const trace::TxRecord& r) {
        return r.type == mac::FrameType::kData;
      });
  ASSERT_NE(data_it, gt.end());
  const auto ack_it =
      std::find_if(data_it, gt.end(), [](const trace::TxRecord& r) {
        return r.type == mac::FrameType::kAck;
      });
  ASSERT_NE(ack_it, gt.end());

  // ACK starts exactly SIFS after the data frame ends.
  const auto airtime =
      phy::raw_airtime(data_it->size_bytes, data_it->rate).count();
  EXPECT_EQ(ack_it->time_us, data_it->time_us + airtime +
                                 net_.timing().sifs.count());
  EXPECT_EQ(ack_it->dst, sta_->addr());
  EXPECT_EQ(data_it->outcome, trace::TxOutcome::kDelivered);
  EXPECT_EQ(sta_->stats().delivered, 1u);
}

TEST_F(SingleExchange, FirstTransmissionWaitsAtLeastDifs) {
  sta_->enqueue(data_to(ap_->vap_addrs()[0], 200));
  net_.run_for(msec(100));
  const auto& gt = net_.ground_truth();
  const auto data_it =
      std::find_if(gt.begin(), gt.end(), [](const trace::TxRecord& r) {
        return r.type == mac::FrameType::kData;
      });
  ASSERT_NE(data_it, gt.end());
  EXPECT_GE(data_it->time_us, net_.timing().difs.count());
}

TEST_F(SingleExchange, SequentialPacketsDoNotOverlap) {
  for (int i = 0; i < 20; ++i) sta_->enqueue(data_to(ap_->vap_addrs()[0], 800));
  net_.run_for(msec(500));

  // No two consecutive transmissions may overlap in a collision-free run.
  const auto& gt = net_.ground_truth();
  ASSERT_GT(gt.size(), 20u);
  for (std::size_t i = 1; i < gt.size(); ++i) {
    const auto prev_end =
        gt[i - 1].time_us +
        phy::raw_airtime(gt[i - 1].size_bytes, gt[i - 1].rate).count();
    EXPECT_GE(gt[i].time_us, prev_end) << "overlap at record " << i;
  }
  EXPECT_EQ(sta_->stats().delivered, 20u);
  EXPECT_EQ(net_.channel(6).collisions(), 0u);
}

TEST_F(SingleExchange, ApAnswersOnVirtualApAlias) {
  // Data addressed to every VAP alias is received and ACKed by the AP.
  for (mac::Addr vap : ap_->vap_addrs()) {
    sta_->enqueue(data_to(vap, 300));
  }
  net_.run_for(msec(200));
  EXPECT_EQ(sta_->stats().delivered, ap_->vap_addrs().size());
}

TEST(ChannelContention, SaturatedStationsCollideOccasionally) {
  Network net(quiet_config(11));
  auto& ap = net.add_ap({15, 15, 0}, 6);
  std::vector<Station*> stas;
  for (int i = 0; i < 6; ++i) {
    StationConfig sc;
    sc.position = {10.0 + i, 10.0, 0};
    sc.seed = 100 + i;
    stas.push_back(&net.add_station(6, sc));
  }
  for (auto* s : stas) {
    for (int k = 0; k < 200; ++k) s->enqueue(data_to(ap.vap_addrs()[0], 700));
  }
  net.run_for(sec(5));
  // Saturated DCF with 6 stations must show some collisions, but the channel
  // must still deliver the large majority of transmissions.
  EXPECT_GT(net.channel(6).collisions(), 0u);
  EXPECT_LT(net.channel(6).collisions(), net.channel(6).transmissions() / 4);
  std::uint64_t delivered = 0;
  for (auto* s : stas) delivered += s->stats().delivered;
  EXPECT_GT(delivered, 300u);
}

TEST(ChannelContention, FarStationUndergoesChannelErrors) {
  NetworkConfig cfg = quiet_config(13);
  cfg.propagation.path_loss_exponent = 4.5;
  Network net(cfg);
  auto& ap = net.add_ap({0, 0, 0}, 6);
  StationConfig sc;
  sc.position = {70, 0, 0};  // deep fringe at exponent 4.5
  sc.seed = 9;
  sc.rate.policy = "fixed11";  // force a fragile rate
  auto& sta = net.add_station(6, sc);
  for (int k = 0; k < 50; ++k) sta.enqueue(data_to(ap.vap_addrs()[0], 1400));
  net.run_for(sec(5));
  EXPECT_GT(sta.stats().ack_timeouts, 0u);
  EXPECT_GT(sta.stats().tx_attempts, sta.stats().delivered);
}

TEST(ChannelContention, GroundTruthMarksCollisions) {
  Network net(quiet_config(17));
  auto& ap = net.add_ap({15, 15, 0}, 6);
  std::vector<Station*> stas;
  for (int i = 0; i < 8; ++i) {
    StationConfig sc;
    sc.position = {12.0 + i * 0.5, 12.0, 0};
    sc.seed = 200 + i;
    stas.push_back(&net.add_station(6, sc));
  }
  for (auto* s : stas) {
    for (int k = 0; k < 100; ++k) s->enqueue(data_to(ap.vap_addrs()[0], 900));
  }
  net.run_for(sec(4));
  const auto& gt = net.ground_truth();
  ASSERT_FALSE(gt.empty());
  const auto collided =
      std::count_if(gt.begin(), gt.end(), [](const trace::TxRecord& r) {
        return r.outcome == trace::TxOutcome::kCollision;
      });
  EXPECT_EQ(static_cast<std::uint64_t>(collided), net.channel(6).collisions());
}

TEST(ChannelContention, RetryFlagSetOnRetransmissions) {
  Network net(quiet_config(19));
  auto& ap = net.add_ap({15, 15, 0}, 6);
  std::vector<Station*> stas;
  for (int i = 0; i < 8; ++i) {
    StationConfig sc;
    sc.position = {12.0 + i * 0.5, 12.0, 0};
    sc.seed = 300 + i;
    stas.push_back(&net.add_station(6, sc));
  }
  for (auto* s : stas) {
    for (int k = 0; k < 100; ++k) s->enqueue(data_to(ap.vap_addrs()[0], 900));
  }
  net.run_for(sec(4));
  const auto& gt = net.ground_truth();
  ASSERT_FALSE(gt.empty());
  const bool any_retry =
      std::any_of(gt.begin(), gt.end(), [](const trace::TxRecord& r) {
        return r.type == mac::FrameType::kData && r.retry;
      });
  EXPECT_TRUE(any_retry);
}

}  // namespace
}  // namespace wlan::sim
