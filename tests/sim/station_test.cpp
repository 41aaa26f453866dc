#include "sim/station.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/network.hpp"

namespace wlan::sim {
namespace {

NetworkConfig quiet_config(std::uint64_t seed = 21) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.channels = {1};
  cfg.propagation.shadowing_sigma_db = 0.0;
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

class StationFixture : public ::testing::Test {
 protected:
  StationFixture() : net_(quiet_config()) {
    ap_ = &net_.add_ap({5, 5, 0}, 1);
    StationConfig sc;
    sc.position = {8, 8, 0};
    sc.seed = 4;
    sc.queue_limit = 8;
    sta_ = &net_.add_station(1, sc);
  }
  Network net_;
  AccessPoint* ap_;
  Station* sta_;
};

TEST_F(StationFixture, QueueLimitTailDrops) {
  for (int i = 0; i < 20; ++i) sta_->enqueue(data_to(ap_->vap_addrs()[0], 100));
  EXPECT_EQ(sta_->stats().queue_drops, 12u);
  EXPECT_EQ(sta_->stats().enqueued, 8u);
}

TEST_F(StationFixture, CompletionCallbackFiresOnDelivery) {
  int completions = 0;
  bool last_ok = false;
  Packet p = data_to(ap_->vap_addrs()[0], 400);
  p.on_complete = [&](bool ok) {
    ++completions;
    last_ok = ok;
  };
  sta_->enqueue(p);
  net_.run_for(msec(100));
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(last_ok);
}

TEST_F(StationFixture, CompletionCallbackFiresOnQueueDrop) {
  for (int i = 0; i < 8; ++i) sta_->enqueue(data_to(ap_->vap_addrs()[0], 100));
  int failed = 0;
  Packet p = data_to(ap_->vap_addrs()[0], 100);
  p.on_complete = [&](bool ok) { failed += ok ? 0 : 1; };
  sta_->enqueue(p);  // queue full -> immediate failure callback
  EXPECT_EQ(failed, 1);
}

TEST_F(StationFixture, ShutdownFlushesQueueWithFailures) {
  int failures = 0;
  for (int i = 0; i < 4; ++i) {
    Packet p = data_to(ap_->vap_addrs()[0], 100);
    p.on_complete = [&](bool ok) { failures += ok ? 0 : 1; };
    sta_->enqueue(p);
  }
  sta_->shutdown();
  EXPECT_GE(failures, 3);  // head may already be in flight
  EXPECT_FALSE(sta_->active());
  EXPECT_EQ(sta_->queue_depth(), 0u);
}

TEST_F(StationFixture, ShutdownStationIgnoresNewPackets) {
  sta_->shutdown();
  sta_->enqueue(data_to(ap_->vap_addrs()[0], 100));
  net_.run_for(msec(50));
  EXPECT_EQ(sta_->stats().delivered, 0u);
  EXPECT_EQ(sta_->stats().enqueued, 0u);
}

TEST_F(StationFixture, SequenceNumbersAdvancePerMsdu) {
  for (int i = 0; i < 5; ++i) sta_->enqueue(data_to(ap_->vap_addrs()[0], 200));
  net_.run_for(msec(200));
  const auto& gt = net_.ground_truth();
  std::vector<std::uint16_t> seqs;
  for (const auto& r : gt) {
    if (r.type == mac::FrameType::kData && r.src == sta_->addr() && !r.retry) {
      seqs.push_back(r.seq);
    }
  }
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<std::uint16_t>(seqs[i - 1] + 1));
  }
}

TEST_F(StationFixture, BeaconsAreBroadcastAndUnacked) {
  ap_->start_beacons();
  net_.run_for(msec(350));
  const auto& gt = net_.ground_truth();
  const auto beacons =
      std::count_if(gt.begin(), gt.end(), [](const trace::TxRecord& r) {
        return r.type == mac::FrameType::kBeacon;
      });
  // 100 ms interval split over 4 VAPs -> one beacon per 25 ms.
  EXPECT_GE(beacons, 10);
  EXPECT_LE(beacons, 16);
  const auto acks =
      std::count_if(gt.begin(), gt.end(), [](const trace::TxRecord& r) {
        return r.type == mac::FrameType::kAck;
      });
  EXPECT_EQ(acks, 0);
}

class RtsFixture : public ::testing::Test {
 protected:
  RtsFixture() : net_(quiet_config(23)) {
    ap_ = &net_.add_ap({5, 5, 0}, 1);
    StationConfig sc;
    sc.position = {8, 8, 0};
    sc.seed = 4;
    sc.use_rtscts = true;
    sc.rts_threshold = 0;  // RTS for everything
    sta_ = &net_.add_station(1, sc);
  }
  Network net_;
  AccessPoint* ap_;
  Station* sta_;
};

TEST_F(RtsFixture, FullFourWayExchangeInOrder) {
  sta_->enqueue(data_to(ap_->vap_addrs()[0], 1200));
  net_.run_for(msec(100));

  const auto& gt = net_.ground_truth();
  std::vector<mac::FrameType> sequence;
  for (const auto& r : gt) {
    if (r.type == mac::FrameType::kBeacon) continue;
    sequence.push_back(r.type);
  }
  ASSERT_GE(sequence.size(), 4u);
  EXPECT_EQ(sequence[0], mac::FrameType::kRts);
  EXPECT_EQ(sequence[1], mac::FrameType::kCts);
  EXPECT_EQ(sequence[2], mac::FrameType::kData);
  EXPECT_EQ(sequence[3], mac::FrameType::kAck);
  EXPECT_EQ(sta_->stats().rts_sent, 1u);
  EXPECT_EQ(sta_->stats().delivered, 1u);
}

TEST_F(RtsFixture, CtsFollowsRtsAfterSifs) {
  sta_->enqueue(data_to(ap_->vap_addrs()[0], 1200));
  net_.run_for(msec(100));
  const auto& gt = net_.ground_truth();
  const auto rts = std::find_if(gt.begin(), gt.end(), [](const auto& r) {
    return r.type == mac::FrameType::kRts;
  });
  const auto cts = std::find_if(gt.begin(), gt.end(), [](const auto& r) {
    return r.type == mac::FrameType::kCts;
  });
  ASSERT_NE(rts, gt.end());
  ASSERT_NE(cts, gt.end());
  EXPECT_EQ(cts->time_us, rts->time_us + net_.timing().rts_duration.count() +
                              net_.timing().sifs.count());
}

TEST_F(RtsFixture, RtsThresholdSkipsSmallFrames) {
  // Raise the threshold: small frames go straight to DATA.
  StationConfig sc;
  sc.position = {9, 9, 0};
  sc.seed = 6;
  sc.use_rtscts = true;
  sc.rts_threshold = 1000;
  auto& small_sta = net_.add_station(1, sc);
  small_sta.enqueue(data_to(ap_->vap_addrs()[0], 100));   // below threshold
  net_.run_for(msec(50));
  EXPECT_EQ(small_sta.stats().rts_sent, 0u);
  EXPECT_EQ(small_sta.stats().delivered, 1u);
  small_sta.enqueue(data_to(ap_->vap_addrs()[0], 1200));  // above threshold
  net_.run_for(msec(50));
  EXPECT_EQ(small_sta.stats().rts_sent, 1u);
}

}  // namespace
}  // namespace wlan::sim
