// MAC fragmentation: SIFS-separated fragment bursts, per-fragment ACKs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "phy/airtime.hpp"
#include "phy/error_model.hpp"
#include "sim/network.hpp"

namespace wlan::sim {
namespace {

NetworkConfig quiet(std::uint64_t seed = 121) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.channels = {6};
  cfg.propagation.shadowing_sigma_db = 0.0;
  cfg.keep_ground_truth = true;
  return cfg;
}

struct Fixture {
  explicit Fixture(std::uint32_t threshold, std::uint64_t seed = 121)
      : net(quiet(seed)), ap(&net.add_ap({5, 5, 0}, 6)) {
    StationConfig sc;
    sc.position = {8, 8, 0};
    sc.seed = 7;
    sc.frag_threshold = threshold;
    sta = &net.add_station(6, sc);
  }
  void send(std::uint32_t payload) {
    Packet p;
    p.dst = ap->vap_addrs()[0];
    p.payload = payload;
    p.bssid = p.dst;
    sta->enqueue(p);
  }
  std::vector<trace::TxRecord> data_frames() const {
    std::vector<trace::TxRecord> out;
    for (const auto& r : net.ground_truth()) {
      if (r.type == mac::FrameType::kData) out.push_back(r);
    }
    return out;
  }
  Network net;
  AccessPoint* ap;
  Station* sta = nullptr;
};

TEST(FragmentationTest, DisabledByDefaultSendsWhole) {
  Fixture f(0);
  f.send(1400);
  f.net.run_for(msec(100));
  const auto frames = f.data_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].size_bytes, 1400u + phy::kMacOverheadBytes);
}

TEST(FragmentationTest, SplitsIntoThresholdSizedFragments) {
  Fixture f(500);
  f.send(1400);  // 500 + 500 + 400
  f.net.run_for(msec(100));
  const auto frames = f.data_frames();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].size_bytes, 500u + phy::kMacOverheadBytes);
  EXPECT_EQ(frames[1].size_bytes, 500u + phy::kMacOverheadBytes);
  EXPECT_EQ(frames[2].size_bytes, 400u + phy::kMacOverheadBytes);
  EXPECT_EQ(f.sta->stats().delivered, 1u);  // one MSDU
}

TEST(FragmentationTest, PayloadAtThresholdNotSplit) {
  Fixture f(500);
  f.send(500);
  f.net.run_for(msec(100));
  EXPECT_EQ(f.data_frames().size(), 1u);
}

TEST(FragmentationTest, EveryFragmentIndividuallyAcked) {
  Fixture f(500);
  f.send(1400);
  f.net.run_for(msec(100));
  const auto gt = f.net.ground_truth();
  ASSERT_FALSE(gt.empty());
  std::size_t acks = 0;
  for (const auto& r : gt) {
    if (r.type == mac::FrameType::kAck) ++acks;
  }
  EXPECT_EQ(acks, 3u);
}

TEST(FragmentationTest, BurstIsSifsAtomic) {
  Fixture f(500);
  f.send(1400);
  f.net.run_for(msec(100));
  // Fragment k+1 starts exactly SIFS after fragment k's ACK ends.
  std::vector<trace::TxRecord> seq;
  for (const auto& r : f.net.ground_truth()) {
    if (r.type == mac::FrameType::kData || r.type == mac::FrameType::kAck) {
      seq.push_back(r);
    }
  }
  ASSERT_EQ(seq.size(), 6u);  // D A D A D A
  for (std::size_t i = 2; i < seq.size(); i += 2) {
    const auto& prev_ack = seq[i - 1];
    const auto ack_end =
        prev_ack.time_us +
        phy::raw_airtime(prev_ack.size_bytes, prev_ack.rate).count();
    EXPECT_EQ(seq[i].time_us, ack_end + f.net.timing().sifs.count())
        << "fragment " << i / 2;
  }
}

TEST(FragmentationTest, FragmentsCarryDistinctSequenceNumbers) {
  Fixture f(500);
  f.send(1400);
  f.net.run_for(msec(100));
  const auto frames = f.data_frames();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_NE(frames[0].seq, frames[1].seq);
  EXPECT_NE(frames[1].seq, frames[2].seq);
}

TEST(FragmentationTest, MultipleMsdusFragmentIndependently) {
  Fixture f(600);
  f.send(1400);  // 3 fragments
  f.send(700);   // 2 fragments
  f.send(100);   // whole
  f.net.run_for(msec(200));
  EXPECT_EQ(f.data_frames().size(), 6u);
  EXPECT_EQ(f.sta->stats().delivered, 3u);
}

TEST(FragmentationTest, SmallFragmentsSurviveNoisyLinkBetter) {
  // The classic trade-off: on a marginal link the whole-frame sender loses
  // MSDUs that the fragmenting sender lands.  Place the station exactly at
  // the SNR where a 400 B fragment succeeds ~60% of the time at 11 Mbps —
  // there a 1400 B frame almost never survives.
  const double target_snr = phy::required_snr_db(phy::Rate::kR11, 434, 0.6);
  // rx(d) = 15 - (40 + 40 log10 d); SNR = rx + 96  =>  d from target.
  const double d = std::pow(10.0, (15.0 - 40.0 + 96.0 - target_snr) / 40.0);

  auto run = [&](std::uint32_t threshold) {
    NetworkConfig cfg = quiet(123);
    cfg.propagation.path_loss_exponent = 4.0;
    cfg.ap_power_offset_db = 10.0;  // keep the ACK path clean
    Network net(cfg);
    auto& ap = net.add_ap({10, 10, 0}, 6);
    StationConfig sc;
    sc.position = {10 + d, 10, 0};
    sc.seed = 5;
    sc.frag_threshold = threshold;
    sc.rate.policy = "fixed11";  // pin the fragile rate
    sc.queue_limit = 128;
    auto& sta = net.add_station(6, sc);
    for (int i = 0; i < 60; ++i) {
      Packet p;
      p.dst = ap.vap_addrs()[0];
      p.payload = 1400;
      p.bssid = p.dst;
      sta.enqueue(p);
    }
    net.run_for(sec(10));
    return sta.stats().delivered;
  };
  const auto whole = run(0);
  const auto fragmented = run(400);
  EXPECT_GT(fragmented, whole + 5);
}

}  // namespace
}  // namespace wlan::sim
