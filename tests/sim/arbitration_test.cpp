// DCF slot-arbitration details: tie collisions, backoff freezing across
// busy periods, and late-joiner handicaps.
#include <gtest/gtest.h>

#include <algorithm>

#include "phy/airtime.hpp"
#include "sim/network.hpp"

namespace wlan::sim {
namespace {

NetworkConfig quiet(std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.channels = {6};
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

TEST(ArbitrationTest, CollidingFramesStartSimultaneously) {
  // Our collision model is slot ties: every collision in the ground truth
  // must involve frames sharing a start microsecond.
  Network net(quiet(101));
  auto& ap = net.add_ap({15, 15, 0}, 6);
  std::vector<Station*> stas;
  for (int i = 0; i < 10; ++i) {
    StationConfig sc;
    sc.position = {12.0 + i * 0.3, 12.0, 0};
    sc.seed = 400 + i;
    stas.push_back(&net.add_station(6, sc));
  }
  for (auto* s : stas) {
    for (int k = 0; k < 60; ++k) s->enqueue(data_to(ap.vap_addrs()[0], 700));
  }
  net.run_for(sec(3));

  const auto& gt = net.ground_truth();
  std::size_t collided = 0, with_partner = 0;
  for (std::size_t i = 0; i < gt.size(); ++i) {
    if (gt[i].outcome != trace::TxOutcome::kCollision) continue;
    ++collided;
    for (std::size_t j = 0; j < gt.size(); ++j) {
      if (j != i && gt[j].time_us == gt[i].time_us) {
        ++with_partner;
        break;
      }
    }
  }
  ASSERT_GT(collided, 0u);
  EXPECT_EQ(with_partner, collided);
}

TEST(ArbitrationTest, TransmissionsNeverStartInsideForeignFrames) {
  // Physical carrier sense: apart from same-instant ties and SIFS-atomic
  // responses, no transmission may begin strictly inside another frame.
  Network net(quiet(103));
  auto& ap = net.add_ap({15, 15, 0}, 6);
  std::vector<Station*> stas;
  for (int i = 0; i < 6; ++i) {
    StationConfig sc;
    sc.position = {12.0 + i, 12.0, 0};
    sc.seed = 500 + i;
    stas.push_back(&net.add_station(6, sc));
  }
  for (auto* s : stas) {
    for (int k = 0; k < 50; ++k) s->enqueue(data_to(ap.vap_addrs()[0], 1000));
  }
  net.run_for(sec(3));

  const auto& gt = net.ground_truth();
  ASSERT_FALSE(gt.empty());
  for (std::size_t i = 0; i < gt.size(); ++i) {
    const auto end_i =
        gt[i].time_us + phy::raw_airtime(gt[i].size_bytes, gt[i].rate).count();
    for (std::size_t j = i + 1; j < gt.size(); ++j) {
      if (gt[j].time_us >= end_i) break;  // sorted by start
      // Overlap: must be a same-slot tie (identical start).
      EXPECT_EQ(gt[j].time_us, gt[i].time_us)
          << "frame " << j << " started inside frame " << i;
    }
  }
}

TEST(ArbitrationTest, LateJoinerCannotJumpTheQueue) {
  // A station that starts contending during an idle period must still wait
  // at least DIFS from its request, never transmitting instantly.
  Network net(quiet(105));
  auto& ap = net.add_ap({15, 15, 0}, 6);
  StationConfig sc;
  sc.position = {12, 12, 0};
  sc.seed = 9;
  auto& sta = net.add_station(6, sc);

  net.run_for(msec(7));  // idle period elapses first
  const auto request_time = net.simulator().now();
  sta.enqueue(data_to(ap.vap_addrs()[0], 400));
  net.run_for(msec(50));

  const auto& gt = net.ground_truth();
  const auto it = std::find_if(gt.begin(), gt.end(), [&](const auto& r) {
    return r.type == mac::FrameType::kData;
  });
  ASSERT_NE(it, gt.end());
  EXPECT_GE(it->time_us, request_time.count() + net.timing().difs.count());
}

TEST(ArbitrationTest, FrozenBackoffResumesNotRestarts) {
  // Two stations: A transmits a long frame; B, already counting down, must
  // resume (not redraw) afterwards — statistically, B's access delay after
  // the busy period is bounded by CWmin slots, not stretched by redraws.
  Network net(quiet(107));
  auto& ap = net.add_ap({15, 15, 0}, 6);
  StationConfig sca;
  sca.position = {12, 12, 0};
  sca.seed = 1;
  auto& a = net.add_station(6, sca);
  StationConfig scb;
  scb.position = {13, 12, 0};
  scb.seed = 2;
  auto& b = net.add_station(6, scb);

  // Saturate both; with paper CW (31) and resume semantics both stations
  // alternate with gaps of at most DIFS + 31 slots + exchange time.
  for (int k = 0; k < 100; ++k) {
    a.enqueue(data_to(ap.vap_addrs()[0], 1400));
    b.enqueue(data_to(ap.vap_addrs()[0], 1400));
  }
  net.run_for(sec(3));
  EXPECT_GT(a.stats().delivered, 50u);
  EXPECT_GT(b.stats().delivered, 50u);
  // Fair alternation: neither starves.
  const double ratio = static_cast<double>(a.stats().delivered) /
                       static_cast<double>(b.stats().delivered);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.7);
}

TEST(ArbitrationTest, MediumUtilizedEfficientlyUnderSaturation) {
  // One saturated station: per-exchange overhead is DIFS + mean backoff +
  // DATA + SIFS + ACK; the medium must not sit idle beyond that.
  Network net(quiet(109));
  auto& ap = net.add_ap({12, 12, 0}, 6);
  StationConfig sc;
  sc.position = {10, 10, 0};
  sc.seed = 3;
  sc.queue_limit = 2000;
  auto& sta = net.add_station(6, sc);
  for (int k = 0; k < 1500; ++k) sta.enqueue(data_to(ap.vap_addrs()[0], 1400));
  net.run_for(sec(2));
  // Exchange ~ 50 + 155 + 1236 + 10 + 304 = 1.76 ms -> >1000 in 2 s; allow
  // slack for beacons.
  EXPECT_GT(sta.stats().delivered, 900u);
}

}  // namespace
}  // namespace wlan::sim
