#include "core/per_ap.hpp"

#include <gtest/gtest.h>

namespace wlan::core {
namespace {

trace::CaptureRecord rec(std::int64_t t, mac::FrameType type, mac::Addr src,
                         mac::Addr dst, mac::Addr bssid = mac::kNoAddr) {
  trace::CaptureRecord r;
  r.time_us = t;
  r.type = type;
  r.src = src;
  r.dst = dst;
  r.bssid = bssid;
  r.size_bytes = 500;
  return r;
}

trace::Trace as_trace(std::vector<trace::CaptureRecord> records,
                      std::int64_t end_us = 0) {
  trace::Trace t;
  t.records = std::move(records);
  if (!t.records.empty()) {
    t.start_us = 0;
    t.end_us = end_us ? end_us : t.records.back().time_us;
  }
  return t;
}

TEST(ApActivityTest, GroupsByBssid) {
  const auto aps = ap_activity(as_trace({
      rec(0, mac::FrameType::kData, 1, 100, 100),
      rec(10, mac::FrameType::kData, 100, 1, 100),
      rec(20, mac::FrameType::kData, 2, 200, 200),
  }));
  ASSERT_EQ(aps.size(), 2u);
  EXPECT_EQ(aps[0].bssid, 100);
  EXPECT_EQ(aps[0].frames, 2u);
  EXPECT_EQ(aps[1].bssid, 200);
}

TEST(ApActivityTest, ControlFramesAttributedViaAddresses) {
  const auto aps = ap_activity(as_trace({
      rec(0, mac::FrameType::kData, 1, 100, 100),  // learns 1 -> 100
      rec(10, mac::FrameType::kAck, 100, 1),       // dst=1: client of 100
      rec(20, mac::FrameType::kAck, 1, 100),       // dst=100: the AP itself
  }));
  ASSERT_EQ(aps.size(), 1u);
  EXPECT_EQ(aps[0].frames, 3u);
  EXPECT_EQ(aps[0].control_frames, 2u);
  EXPECT_EQ(aps[0].data_frames, 1u);
}

TEST(ApActivityTest, BeaconsCounted) {
  const auto aps = ap_activity(as_trace({
      rec(0, mac::FrameType::kBeacon, 100, mac::kBroadcast, 100),
      rec(10, mac::FrameType::kBeacon, 100, mac::kBroadcast, 100),
  }));
  ASSERT_EQ(aps.size(), 1u);
  EXPECT_EQ(aps[0].beacons, 2u);
}

TEST(ApActivityTest, SortedDescending) {
  std::vector<trace::CaptureRecord> records;
  for (int i = 0; i < 3; ++i) records.push_back(rec(i, mac::FrameType::kData, 1, 100, 100));
  for (int i = 0; i < 9; ++i) records.push_back(rec(100 + i, mac::FrameType::kData, 2, 200, 200));
  const auto aps = ap_activity(as_trace(std::move(records)));
  ASSERT_EQ(aps.size(), 2u);
  EXPECT_EQ(aps[0].bssid, 200);
  EXPECT_GE(aps[0].frames, aps[1].frames);
}

TEST(ApActivityTest, EmptyTrace) {
  EXPECT_TRUE(ap_activity(trace::Trace{}).empty());
}

TEST(ApActivityTest, RoamingClientCountsOnceAtItsLatestAp) {
  // A churn capture: client 1 appears mid-run on AP 100, roams to AP 200;
  // client 2 stays on 100.  Last association wins — nobody double-counts.
  const auto aps = ap_activity(as_trace({
      rec(0, mac::FrameType::kBeacon, 100, mac::kBroadcast, 100),
      rec(5, mac::FrameType::kBeacon, 200, mac::kBroadcast, 200),
      rec(10, mac::FrameType::kData, 2, 100, 100),
      rec(50'000, mac::FrameType::kData, 1, 100, 100),  // appears mid-run
      rec(90'000, mac::FrameType::kData, 1, 200, 200),  // roams to 200
  }));
  ASSERT_EQ(aps.size(), 2u);
  const auto& ap100 = aps[0].bssid == 100 ? aps[0] : aps[1];
  const auto& ap200 = aps[0].bssid == 200 ? aps[0] : aps[1];
  EXPECT_EQ(ap100.clients, 1u);  // client 2 only; client 1 moved on
  EXPECT_EQ(ap200.clients, 1u);  // client 1 ended here
}

TEST(ApActivityTest, MissAttributedToApOfSender) {
  // The orphan ACK is addressed to client 7, whose BSSID is learned from
  // the initial data frame; the miss lands on AP 100's tally.
  const auto aps = ap_activity(as_trace({
      rec(0, mac::FrameType::kData, 7, 100, 100),
      rec(600, mac::FrameType::kAck, 100, 7),
      rec(100'000, mac::FrameType::kAck, 100, 7),
  }));
  ASSERT_EQ(aps.size(), 1u);
  EXPECT_EQ(aps[0].bssid, 100);
  EXPECT_EQ(aps[0].missed, 1u);
  EXPECT_EQ(aps[0].frames, 3u);
  EXPECT_DOUBLE_EQ(aps[0].unrecorded_pct(), 25.0);  // Eq. 1: 1 / (1 + 3)
}

TEST(ApActivityTest, MissLandsOnTheApTheSenderWasOnThen) {
  // Client 1's DATA goes unrecorded (an ACK to it with no DATA before it)
  // while it is on AP 100, and again after it roams to AP 200.  Each miss
  // is charged when it is inferred, so each stays with the AP of its time,
  // unlike the client count, where the latest association wins.
  const auto aps = ap_activity(as_trace({
      rec(0, mac::FrameType::kBeacon, 100, mac::kBroadcast, 100),
      rec(5, mac::FrameType::kBeacon, 200, mac::kBroadcast, 200),
      rec(10, mac::FrameType::kData, 1, 100, 100),
      rec(40'000, mac::FrameType::kBeacon, 100, mac::kBroadcast, 100),
      rec(50'000, mac::FrameType::kAck, 100, 1),  // orphan, on AP 100
      rec(100'000, mac::FrameType::kData, 1, 200, 200),  // roams to 200
      rec(140'000, mac::FrameType::kBeacon, 200, mac::kBroadcast, 200),
      rec(150'000, mac::FrameType::kAck, 200, 1),  // orphan, on AP 200
  }));
  ASSERT_EQ(aps.size(), 2u);
  const auto& ap100 = aps[0].bssid == 100 ? aps[0] : aps[1];
  const auto& ap200 = aps[0].bssid == 200 ? aps[0] : aps[1];
  EXPECT_EQ(ap100.missed, 1u);
  EXPECT_EQ(ap200.missed, 1u);
  EXPECT_EQ(ap100.clients, 0u);
  EXPECT_EQ(ap200.clients, 1u);
}

TEST(UserCountTest, CountsActiveClients) {
  // Two clients active in the first window, one in the second.
  UserCountConfig cfg;
  cfg.window = Microseconds{1'000'000};
  cfg.idle_timeout = Microseconds{1'500'000};
  const auto series = user_count_series(
      as_trace(
          {
              rec(100, mac::FrameType::kData, 1, 100, 100),
              rec(200, mac::FrameType::kData, 2, 100, 100),
              rec(1'200'000, mac::FrameType::kData, 1, 100, 100),
              rec(3'500'000, mac::FrameType::kData, 1, 100, 100),
          },
          4'000'000),
      cfg);
  ASSERT_GE(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].users, 2.0);  // after first window
}

TEST(UserCountTest, DisassocRemovesClient) {
  UserCountConfig cfg;
  cfg.window = Microseconds{1'000'000};
  cfg.idle_timeout = Microseconds{60'000'000};
  const auto series = user_count_series(
      as_trace(
          {
              rec(100, mac::FrameType::kData, 1, 100, 100),
              rec(200, mac::FrameType::kData, 2, 100, 100),
              rec(500'000, mac::FrameType::kDisassoc, 2, 100, 100),
          },
          2'000'000),
      cfg);
  ASSERT_GE(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].users, 1.0);
}

TEST(UserCountTest, IdleTimeoutExpiresSilentClients) {
  UserCountConfig cfg;
  cfg.window = Microseconds{1'000'000};
  cfg.idle_timeout = Microseconds{2'000'000};
  const auto series = user_count_series(
      as_trace(
          {
              rec(100, mac::FrameType::kData, 1, 100, 100),
              rec(5'500'000, mac::FrameType::kData, 2, 100, 100),
          },
          6'000'000),
      cfg);
  // By the 5th window client 1 has been silent > 2 s and is gone.
  ASSERT_GE(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series[0].users, 1.0);
  EXPECT_DOUBLE_EQ(series[4].users, 0.0);
}

TEST(UserCountTest, ApsNeverCountedAsUsers) {
  UserCountConfig cfg;
  cfg.window = Microseconds{1'000'000};
  const auto series = user_count_series(
      as_trace(
          {
              rec(0, mac::FrameType::kBeacon, 100, mac::kBroadcast, 100),
              rec(100, mac::FrameType::kData, 100, 1, 100),  // downlink
          },
          2'000'000),
      cfg);
  for (const auto& p : series) EXPECT_DOUBLE_EQ(p.users, 0.0);
}

TEST(UserCountTest, EmptyTrace) {
  EXPECT_TRUE(user_count_series(trace::Trace{}).empty());
}

}  // namespace
}  // namespace wlan::core
