#include "mac/timing.hpp"

#include <gtest/gtest.h>

namespace wlan::mac {
namespace {

TEST(TimingTest, PaperProfileMatchesTable2) {
  const Timing t = timing_for(TimingProfile::kPaper);
  EXPECT_EQ(t.slot.count(), 10);   // "each slot time is equal to 10 us"
  EXPECT_EQ(t.sifs.count(), 10);
  EXPECT_EQ(t.difs.count(), 50);
  EXPECT_EQ(t.rts_duration.count(), 352);
  EXPECT_EQ(t.cts_duration.count(), 304);
  EXPECT_EQ(t.ack_duration.count(), 304);
  EXPECT_EQ(t.beacon_duration.count(), 304);
  EXPECT_EQ(t.cw_min, 31u);   // "MaxBO increases ... from 31
  EXPECT_EQ(t.cw_max, 255u);  //  to 255 slot times"
}

TEST(TimingTest, StandardProfileUses80211bValues) {
  const Timing t = timing_for(TimingProfile::kStandard);
  EXPECT_EQ(t.slot.count(), 20);
  EXPECT_EQ(t.cw_min, 31u);
  EXPECT_EQ(t.cw_max, 1023u);
  // IFS values are shared between the profiles.
  EXPECT_EQ(t.sifs.count(), 10);
  EXPECT_EQ(t.difs.count(), 50);
}

TEST(TimingTest, AckTimeoutCoversSifsPlusAck) {
  const Timing t = timing_for(TimingProfile::kPaper);
  EXPECT_GT(t.ack_timeout(), t.sifs + t.ack_duration);
  EXPECT_LT(t.ack_timeout(), t.sifs + t.ack_duration + Microseconds{100});
}

TEST(TimingTest, CtsTimeoutCoversSifsPlusCts) {
  const Timing t = timing_for(TimingProfile::kPaper);
  EXPECT_GT(t.cts_timeout(), t.sifs + t.cts_duration);
}

TEST(TimingTest, SifsShorterThanDifs) {
  // The inequality that makes ACK/CTS responses atomic under DCF.
  for (auto profile : {TimingProfile::kPaper, TimingProfile::kStandard}) {
    const Timing t = timing_for(profile);
    EXPECT_LT(t.sifs, t.difs);
  }
}

TEST(TimingTest, BeaconIntervalIs100ms) {
  EXPECT_EQ(timing_for(TimingProfile::kPaper).beacon_interval.count(), 100'000);
}

}  // namespace
}  // namespace wlan::mac
