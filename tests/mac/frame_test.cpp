#include "mac/frame.hpp"

#include <gtest/gtest.h>

#include "phy/airtime.hpp"

namespace wlan::mac {
namespace {

TEST(FrameTest, DataSizeIncludesMacOverhead) {
  const Frame f = make_data(1, 2, 3, 7, 1000, phy::Rate::kR11, 6);
  EXPECT_EQ(f.size_bytes(), 1000u + phy::kMacOverheadBytes);
}

TEST(FrameTest, ControlFrameSizes) {
  EXPECT_EQ(make_ack(1, 2, 6).size_bytes(), kAckBytes);
  EXPECT_EQ(make_cts(1, 2, 6).size_bytes(), kCtsBytes);
  EXPECT_EQ(make_rts(1, 2, 3, 6).size_bytes(), kRtsBytes);
  EXPECT_EQ(make_beacon(1, 6, 9).size_bytes(), kBeaconBytes);
}

TEST(FrameTest, FactoryFieldsPopulated) {
  const Frame f = make_data(10, 20, 30, 42, 512, phy::Rate::kR5_5, 11);
  EXPECT_EQ(f.type, FrameType::kData);
  EXPECT_EQ(f.src, 10);
  EXPECT_EQ(f.dst, 20);
  EXPECT_EQ(f.bssid, 30);
  EXPECT_EQ(f.seq, 42);
  EXPECT_EQ(f.payload, 512u);
  EXPECT_EQ(f.rate, phy::Rate::kR5_5);
  EXPECT_EQ(f.channel, 11);
  EXPECT_FALSE(f.retry);
}

TEST(FrameTest, ControlFramesUseBasicRate) {
  EXPECT_EQ(make_ack(1, 2, 6).rate, phy::Rate::kR1);
  EXPECT_EQ(make_cts(1, 2, 6).rate, phy::Rate::kR1);
  EXPECT_EQ(make_rts(1, 2, 3, 6).rate, phy::Rate::kR1);
  EXPECT_EQ(make_beacon(1, 6, 9).rate, phy::Rate::kR1);
}

TEST(FrameTest, BeaconIsBroadcastFromBssid) {
  const Frame b = make_beacon(77, 1, 9);
  EXPECT_EQ(b.dst, kBroadcast);
  EXPECT_EQ(b.src, 77);
  EXPECT_EQ(b.bssid, 77);
  EXPECT_EQ(b.type, FrameType::kBeacon);
}

TEST(FrameTest, AirtimeMatchesPhyFormula) {
  const Frame f = make_data(1, 2, 3, 1, 700, phy::Rate::kR2, 6);
  EXPECT_EQ(f.airtime(), phy::raw_airtime(f.size_bytes(), phy::Rate::kR2));
  // Table-2 correspondence for control frames.
  EXPECT_EQ(make_ack(1, 2, 6).airtime().count(), 304);
  EXPECT_EQ(make_rts(1, 2, 3, 6).airtime().count(), 352);
}

TEST(FrameTest, TypeNamesDistinct) {
  EXPECT_EQ(frame_type_name(FrameType::kData), "DATA");
  EXPECT_EQ(frame_type_name(FrameType::kAck), "ACK");
  EXPECT_EQ(frame_type_name(FrameType::kRts), "RTS");
  EXPECT_EQ(frame_type_name(FrameType::kCts), "CTS");
  EXPECT_EQ(frame_type_name(FrameType::kBeacon), "BEACON");
}

}  // namespace
}  // namespace wlan::mac
