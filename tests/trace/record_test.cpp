#include "trace/record.hpp"

#include <gtest/gtest.h>

namespace wlan::trace {
namespace {

CaptureRecord rec(std::int64_t t, std::uint64_t frame_id, std::uint8_t sniffer) {
  CaptureRecord r;
  r.time_us = t;
  r.frame_id = frame_id;
  r.sniffer_id = sniffer;
  return r;
}

TEST(SortByTimeTest, SortsAndIsStable) {
  std::vector<CaptureRecord> v{rec(30, 1, 0), rec(10, 2, 0), rec(10, 3, 0),
                               rec(20, 4, 0)};
  sort_by_time(v);
  EXPECT_EQ(v[0].frame_id, 2u);
  EXPECT_EQ(v[1].frame_id, 3u);  // stable: original relative order kept
  EXPECT_EQ(v[2].frame_id, 4u);
  EXPECT_EQ(v[3].frame_id, 1u);
}

TEST(TraceTest, DurationSeconds) {
  Trace t;
  t.start_us = 1'000'000;
  t.end_us = 3'500'000;
  EXPECT_DOUBLE_EQ(t.duration_seconds(), 2.5);
}

TEST(RecordFromFrameTest, CopiesAllAnalyzedFields) {
  mac::Frame f = mac::make_data(7, 8, 9, 42, 512, phy::Rate::kR5_5, 11);
  f.id = 4242;
  f.retry = true;
  const CaptureRecord r = record_from_frame(f, Microseconds{999}, 18.5f, 2);
  EXPECT_EQ(r.time_us, 999);
  EXPECT_EQ(r.channel, 11);
  EXPECT_EQ(r.rate, phy::Rate::kR5_5);
  EXPECT_FLOAT_EQ(r.snr_db, 18.5f);
  EXPECT_EQ(r.type, mac::FrameType::kData);
  EXPECT_EQ(r.src, 7);
  EXPECT_EQ(r.dst, 8);
  EXPECT_EQ(r.bssid, 9);
  EXPECT_EQ(r.seq, 42);
  EXPECT_TRUE(r.retry);
  EXPECT_EQ(r.size_bytes, f.size_bytes());
  EXPECT_EQ(r.sniffer_id, 2);
  EXPECT_EQ(r.frame_id, 4242u);
}

}  // namespace
}  // namespace wlan::trace
