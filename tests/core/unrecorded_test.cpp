#include "core/unrecorded.hpp"

#include <gtest/gtest.h>

namespace wlan::core {
namespace {

constexpr mac::Addr kAp = 100;   // appears as BSSID
constexpr mac::Addr kSta = 7;

trace::CaptureRecord rec(std::int64_t t, mac::FrameType type, mac::Addr src,
                         mac::Addr dst, mac::Addr bssid = mac::kNoAddr) {
  trace::CaptureRecord r;
  r.time_us = t;
  r.type = type;
  r.src = src;
  r.dst = dst;
  r.bssid = bssid;
  r.size_bytes = type == mac::FrameType::kData ? 534 : 14;
  r.rate = phy::Rate::kR11;
  return r;
}

trace::Trace as_trace(std::vector<trace::CaptureRecord> records) {
  trace::Trace t;
  t.records = std::move(records);
  if (!t.records.empty()) {
    t.start_us = t.records.front().time_us;
    t.end_us = t.records.back().time_us;
  }
  return t;
}

TEST(UnrecordedTest, CompleteExchangeHasNoMisses) {
  const auto report = estimate_unrecorded(as_trace({
      rec(0, mac::FrameType::kData, kSta, kAp, kAp),
      rec(600, mac::FrameType::kAck, kAp, kSta),
  }));
  EXPECT_EQ(report.totals.missed(), 0u);
  EXPECT_DOUBLE_EQ(report.totals.unrecorded_pct(), 0.0);
}

TEST(UnrecordedTest, OrphanAckImpliesMissedData) {
  const auto report = estimate_unrecorded(as_trace({
      rec(0, mac::FrameType::kData, kSta, kAp, kAp),  // establishes BSSID
      rec(600, mac::FrameType::kAck, kAp, kSta),
      rec(100'000, mac::FrameType::kAck, kAp, kSta),  // no DATA before it
  }));
  EXPECT_EQ(report.totals.missed_data, 1u);
}

TEST(UnrecordedTest, AckAfterWrongSenderCountsAsMiss) {
  const auto report = estimate_unrecorded(as_trace({
      rec(0, mac::FrameType::kData, 9, kAp, kAp),
      rec(600, mac::FrameType::kAck, kAp, kSta),  // acknowledges kSta, not 9
  }));
  EXPECT_EQ(report.totals.missed_data, 1u);
}

TEST(UnrecordedTest, OrphanCtsImpliesMissedRts) {
  const auto report = estimate_unrecorded(as_trace({
      rec(0, mac::FrameType::kCts, kAp, kSta),
  }));
  EXPECT_EQ(report.totals.missed_rts, 1u);
}

TEST(UnrecordedTest, RtsThenCtsIsComplete) {
  const auto report = estimate_unrecorded(as_trace({
      rec(0, mac::FrameType::kRts, kSta, kAp),
      rec(362, mac::FrameType::kCts, kAp, kSta),
  }));
  EXPECT_EQ(report.totals.missed_rts, 0u);
}

TEST(UnrecordedTest, RtsDataWithoutCtsImpliesMissedCts) {
  const auto report = estimate_unrecorded(as_trace({
      rec(0, mac::FrameType::kRts, kSta, kAp),
      rec(700, mac::FrameType::kData, kSta, kAp, kAp),
      rec(1400, mac::FrameType::kAck, kAp, kSta),
  }));
  EXPECT_EQ(report.totals.missed_cts, 1u);
}

TEST(UnrecordedTest, RtsCtsDataSequenceComplete) {
  const auto report = estimate_unrecorded(as_trace({
      rec(0, mac::FrameType::kRts, kSta, kAp),
      rec(362, mac::FrameType::kCts, kAp, kSta),
      rec(700, mac::FrameType::kData, kSta, kAp, kAp),
      rec(1400, mac::FrameType::kAck, kAp, kSta),
  }));
  EXPECT_EQ(report.totals.missed(), 0u);
}

TEST(UnrecordedTest, Equation1Percentage) {
  // 3 captured frames, 1 inferred miss: 1 / (1 + 3) = 25%.
  const auto report = estimate_unrecorded(as_trace({
      rec(0, mac::FrameType::kData, kSta, kAp, kAp),
      rec(600, mac::FrameType::kAck, kAp, kSta),
      rec(100'000, mac::FrameType::kAck, kAp, kSta),
  }));
  EXPECT_EQ(report.totals.captured, 3u);
  EXPECT_DOUBLE_EQ(report.totals.unrecorded_pct(), 25.0);
}

TEST(UnrecordedTest, EmptyTraceSafe) {
  const auto report = estimate_unrecorded(trace::Trace{});
  EXPECT_EQ(report.totals.missed(), 0u);
  EXPECT_DOUBLE_EQ(report.totals.unrecorded_pct(), 0.0);
}

}  // namespace
}  // namespace wlan::core
