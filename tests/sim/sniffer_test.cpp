#include "sim/sniffer.hpp"

#include <gtest/gtest.h>

#include "mac/frame.hpp"

namespace wlan::sim {
namespace {

mac::Frame small_data(std::uint16_t seq) {
  return mac::make_data(1, 2, 3, seq, 100, phy::Rate::kR11, 6);
}

TEST(SnifferTest, CapturesStrongInRangeFrames) {
  SnifferConfig cfg;
  cfg.snr_jitter_db = 0.0;
  Sniffer sniffer(cfg, 0);
  for (int i = 0; i < 100; ++i) {
    sniffer.observe(small_data(static_cast<std::uint16_t>(i)),
                    Microseconds{i * 1000}, 40.0, true);
  }
  EXPECT_EQ(sniffer.stats().captured, 100u);
  EXPECT_EQ(sniffer.trace().records.size(), 100u);
  EXPECT_EQ(sniffer.stats().missed_error, 0u);
}

TEST(SnifferTest, OutOfRangeFramesAreRangeMisses) {
  Sniffer sniffer(SnifferConfig{}, 0);
  sniffer.observe(small_data(1), Microseconds{0}, 40.0, false);
  EXPECT_EQ(sniffer.stats().captured, 0u);
  EXPECT_EQ(sniffer.stats().missed_range, 1u);
}

TEST(SnifferTest, LowSinrFramesDropAsBitErrors) {
  SnifferConfig cfg;
  cfg.snr_jitter_db = 0.0;
  Sniffer sniffer(cfg, 0);
  for (int i = 0; i < 200; ++i) {
    sniffer.observe(small_data(static_cast<std::uint16_t>(i)),
                    Microseconds{i * 1000}, -5.0, true);
  }
  EXPECT_EQ(sniffer.stats().captured, 0u);
  EXPECT_EQ(sniffer.stats().missed_error, 200u);
}

TEST(SnifferTest, OverloadDropsKickInAboveCapacity) {
  SnifferConfig cfg;
  cfg.capacity_fps = 100.0;
  cfg.max_overload_drop = 0.5;
  cfg.snr_jitter_db = 0.0;
  Sniffer sniffer(cfg, 0);
  // 400 frames within one second: the tail far exceeds capacity.
  for (int i = 0; i < 400; ++i) {
    sniffer.observe(small_data(static_cast<std::uint16_t>(i)),
                    Microseconds{i * 2000}, 40.0, true);
  }
  EXPECT_GT(sniffer.stats().missed_overload, 20u);
  EXPECT_LT(sniffer.stats().captured, 400u);
}

TEST(SnifferTest, OverloadCounterResetsEachSecond) {
  SnifferConfig cfg;
  cfg.capacity_fps = 100.0;
  cfg.snr_jitter_db = 0.0;
  Sniffer sniffer(cfg, 0);
  // 50 frames/second for 4 seconds: never above capacity.
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 50; ++i) {
      sniffer.observe(small_data(static_cast<std::uint16_t>(i)),
                      Microseconds{s * 1'000'000 + i * 10'000}, 40.0, true);
    }
  }
  EXPECT_EQ(sniffer.stats().missed_overload, 0u);
  EXPECT_EQ(sniffer.stats().captured, 200u);
}

TEST(SnifferTest, RecordsCarryRfmonMetadata) {
  SnifferConfig cfg;
  cfg.channel = 11;
  cfg.snr_jitter_db = 0.0;
  Sniffer sniffer(cfg, 3);
  mac::Frame f = small_data(9);
  f.id = 4242;
  f.channel = 11;
  f.retry = true;
  sniffer.observe(f, Microseconds{12345}, 27.5, true);
  ASSERT_EQ(sniffer.trace().records.size(), 1u);
  const auto& r = sniffer.trace().records[0];
  EXPECT_EQ(r.time_us, 12345);
  EXPECT_EQ(r.channel, 11);
  EXPECT_EQ(r.rate, phy::Rate::kR11);
  EXPECT_FLOAT_EQ(r.snr_db, 27.5f);
  EXPECT_TRUE(r.retry);
  EXPECT_EQ(r.sniffer_id, 3);
  EXPECT_EQ(r.frame_id, 4242u);
}

TEST(SnifferTest, SnrJitterPerturbsMeasurement) {
  SnifferConfig cfg;
  cfg.snr_jitter_db = 2.0;
  Sniffer sniffer(cfg, 0);
  for (int i = 0; i < 50; ++i) {
    sniffer.observe(small_data(static_cast<std::uint16_t>(i)),
                    Microseconds{i * 1000}, 30.0, true);
  }
  bool any_off = false;
  for (const auto& r : sniffer.trace().records) {
    if (std::abs(r.snr_db - 30.0f) > 0.01f) any_off = true;
  }
  EXPECT_TRUE(any_off);
}

TEST(SnifferTest, TraceIsStablySortedAsRecorded) {
  Sniffer sniffer(SnifferConfig{}, 0);
  // Deliberately observe out of order (overlapping frames end out of order);
  // frames that start together keep the order they were observed in.
  sniffer.observe(small_data(1), Microseconds{5000}, 40.0, true);
  sniffer.observe(small_data(2), Microseconds{1000}, 40.0, true);
  sniffer.observe(small_data(3), Microseconds{5000}, 40.0, true);
  sniffer.observe(small_data(4), Microseconds{3000}, 40.0, true);
  const trace::Trace& trace = sniffer.trace();
  ASSERT_EQ(trace.records.size(), 4u);
  const std::uint16_t want_seq[] = {2, 4, 1, 3};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trace.records[i].seq, want_seq[i]) << "record " << i;
  }
  EXPECT_EQ(trace.start_us, 1000);
  EXPECT_EQ(trace.end_us, 5000);
}

}  // namespace
}  // namespace wlan::sim
