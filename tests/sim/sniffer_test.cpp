#include "sim/sniffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mac/frame.hpp"
#include "trace/reader.hpp"
#include "util/rng.hpp"

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

/// A streaming sniffer and a keeping one see the same overlapping frames,
/// observed at their end of air.  After each end of air the streaming one
/// hands over what starts before the channel's horizon (now, or the
/// earliest start still on the air).  It hands over exactly the kept
/// capture, in order, and never holds a record it could have handed over.
TEST(SnifferTest, StreamingHandsOverExactlyTheKeptCapture) {
  struct Air {
    std::int64_t start;
    std::int64_t end;
    std::uint16_t seq;
  };
  // Short frames under long ones: many end before frames that started
  // earlier, so records arrive out of start order.
  util::Rng rng(11);
  std::vector<Air> air;
  std::int64_t t = 0;
  for (std::uint16_t i = 0; i < 3000; ++i) {
    t += static_cast<std::int64_t>(rng.uniform_int(0, 900));
    const bool is_long = rng.chance(0.2);
    const std::int64_t duration =
        is_long ? 8000 + static_cast<std::int64_t>(rng.uniform_int(0, 4000))
                : 100 + static_cast<std::int64_t>(rng.uniform_int(0, 400));
    air.push_back({t, t + duration, i});
  }
  std::vector<Air> by_end = air;
  std::stable_sort(by_end.begin(), by_end.end(),
                   [](const Air& a, const Air& b) { return a.end < b.end; });

  SnifferConfig cfg;
  cfg.clock_offset_us = 1500;  // the horizon is compared in sniffer time
  cfg.capacity_fps = 1e9;
  Sniffer kept(cfg, 0);
  Sniffer streaming(cfg, 0);
  trace::CaptureStream stream;
  streaming.stream_to(stream);
  std::size_t handed = 0;
  std::size_t max_tail = 0;
  for (const Air& done : by_end) {
    const mac::Frame f = small_data(done.seq);
    kept.observe(f, Microseconds{done.start}, 30.0, true);
    streaming.observe(f, Microseconds{done.start}, 30.0, true);
    std::int64_t horizon = done.end;
    for (const Air& other : air) {
      if (other.start <= done.end && other.end > done.end) {
        horizon = std::min(horizon, other.start);
      }
    }
    streaming.hand_over(Microseconds{horizon});
    const auto& tail = streaming.trace().records;
    for (const trace::CaptureRecord& r : tail) {
      EXPECT_GE(r.time_us, horizon + cfg.clock_offset_us);
    }
    handed = streaming.stats().captured - tail.size();
    max_tail = std::max(max_tail, tail.size());
  }
  EXPECT_GT(handed, 0u);
  EXPECT_GT(max_tail, 0u);  // some records did wait for a long frame
  streaming.close_stream();
  EXPECT_FALSE(streaming.streams());
  EXPECT_TRUE(streaming.trace().records.empty());

  const trace::Trace streamed = trace::read_all(stream);
  const std::vector<trace::CaptureRecord>& expected = kept.trace().records;
  ASSERT_EQ(kept.stats().captured, streaming.stats().captured);
  ASSERT_EQ(streamed.records.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed.records[i].time_us, expected[i].time_us) << i;
    EXPECT_EQ(streamed.records[i].seq, expected[i].seq) << i;
    EXPECT_EQ(streamed.records[i].snr_db, expected[i].snr_db) << i;
  }
}

}  // namespace
}  // namespace wlan::sim
