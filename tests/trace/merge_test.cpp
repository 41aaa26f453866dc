#include "trace/merge.hpp"

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "workload/scenario.hpp"

namespace wlan::trace {
namespace {

CaptureRecord beacon(mac::Addr bssid, std::uint16_t seq, std::int64_t at) {
  CaptureRecord r;
  r.type = mac::FrameType::kBeacon;
  r.src = bssid;
  r.dst = mac::kBroadcast;
  r.bssid = bssid;
  r.seq = seq;
  r.time_us = at;
  r.size_bytes = mac::kBeaconBytes;
  r.channel = 6;
  return r;
}

CaptureRecord data(mac::Addr src, std::uint16_t seq, std::int64_t at,
                   bool retry = false) {
  CaptureRecord r;
  r.type = mac::FrameType::kData;
  r.src = src;
  r.dst = 1;
  r.bssid = 1;
  r.seq = seq;
  r.retry = retry;
  r.time_us = at;
  r.size_bytes = 500;
  r.channel = 6;
  return r;
}

Trace as_trace(std::vector<CaptureRecord> records) {
  Trace t;
  t.records = std::move(records);
  if (!t.records.empty()) {
    t.start_us = t.records.front().time_us;
    t.end_us = t.records.back().time_us;
  }
  return t;
}

/// Two sniffers hearing the same beacons, sniffer 1's clock ahead by a
/// constant offset: the estimator must recover it exactly.
TEST(ClockOffsetTest, RecoversConstantOffsetExactly) {
  constexpr std::int64_t kOffset = 2345;
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i));
    b.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i + kOffset));
  }
  const Trace ta = as_trace(a), tb = as_trace(b);
  VectorReader ra(ta), rb(tb);
  const auto offsets = estimate_clock_offsets({&ra, &rb});
  ASSERT_EQ(offsets.offset_us.size(), 2u);
  EXPECT_EQ(offsets.offset_us[0], 0);
  EXPECT_EQ(offsets.offset_us[1], kOffset);
  EXPECT_EQ(offsets.anchors[1], 20u);
}

TEST(ClockOffsetTest, MedianRejectsMinorityOutliers) {
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 21; ++i) {
    a.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i));
    // Three anchors corrupted (capture glitch); the rest offset by 700 us.
    const std::int64_t off = i < 3 ? 999'999 : 700;
    b.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i + off));
  }
  const Trace ta = as_trace(a), tb = as_trace(b);
  VectorReader ra(ta), rb(tb);
  const auto offsets = estimate_clock_offsets({&ra, &rb});
  EXPECT_EQ(offsets.offset_us[1], 700);
}

TEST(ClockOffsetTest, SurvivesSequenceNumberWrap) {
  // Long capture: the (bssid, seq) space wraps, so every key eventually
  // recurs.  The estimator must keep the pre-wrap prefix as anchors rather
  // than discarding recurring keys until none remain.
  constexpr std::int64_t kOffset = 512;
  constexpr int kWraps = 3, kSeqSpace = 50;  // small stand-in for 4096
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < kWraps * kSeqSpace; ++i) {
    const auto seq = static_cast<std::uint16_t>(i % kSeqSpace);
    a.push_back(beacon(9, seq, 100'000 * i));
    b.push_back(beacon(9, seq, 100'000 * i + kOffset));
  }
  const Trace ta = as_trace(a), tb = as_trace(b);
  VectorReader ra(ta), rb(tb);
  const auto offsets = estimate_clock_offsets({&ra, &rb});
  EXPECT_EQ(offsets.offset_us[1], kOffset);
  EXPECT_EQ(offsets.anchors[1], static_cast<std::size_t>(kSeqSpace));
}

TEST(ClockOffsetTest, NoSharedBeaconsMeansZeroOffset) {
  const Trace ta = as_trace({beacon(9, 1, 0)});
  const Trace tb = as_trace({data(5, 1, 50)});
  VectorReader ra(ta), rb(tb);
  const auto offsets = estimate_clock_offsets({&ra, &rb});
  EXPECT_EQ(offsets.offset_us[1], 0);
  EXPECT_EQ(offsets.anchors[1], 0u);
}

/// The same frames heard by two sniffers merge to one copy each.
TEST(MergeTest, SuppressesCrossSnifferDuplicates) {
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(data(5, static_cast<std::uint16_t>(i), 1000 * i));
    b.push_back(data(5, static_cast<std::uint16_t>(i), 1000 * i));
  }
  const auto result = merge_sniffer_traces({as_trace(a), as_trace(b)});
  EXPECT_EQ(result.trace.records.size(), 10u);
  EXPECT_EQ(result.stats.duplicates_dropped, 10u);
  EXPECT_EQ(result.stats.records_in, 20u);
}

TEST(MergeTest, KeepsFramesOnlyOneSnifferHeard) {
  // Sniffer a hears everything; b misses the odd frames.
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(data(5, static_cast<std::uint16_t>(i), 1000 * i));
    if (i % 2 == 0) b.push_back(data(5, static_cast<std::uint16_t>(i), 1000 * i));
  }
  // And b alone hears one frame a missed entirely.
  b.push_back(data(7, 99, 4500));
  sort_by_time(b);
  const auto result = merge_sniffer_traces({as_trace(a), as_trace(b)});
  EXPECT_EQ(result.trace.records.size(), 11u);
  EXPECT_EQ(result.stats.duplicates_dropped, 5u);
}

TEST(MergeTest, RetryIsNotADuplicateOfFirstAttempt) {
  // Same (src, seq) 300 us apart, first attempt then retry: both kept —
  // the retry flag is part of the duplicate identity.
  const auto result = merge_sniffer_traces(
      {as_trace({data(5, 7, 1000, false), data(5, 7, 1300, true)}),
       as_trace({})});
  EXPECT_EQ(result.trace.records.size(), 2u);
  EXPECT_EQ(result.stats.duplicates_dropped, 0u);
}

TEST(MergeTest, DedupIgnoresAckSourceAddress) {
  // The same ACK as recorded by a sim sniffer (src known) and as reloaded
  // from pcap (src erased): still one frame.
  CaptureRecord ack_sim;
  ack_sim.type = mac::FrameType::kAck;
  ack_sim.src = 3;
  ack_sim.dst = 5;
  ack_sim.time_us = 100;
  ack_sim.size_bytes = mac::kAckBytes;
  CaptureRecord ack_pcap = ack_sim;
  ack_pcap.src = mac::kNoAddr;
  const auto result =
      merge_sniffer_traces({as_trace({ack_sim}), as_trace({ack_pcap})});
  EXPECT_EQ(result.trace.records.size(), 1u);
  EXPECT_EQ(result.stats.duplicates_dropped, 1u);
}

TEST(MergeTest, CorrectsClocksBeforeDeduplicating) {
  // Sniffer b runs 2 ms fast: raw timestamps differ by far more than the
  // dup window, so dedup only works if the beacon-anchored correction
  // lands first.  Beacons double as the anchors.
  constexpr std::int64_t kOffset = 2000;
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i));
    a.push_back(data(5, static_cast<std::uint16_t>(i), 100'000 * i + 3000));
    b.push_back(beacon(9, static_cast<std::uint16_t>(i), 100'000 * i + kOffset));
    b.push_back(
        data(5, static_cast<std::uint16_t>(i), 100'000 * i + 3000 + kOffset));
  }
  const auto result = merge_sniffer_traces({as_trace(a), as_trace(b)});
  EXPECT_EQ(result.offsets.offset_us[1], kOffset);
  EXPECT_EQ(result.trace.records.size(), 20u);
  EXPECT_EQ(result.stats.duplicates_dropped, 20u);

  // Without correction every record doubles.
  MergeOptions raw;
  raw.clock_correction = false;
  const auto uncorrected = merge_sniffer_traces({as_trace(a), as_trace(b)}, raw);
  EXPECT_EQ(uncorrected.trace.records.size(), 40u);
}

TEST(MergeTest, OutputIsTimeSortedWithEmittedBounds) {
  std::vector<CaptureRecord> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(data(5, static_cast<std::uint16_t>(i), 137 * i + 11));
    b.push_back(data(6, static_cast<std::uint16_t>(i), 201 * i + 3));
  }
  const auto result = merge_sniffer_traces({as_trace(a), as_trace(b)});
  ASSERT_FALSE(result.trace.records.empty());
  for (std::size_t i = 1; i < result.trace.records.size(); ++i) {
    EXPECT_LE(result.trace.records[i - 1].time_us,
              result.trace.records[i].time_us);
  }
  EXPECT_EQ(result.trace.start_us, result.trace.records.front().time_us);
  EXPECT_EQ(result.trace.end_us, result.trace.records.back().time_us);
}

TEST(MergeTest, ThrowsOnUnsortedInput) {
  const Trace bad = as_trace({data(5, 1, 10'000), data(5, 2, 100)});
  VectorReader ra(bad);
  MergingReader merger({&ra}, {0});
  CaptureRecord r;
  EXPECT_THROW({ while (merger.next(r)) {} }, std::runtime_error);
}

/// Each record of a drifting input starts 6 us before its predecessor:
/// within the 10 us capture tolerance step by step, far outside it in sum.
/// The guard measures from the latest record seen, so the drift throws.
TEST(MergeTest, ThrowsOnDriftingInput) {
  std::vector<CaptureRecord> drift;
  for (std::uint16_t i = 0; i < 6; ++i) {
    drift.push_back(data(5, i, 10'000 - 6 * i));
  }
  const Trace bad = as_trace(drift);
  VectorReader ra(bad);
  MergingReader merger({&ra}, {0});
  CaptureRecord r;
  EXPECT_THROW({ while (merger.next(r)) {} }, std::runtime_error);
}

TEST(MergeTest, EmptyInputs) {
  EXPECT_TRUE(merge_sniffer_traces({}).trace.records.empty());
  EXPECT_TRUE(merge_sniffer_traces({Trace{}, Trace{}}).trace.records.empty());
}

/// End to end on the simulator: a two-sniffer cell with skewed clocks must
/// recover the configured skew exactly and reassemble a deduplicated trace
/// the analyzer accepts.
TEST(MergeTest, TwoSnifferCellEndToEnd) {
  workload::CellConfig cell;
  cell.seed = 21;
  cell.num_users = 8;
  cell.per_user_pps = 20.0;
  cell.duration_s = 6.0;
  cell.warmup_s = 1.0;
  cell.num_sniffers = 2;
  cell.sniffer_clock_skew_us = 1500;
  const auto result = workload::run_cell(cell);

  ASSERT_EQ(result.sniffer_traces.size(), 2u);
  ASSERT_EQ(result.clock_offsets.offset_us.size(), 2u);
  // Both sniffers stamp the same frame-start instant, so the recovered
  // offset is the configured skew exactly, not approximately.
  EXPECT_EQ(result.clock_offsets.offset_us[1], 1500);
  EXPECT_GT(result.clock_offsets.anchors[1], 10u);
  EXPECT_GT(result.merge_stats.duplicates_dropped, 100u);

  // The merged capture covers at least what the better sniffer saw alone,
  // and strictly less than the sum (duplicates went away).
  const std::size_t s0 = result.sniffer_traces[0].records.size();
  const std::size_t s1 = result.sniffer_traces[1].records.size();
  const std::size_t merged_full = result.merge_stats.emitted;
  EXPECT_GE(merged_full, std::max(s0, s1));
  EXPECT_LT(merged_full, s0 + s1);

  // And the result is a well-formed analyzable capture.
  const auto analysis = core::TraceAnalyzer{}.analyze(result.trace);
  EXPECT_GT(analysis.total_frames, 0u);
}

}  // namespace
}  // namespace wlan::trace
