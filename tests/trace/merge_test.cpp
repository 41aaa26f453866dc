#include "trace/merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "core/analyzer.hpp"
#include "util/rng.hpp"
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

/// merge.cpp's kMaxClockOffsetUs: the largest clock lead over input 0 that
/// the estimator waits out before it stops reading an input.
constexpr std::int64_t kMaxClockOffsetUs = 1'000'000;

/// Reference capture for the bounded scan: 30 beacons of BSS 9, 100 ms
/// apart from 20 s, so input 0's last anchor is at 22.9 s and every other
/// input is read up to its first record after 23.9 s.
constexpr int kRefBeacons = 30;
constexpr std::int64_t kRefStartUs = 20'000'000;
constexpr std::int64_t kBeaconGapUs = 100'000;
constexpr std::int64_t kScanHorizonUs =
    kRefStartUs + (kRefBeacons - 1) * kBeaconGapUs + kMaxClockOffsetUs;

/// The reference beacons as a sniffer whose clock leads by `lead_us` hears
/// them (a negative lead is a clock running behind).
Trace reference_beacons(std::int64_t lead_us) {
  std::vector<CaptureRecord> records;
  for (int i = 0; i < kRefBeacons; ++i) {
    records.push_back(beacon(9, static_cast<std::uint16_t>(i),
                             kRefStartUs + kBeaconGapUs * i + lead_us));
  }
  return as_trace(records);
}

/// Hands out `inner`'s records, counting them.
class CountingReader final : public TraceReader {
 public:
  explicit CountingReader(TraceReader& inner) : inner_(&inner) {}
  bool next(CaptureRecord& out) override {
    if (!inner_->next(out)) return false;
    ++records_read_;
    return true;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::size_t records_read() const { return records_read_; }

 private:
  TraceReader* inner_;
  std::size_t records_read_ = 0;
};

TEST(ClockOffsetTest, StopsReadingAtFirstRecordPastTheBound) {
  // 600 s of another BSS's beacons and data, sharing no anchor with input
  // 0: the scan reads up to the first record after the bound, no further.
  std::vector<CaptureRecord> other;
  for (std::int64_t t = 0; t < 600'000'000; t += 10'000) {
    if (t % kBeaconGapUs == 0) {
      other.push_back(beacon(12, static_cast<std::uint16_t>(t / kBeaconGapUs),
                             t));
    }
    other.push_back(data(5, static_cast<std::uint16_t>(t / 10'000), t + 500));
  }
  const Trace ta = reference_beacons(0), tb = as_trace(other);
  VectorReader ra(ta), rb(tb);
  CountingReader counted(rb);
  const auto offsets = estimate_clock_offsets({&ra, &counted});
  EXPECT_EQ(offsets.offset_us[1], 0);
  EXPECT_EQ(offsets.anchors[1], 0u);
  const auto within = std::count_if(
      other.begin(), other.end(),
      [](const CaptureRecord& r) { return r.time_us <= kScanHorizonUs; });
  EXPECT_EQ(counted.records_read(), static_cast<std::size_t>(within) + 1);
  EXPECT_LT(counted.records_read(), other.size() / 20);
}

TEST(ClockOffsetTest, RecoversLeadWithinBoundAndAnyLagWithEveryAnchor) {
  const Trace ta = reference_beacons(0),
              ahead = reference_beacons(kMaxClockOffsetUs / 2),
              behind = reference_beacons(-10 * kMaxClockOffsetUs);
  VectorReader ra(ta), rb(ahead), rc(behind);
  const auto offsets = estimate_clock_offsets({&ra, &rb, &rc});
  EXPECT_EQ(offsets.offset_us[1], kMaxClockOffsetUs / 2);
  EXPECT_EQ(offsets.anchors[1], static_cast<std::size_t>(kRefBeacons));
  EXPECT_EQ(offsets.offset_us[2], -10 * kMaxClockOffsetUs);
  EXPECT_EQ(offsets.anchors[2], static_cast<std::size_t>(kRefBeacons));
}

TEST(ClockOffsetTest, LeadPastBoundUsesOnlyAnchorsBeforeIt) {
  // 2 s ahead, beacon k shows at 22 s + 100 ms * k: beacons 0-19 fall at or
  // before the 23.9 s bound (the 20th exactly on it), 20-29 after.  A lead
  // of the anchors' 2.9 s span plus the bound plus 1 us shows none.
  constexpr std::int64_t kLeadPastAll =
      (kRefBeacons - 1) * kBeaconGapUs + kMaxClockOffsetUs + 1;
  const Trace ta = reference_beacons(0),
              ahead = reference_beacons(2 * kMaxClockOffsetUs),
              too_far = reference_beacons(kLeadPastAll);
  VectorReader ra(ta), rb(ahead), rc(too_far);
  const auto offsets = estimate_clock_offsets({&ra, &rb, &rc});
  EXPECT_EQ(offsets.offset_us[1], 2 * kMaxClockOffsetUs);
  EXPECT_EQ(offsets.anchors[1], 20u);
  EXPECT_EQ(offsets.offset_us[2], 0);
  EXPECT_EQ(offsets.anchors[2], 0u);
}

TEST(ClockOffsetTest, NoReferenceBeaconReadsNoOtherInput) {
  const Trace ta = as_trace({data(5, 1, 0), data(5, 2, 5'000)});
  const Trace tb = reference_beacons(0), tc = reference_beacons(300);
  VectorReader ra(ta), rb(tb), rc(tc);
  CountingReader cb(rb), cc(rc);
  const auto offsets = estimate_clock_offsets({&ra, &cb, &cc});
  EXPECT_EQ(cb.records_read(), 0u);
  EXPECT_EQ(cc.records_read(), 0u);
  EXPECT_EQ(offsets.offset_us, (std::vector<std::int64_t>{0, 0, 0}));
  EXPECT_EQ(offsets.anchors, (std::vector<std::size_t>{0, 0, 0}));
}

/// Drains `reader` and checks that it yields every record of `want`, from
/// the first on.
void expect_yields_from_first(TraceReader& reader, const Trace& want) {
  const Trace got = read_all(reader);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(got.records[i].time_us, want.records[i].time_us) << i;
    EXPECT_EQ(got.records[i].type, want.records[i].type) << i;
    EXPECT_EQ(got.records[i].seq, want.records[i].seq) << i;
  }
}

/// Data frames of station 5 every 100 ms over [0, 60 s): far past the
/// scan bound, so an input built from them is only partly read.
Trace minute_of_data() {
  std::vector<CaptureRecord> records;
  for (int i = 0; i < 600; ++i) {
    records.push_back(data(5, static_cast<std::uint16_t>(i), 100'000 * i));
  }
  return as_trace(records);
}

/// Estimates offsets over replay-once readers of `traces` and checks that
/// the estimator rewound every input, read or not: a further reset()
/// throws, so the estimator made the one reset each allows, and each input
/// yields its capture from the first record.
ClockOffsets estimate_and_expect_rewound(const std::vector<Trace>& traces) {
  std::vector<VectorReader> live;
  std::vector<ReplayOnceReader> once;
  live.reserve(traces.size());
  once.reserve(traces.size());
  std::vector<TraceReader*> inputs;
  for (const Trace& t : traces) {
    inputs.push_back(&once.emplace_back(live.emplace_back(t)));
  }
  const ClockOffsets offsets = estimate_clock_offsets(inputs);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_THROW(once[i].reset(), std::logic_error) << "input " << i;
    expect_yields_from_first(once[i], traces[i]);
  }
  return offsets;
}

TEST(ClockOffsetTest, RewindsEveryInputItAligns) {
  // Inputs 0 and 1 are read to their last beacon, input 2 up to its first
  // record past the scan bound.
  const auto offsets = estimate_and_expect_rewound(
      {reference_beacons(0), reference_beacons(700), minute_of_data()});
  EXPECT_EQ(offsets.offset_us[1], 700);
  EXPECT_EQ(offsets.anchors[2], 0u);
}

TEST(ClockOffsetTest, RewindsUnreadInputsWhenTheReferenceHasNoBeacon) {
  // Input 0 is read to its end; inputs 1 and 2 are never read.
  const auto offsets = estimate_and_expect_rewound(
      {minute_of_data(), reference_beacons(0), reference_beacons(300)});
  EXPECT_EQ(offsets.anchors, (std::vector<std::size_t>{0, 0, 0}));
}

TEST(ClockOffsetTest, RewindsASingleInput) {
  const auto offsets = estimate_and_expect_rewound({reference_beacons(0)});
  EXPECT_EQ(offsets.offset_us, (std::vector<std::int64_t>{0}));
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

  // Merged on raw clocks (all-zero offsets), every record doubles.
  const Trace ta = as_trace(a), tb = as_trace(b);
  VectorReader ra(ta), rb(tb);
  MergingReader raw({&ra, &rb}, {0, 0});
  EXPECT_EQ(read_all(raw).records.size(), 40u);
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
  cell.profile.mean_pps = 20.0;
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

// --- Differential oracle for the dedup window ------------------------------
//
// The reference below is MergingReader's dedup window as an unordered_map
// (key -> last emitted corrected time) plus a deque of (key, time) in
// insertion order, step for step: slide out entries older than the window,
// erasing a key only if its map time is the one sliding out; look the key
// up; drop a copy within the window (moving the key's time forward) or emit
// it.  The k-way order is MergingReader's: smallest (corrected head time,
// input index) first.  Every comparison checks all emitted records, in
// order, field by field, and MergeStats.

std::uint64_t oracle_dedup_key(const CaptureRecord& r) {
  const bool no_src =
      r.type == mac::FrameType::kAck || r.type == mac::FrameType::kCts;
  const std::uint64_t src = no_src ? mac::kNoAddr : r.src;
  return (static_cast<std::uint64_t>(r.seq) & 0xfffu) |
         (static_cast<std::uint64_t>(r.dst) << 12) | (src << 28) |
         (static_cast<std::uint64_t>(r.retry) << 44) |
         (static_cast<std::uint64_t>(r.type) << 45) |
         (static_cast<std::uint64_t>(r.channel) << 48);
}

struct OracleResult {
  std::vector<CaptureRecord> records;
  MergeStats stats;
  std::size_t peak_window = 0;  ///< most (key, time) entries held at once
};

OracleResult oracle_merge(const std::vector<Trace>& traces,
                          const std::vector<std::int64_t>& offsets_us,
                          std::int64_t dup_window_us) {
  OracleResult out;
  std::vector<std::size_t> cursor(traces.size(), 0);
  std::unordered_map<std::uint64_t, std::int64_t> last_emit;
  std::deque<std::pair<std::uint64_t, std::int64_t>> emit_order;
  for (;;) {
    std::size_t best = traces.size();
    std::int64_t best_time = 0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (cursor[i] >= traces[i].records.size()) continue;
      const std::int64_t t =
          traces[i].records[cursor[i]].time_us - offsets_us[i];
      if (best == traces.size() || t < best_time) {
        best = i;
        best_time = t;
      }
    }
    if (best == traces.size()) break;
    CaptureRecord r = traces[best].records[cursor[best]++];
    r.time_us = best_time;
    ++out.stats.records_in;

    while (!emit_order.empty() &&
           emit_order.front().second + dup_window_us < best_time) {
      const auto& [key, when] = emit_order.front();
      const auto it = last_emit.find(key);
      if (it != last_emit.end() && it->second == when) last_emit.erase(it);
      emit_order.pop_front();
    }
    const std::uint64_t key = oracle_dedup_key(r);
    const auto it = last_emit.find(key);
    if (it != last_emit.end() && best_time - it->second <= dup_window_us) {
      it->second = best_time;
      emit_order.emplace_back(key, best_time);
      out.peak_window = std::max(out.peak_window, emit_order.size());
      ++out.stats.duplicates_dropped;
      continue;
    }
    last_emit[key] = best_time;
    emit_order.emplace_back(key, best_time);
    out.peak_window = std::max(out.peak_window, emit_order.size());
    ++out.stats.emitted;
    out.records.push_back(r);
  }
  return out;
}

auto fields(const CaptureRecord& r) {
  return std::tie(r.time_us, r.channel, r.rate, r.snr_db, r.type, r.src,
                  r.dst, r.bssid, r.seq, r.retry, r.size_bytes, r.sniffer_id,
                  r.frame_id);
}

void expect_same(const std::vector<CaptureRecord>& got,
                 const OracleResult& want, const MergeStats& got_stats) {
  ASSERT_EQ(got.size(), want.records.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(fields(got[i]) == fields(want.records[i]))
        << "record " << i << ": got frame " << got[i].frame_id << " at "
        << got[i].time_us << " us, want frame " << want.records[i].frame_id
        << " at " << want.records[i].time_us << " us";
  }
  EXPECT_EQ(got_stats.records_in, want.stats.records_in);
  EXPECT_EQ(got_stats.duplicates_dropped, want.stats.duplicates_dropped);
  EXPECT_EQ(got_stats.emitted, want.stats.emitted);
}

/// Runs MergingReader on `traces` and checks it against the oracle; returns
/// the oracle's result so callers can assert what the case exercised.
OracleResult expect_matches_oracle(const std::vector<Trace>& traces,
                                   const std::vector<std::int64_t>& offsets,
                                   std::int64_t dup_window_us) {
  const OracleResult want = oracle_merge(traces, offsets, dup_window_us);
  std::vector<VectorReader> readers(traces.begin(), traces.end());
  std::vector<TraceReader*> inputs;
  for (VectorReader& r : readers) inputs.push_back(&r);
  MergeOptions options;
  options.dup_window_us = dup_window_us;
  MergingReader merger(inputs, offsets, options);
  const Trace got = read_all(merger);
  expect_same(got.records, want, merger.stats());
  return want;
}

/// One channel heard by three sniffers.  Frames come from a small key space
/// (4 sources, 4 destinations, 8 sequence numbers), so keys recur both
/// inside and outside the window.  Each sniffer hears 80% of them, most at
/// the frame's instant (equal corrected times across inputs), some 1-10 us,
/// 80 us, exactly 100 us or 101 us late.  ACK/CTS copies keep their src or
/// lose it (a pcap round-trip), so copies can differ only in src.  After a
/// stable sort, a fifth of each sniffer's records move up to kSortSlackUs
/// earlier, which the merge tolerates; finally each sniffer's clock offset
/// is added.
std::vector<Trace> three_sniffer_capture(
    std::uint64_t seed, std::size_t frames,
    const std::vector<std::int64_t>& offsets_us) {
  util::Rng rng(seed);
  constexpr std::array<std::int64_t, 9> kGaps = {0, 1, 5, 50, 99, 100, 101,
                                                 150, 400};
  constexpr std::array<mac::FrameType, 5> kTypes = {
      mac::FrameType::kData, mac::FrameType::kAck, mac::FrameType::kRts,
      mac::FrameType::kCts, mac::FrameType::kBeacon};
  constexpr std::array<std::int64_t, 4> kLate = {80, 100, 101, 7};
  std::array<std::vector<CaptureRecord>, 3> heard;
  std::int64_t t = 1'000;
  for (std::size_t f = 0; f < frames; ++f) {
    t += kGaps[rng.uniform(kGaps.size())];
    CaptureRecord r;
    r.time_us = t;
    r.channel = 6;
    r.rate = static_cast<phy::Rate>(rng.uniform(4));
    r.type = kTypes[rng.uniform(kTypes.size())];
    r.src = static_cast<mac::Addr>(1 + rng.uniform(4));
    r.dst = static_cast<mac::Addr>(1 + rng.uniform(4));
    r.bssid = 1;
    r.seq = static_cast<std::uint16_t>(rng.uniform(8));
    r.retry = rng.chance(0.2);
    r.size_bytes = static_cast<std::uint32_t>(14 + rng.uniform(1500));
    r.frame_id = f + 1;
    const bool control =
        r.type == mac::FrameType::kAck || r.type == mac::FrameType::kCts;
    for (std::uint8_t s = 0; s < 3; ++s) {
      if (!rng.chance(0.8)) continue;
      CaptureRecord copy = r;
      copy.sniffer_id = s;
      copy.snr_db = static_cast<float>(rng.uniform_real(5.0, 40.0));
      if (control && rng.chance(0.5)) copy.src = mac::kNoAddr;
      if (rng.chance(0.3)) copy.time_us += kLate[rng.uniform(kLate.size())];
      heard[s].push_back(copy);
    }
  }
  std::vector<Trace> traces;
  for (std::size_t s = 0; s < 3; ++s) {
    std::vector<CaptureRecord>& records = heard[s];
    sort_by_time(records);
    for (CaptureRecord& r : records) {
      if (rng.chance(0.2)) r.time_us -= rng.uniform_int(0, kSortSlackUs);
      r.time_us += offsets_us[s];
    }
    traces.push_back(as_trace(std::move(records)));
  }
  return traces;
}

TEST(DedupOracleTest, MatchesReferenceOnRandomThreeSnifferCaptures) {
  const std::vector<std::int64_t> offsets = {0, 2'345, -1'500};
  std::uint64_t dropped = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto traces = three_sniffer_capture(seed, 2'000, offsets);
    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{100},
                                      std::int64_t{400}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", window " +
                   std::to_string(window) + " us");
      dropped += expect_matches_oracle(traces, offsets, window)
                     .stats.duplicates_dropped;
    }
  }
  EXPECT_GT(dropped, 10'000u);
}

TEST(DedupOracleTest, EqualCorrectedTimesAcrossInputs) {
  // Three copies of one frame at one corrected instant, on clocks that
  // disagree: input order breaks the tie, and the first copy survives.
  std::vector<Trace> traces;
  const std::vector<std::int64_t> offsets = {0, 700, -300};
  for (std::uint8_t s = 0; s < 3; ++s) {
    CaptureRecord r = data(5, 9, 5'000 + offsets[s]);
    r.sniffer_id = s;
    traces.push_back(as_trace({r}));
  }
  const auto want = expect_matches_oracle(traces, offsets, 100);
  ASSERT_EQ(want.records.size(), 1u);
  EXPECT_EQ(want.records[0].sniffer_id, 0);
  EXPECT_EQ(want.stats.duplicates_dropped, 2u);
}

TEST(DedupOracleTest, RecordsWithinSortSlack) {
  // Sniffer 0 stamps its second frame kSortSlackUs before its first; the
  // other sniffers' copies of both land in between.
  CaptureRecord a0 = data(5, 1, 1'000), a1 = data(6, 2, 1'000 - kSortSlackUs);
  CaptureRecord b0 = data(5, 1, 995), b1 = data(6, 2, 992);
  CaptureRecord c0 = data(6, 2, 991), c1 = data(5, 1, 1'001);
  b0.sniffer_id = b1.sniffer_id = 1;
  c0.sniffer_id = c1.sniffer_id = 2;
  const auto want = expect_matches_oracle(
      {as_trace({a0, a1}), as_trace({b0, b1}), as_trace({c0, c1})}, {0, 0, 0},
      100);
  EXPECT_EQ(want.stats.emitted, 2u);
  EXPECT_EQ(want.stats.duplicates_dropped, 4u);
}

TEST(DedupOracleTest, HundredMicrosecondEdge) {
  // A copy exactly dup_window_us after the last one is dropped (and moves
  // the key's time); one 101 us after that is a new frame.
  CaptureRecord first = data(5, 3, 1'000), edge = data(5, 3, 1'100),
                past = data(5, 3, 1'201);
  edge.sniffer_id = 1;
  past.sniffer_id = 2;
  const auto want = expect_matches_oracle(
      {as_trace({first}), as_trace({edge}), as_trace({past})}, {0, 0, 0}, 100);
  ASSERT_EQ(want.records.size(), 2u);
  EXPECT_EQ(want.records[0].time_us, 1'000);
  EXPECT_EQ(want.records[1].time_us, 1'201);
  EXPECT_EQ(want.stats.duplicates_dropped, 1u);
}

TEST(DedupOracleTest, ThirdSnifferCopySlidesWindow) {
  // Copies 80 us apart: the third is 160 us after the emitted one but only
  // 80 us after the second copy, which slid the window.
  CaptureRecord a = data(5, 4, 2'000), b = data(5, 4, 2'080),
                c = data(5, 4, 2'160);
  b.sniffer_id = 1;
  c.sniffer_id = 2;
  const auto want = expect_matches_oracle(
      {as_trace({a}), as_trace({b}), as_trace({c})}, {0, 0, 0}, 100);
  EXPECT_EQ(want.stats.emitted, 1u);
  EXPECT_EQ(want.stats.duplicates_dropped, 2u);
}

TEST(DedupOracleTest, AckAndCtsCopiesDifferingOnlyInSrc) {
  std::vector<Trace> traces;
  const std::array<mac::Addr, 3> srcs = {3, mac::kNoAddr, 7};
  for (std::uint8_t s = 0; s < 3; ++s) {
    std::vector<CaptureRecord> records;
    for (const auto type : {mac::FrameType::kAck, mac::FrameType::kCts}) {
      CaptureRecord r;
      r.type = type;
      r.src = srcs[s];
      r.dst = 5;
      r.channel = 6;
      r.sniffer_id = s;
      r.time_us = type == mac::FrameType::kAck ? 100 : 400;
      r.size_bytes = type == mac::FrameType::kAck ? mac::kAckBytes
                                                  : mac::kCtsBytes;
      records.push_back(r);
    }
    traces.push_back(as_trace(records));
  }
  const auto want = expect_matches_oracle(traces, {0, 0, 0}, 100);
  EXPECT_EQ(want.stats.emitted, 2u);
  EXPECT_EQ(want.stats.duplicates_dropped, 4u);
}

TEST(DedupOracleTest, OneSecondWindowHoldsThousandsOfEntries) {
  const std::vector<std::int64_t> offsets = {0, 90, -40};
  const auto traces = three_sniffer_capture(77, 20'000, offsets);
  const auto want = expect_matches_oracle(traces, offsets, 1'000'000);
  // Far more entries than any first ring size: the window must grow.
  EXPECT_GT(want.peak_window, 4'096u);
}

TEST(DedupOracleTest, ResetMidStreamThenFullReread) {
  const std::vector<std::int64_t> offsets = {0, -250, 1'000};
  const auto traces = three_sniffer_capture(5, 3'000, offsets);
  const OracleResult want = oracle_merge(traces, offsets, 100);
  std::vector<VectorReader> readers(traces.begin(), traces.end());
  std::vector<TraceReader*> inputs;
  for (VectorReader& r : readers) inputs.push_back(&r);
  MergingReader merger(inputs, offsets);
  CaptureRecord r;
  for (int i = 0; i < 1'234 && merger.next(r); ++i) {
  }
  merger.reset();
  const Trace got = read_all(merger);
  expect_same(got.records, want, merger.stats());
}

}  // namespace
}  // namespace wlan::trace
