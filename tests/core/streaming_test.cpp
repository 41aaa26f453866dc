// StreamingAnalyzer vs TraceAnalyzer: the push-based path must reproduce
// the batch path exactly — every per-second field, every acceptance sample,
// every figure bin, byte for byte.
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "workload/scenario.hpp"

namespace wlan::core {
namespace {

workload::CellResult congested_cell(std::uint64_t seed = 62,
                                    int num_sniffers = 1) {
  workload::CellConfig cell;
  cell.seed = seed;
  cell.num_sniffers = num_sniffers;
  cell.num_users = 12;
  cell.profile.mean_pps = 40.0;
  cell.duration_s = 8.0;
  cell.warmup_s = 1.0;
  cell.rtscts_fraction = 0.2;  // exercise RTS/CTS counters too
  cell.profile.window = 2;
  return workload::run_cell(cell);
}

void expect_seconds_equal(const SecondStats& a, const SecondStats& b,
                          std::size_t i) {
  EXPECT_EQ(a.second, b.second) << i;
  EXPECT_DOUBLE_EQ(a.cbt_us, b.cbt_us) << i;
  EXPECT_EQ(a.bits_all, b.bits_all) << i;
  EXPECT_EQ(a.bits_good, b.bits_good) << i;
  EXPECT_EQ(a.data, b.data) << i;
  EXPECT_EQ(a.ack, b.ack) << i;
  EXPECT_EQ(a.rts, b.rts) << i;
  EXPECT_EQ(a.cts, b.cts) << i;
  EXPECT_EQ(a.beacon, b.beacon) << i;
  EXPECT_EQ(a.mgmt, b.mgmt) << i;
  for (std::size_t r = 0; r < phy::kNumRates; ++r) {
    EXPECT_DOUBLE_EQ(a.cbt_us_by_rate[r], b.cbt_us_by_rate[r]) << i;
    EXPECT_EQ(a.bytes_by_rate[r], b.bytes_by_rate[r]) << i;
    EXPECT_EQ(a.first_attempt_acked[r], b.first_attempt_acked[r]) << i;
    EXPECT_EQ(a.acked_by_rate[r], b.acked_by_rate[r]) << i;
    EXPECT_EQ(a.retries_by_rate[r], b.retries_by_rate[r]) << i;
  }
  EXPECT_EQ(a.tx_by_category, b.tx_by_category) << i;
}

TEST(StreamingAnalyzerTest, DefaultSinkEqualsBatchAnalyze) {
  const auto cell = congested_cell();
  const auto batch = TraceAnalyzer{}.analyze(cell.trace);

  StreamingAnalyzer streaming;
  streaming.set_bounds(cell.trace.start_us, cell.trace.end_us);
  for (const auto& r : cell.trace.records) streaming.push(r);
  const auto pushed = streaming.finish();

  ASSERT_EQ(pushed.seconds.size(), batch.seconds.size());
  for (std::size_t i = 0; i < batch.seconds.size(); ++i) {
    expect_seconds_equal(pushed.seconds[i], batch.seconds[i], i);
  }
  ASSERT_EQ(pushed.acceptance.size(), batch.acceptance.size());
  for (std::size_t i = 0; i < batch.acceptance.size(); ++i) {
    EXPECT_EQ(pushed.acceptance[i].second, batch.acceptance[i].second);
    EXPECT_EQ(pushed.acceptance[i].category, batch.acceptance[i].category);
    EXPECT_DOUBLE_EQ(pushed.acceptance[i].delay_us,
                     batch.acceptance[i].delay_us);
  }
  EXPECT_EQ(pushed.total_frames, batch.total_frames);
  EXPECT_EQ(pushed.total_data, batch.total_data);
  EXPECT_EQ(pushed.total_acks, batch.total_acks);
  EXPECT_EQ(pushed.total_rts, batch.total_rts);
  EXPECT_EQ(pushed.total_cts, batch.total_cts);
  EXPECT_EQ(pushed.start_us, batch.start_us);
  ASSERT_EQ(pushed.senders.size(), batch.senders.size());
  for (const auto& [addr, st] : batch.senders) {
    const auto it = pushed.senders.find(addr);
    ASSERT_NE(it, pushed.senders.end());
    EXPECT_EQ(it->second.data_tx, st.data_tx);
    EXPECT_EQ(it->second.data_acked, st.data_acked);
    EXPECT_EQ(it->second.rts_tx, st.rts_tx);
    EXPECT_EQ(it->second.uses_rtscts, st.uses_rtscts);
  }
}

/// A caller's sink drains seconds and samples, the result's vectors stay
/// empty, and the figure accumulator state is bit-identical
/// to the batch add() path — checked through the rendered CSV bytes.
TEST(StreamingAnalyzerTest, DrainingSinkFiguresAreByteIdentical) {
  const auto cell = congested_cell();
  const auto batch = TraceAnalyzer{}.analyze(cell.trace);
  FigureAccumulator batch_acc;
  batch_acc.add(batch);

  FigureAccumulator drained_acc;
  FigureStreamSink sink(drained_acc);
  StreamingAnalyzer streaming({}, &sink);
  streaming.set_bounds(cell.trace.start_us, cell.trace.end_us);
  for (const auto& r : cell.trace.records) streaming.push(r);
  const auto drained = streaming.finish();
  drained_acc.add_senders(drained.senders);

  EXPECT_TRUE(drained.seconds.empty());
  EXPECT_TRUE(drained.acceptance.empty());
  EXPECT_EQ(drained.total_frames, batch.total_frames);
  EXPECT_EQ(drained_acc.seconds_absorbed(), batch_acc.seconds_absorbed());

  const std::string dir = ::testing::TempDir();
  const auto bytes_of = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  const std::pair<FigureSeries, FigureSeries> figs[] = {
      {batch_acc.fig06_throughput_goodput(),
       drained_acc.fig06_throughput_goodput()},
      {batch_acc.fig08_busytime_share(), drained_acc.fig08_busytime_share()},
      {batch_acc.fig14_first_attempt_acked(),
       drained_acc.fig14_first_attempt_acked()},
      {batch_acc.fig15_acceptance_delay(),
       drained_acc.fig15_acceptance_delay()},
  };
  for (const auto& [a, b] : figs) {
    const std::string pa = dir + "batch_fig.csv", pb = dir + "drain_fig.csv";
    write_figure_csv(a, pa);
    write_figure_csv(b, pb);
    EXPECT_EQ(bytes_of(pa), bytes_of(pb)) << a.title;
    std::remove(pa.c_str());
    std::remove(pb.c_str());
  }

  // Fig. 5-style per-second series: the CSV sink fed while streaming
  // against the same sink fed the batch result's seconds.
  const std::string ps = dir + "stream_seconds.csv";
  const std::string pm = dir + "batch_seconds.csv";
  {
    FigureAccumulator acc2;
    FigureStreamSink figures(acc2);
    SecondsCsvSink seconds(ps);
    // Both sinks in one pass, like wlan_analyze.
    TeeSink tee({&figures, &seconds});
    StreamingAnalyzer s2({}, &tee);
    s2.set_bounds(cell.trace.start_us, cell.trace.end_us);
    for (const auto& r : cell.trace.records) s2.push(r);
    (void)s2.finish();
  }
  {
    SecondsCsvSink seconds(pm);
    for (const SecondStats& s : batch.seconds) seconds.on_second(s);
  }
  EXPECT_EQ(bytes_of(ps), bytes_of(pm));
  std::remove(ps.c_str());
  std::remove(pm.c_str());
}

void expect_totals_equal(const UnrecordedTotals& a, const UnrecordedTotals& b,
                         const char* what) {
  EXPECT_EQ(a.captured, b.captured) << what;
  EXPECT_EQ(a.missed_data, b.missed_data) << what;
  EXPECT_EQ(a.missed_rts, b.missed_rts) << what;
  EXPECT_EQ(a.missed_cts, b.missed_cts) << what;
}

/// The §4.4 rules run inside the analyzer: with the default sink and with a
/// caller's sink it carries exactly the standalone estimator's totals.
TEST(StreamingAnalyzerTest, UnrecordedTotalsMatchTheStandaloneEstimator) {
  // One exchange of each kind the rules judge, then one frame per rule
  // whose partner went unrecorded.
  const auto rec = [](std::int64_t t, mac::FrameType type, mac::Addr src,
                      mac::Addr dst) {
    trace::CaptureRecord r;
    r.time_us = t;
    r.type = type;
    r.src = src;
    r.dst = dst;
    r.bssid = type == mac::FrameType::kData ? 1 : mac::kNoAddr;
    r.size_bytes = type == mac::FrameType::kData ? 500 : 14;
    r.rate = phy::Rate::kR11;
    return r;
  };
  using mac::FrameType;
  trace::Trace rules;
  rules.records = {
      rec(0, FrameType::kData, 2, 1),        rec(600, FrameType::kAck, 1, 2),
      rec(10'000, FrameType::kRts, 3, 1),    rec(10'362, FrameType::kCts, 1, 3),
      rec(10'700, FrameType::kData, 3, 1),   rec(11'300, FrameType::kAck, 1, 3),
      rec(100'000, FrameType::kAck, 1, 2),   // missed DATA
      rec(200'000, FrameType::kCts, 1, 4),   // missed RTS
      rec(300'000, FrameType::kRts, 5, 1),
      rec(300'700, FrameType::kData, 5, 1),  // missed CTS
      rec(301'300, FrameType::kAck, 1, 5),
  };
  rules.start_us = 0;
  rules.end_us = rules.records.back().time_us;
  const UnrecordedTotals rules_totals = estimate_unrecorded(rules).totals;
  EXPECT_EQ(rules_totals.missed_data, 1u);
  EXPECT_EQ(rules_totals.missed_rts, 1u);
  EXPECT_EQ(rules_totals.missed_cts, 1u);

  const workload::CellResult cell = congested_cell(62, 3);
  ASSERT_EQ(cell.sniffer_traces.size(), 3u);
  EXPECT_GT(estimate_unrecorded(cell.trace).totals.missed(), 0u);

  struct Discard final : AnalysisSink {
    void on_second(const SecondStats&) override {}
    void on_acceptance(const AcceptanceSample&, double) override {}
  } discard;
  const trace::Trace* const traces[] = {&rules, &cell.trace};
  for (const trace::Trace* t : traces) {
    const UnrecordedTotals expected = estimate_unrecorded(*t).totals;
    expect_totals_equal(TraceAnalyzer{}.analyze(*t).unrecorded, expected,
                        "batch");
    for (AnalysisSink* sink : {static_cast<AnalysisSink*>(nullptr),
                               static_cast<AnalysisSink*>(&discard)}) {
      StreamingAnalyzer streaming({}, sink);
      streaming.set_bounds(t->start_us, t->end_us);
      for (const auto& r : t->records) streaming.push(r);
      expect_totals_equal(streaming.finish().unrecorded, expected,
                          sink ? "caller's sink" : "default sink");
    }
  }
}

TEST(StreamingAnalyzerTest, UnsortedPushThrows) {
  StreamingAnalyzer streaming;
  trace::CaptureRecord a, b, c;
  a.time_us = 10'000;
  b.time_us = 5'000;  // 5 ms backwards: far beyond capture jitter
  c.time_us = 20'000;
  streaming.push(a);
  streaming.push(b);  // b is only held; a has no successor issue yet
  EXPECT_THROW(streaming.push(c), std::invalid_argument);
}

/// A capture drifting backwards a few microseconds per record keeps every
/// record within 10 us of its predecessor, but not of the latest record
/// seen.  The guard measures from the latest one, so the drift throws
/// whatever the sink; it would otherwise land in a second that was already
/// emitted.
TEST(StreamingAnalyzerTest, DriftingCaptureThrows) {
  std::vector<trace::CaptureRecord> drift(6);
  drift[1].time_us = 1'000'020;  // finalizes second 0
  for (std::size_t i = 2; i < drift.size(); ++i) {
    drift[i].time_us = drift[i - 1].time_us - 6;
  }
  const auto stream = [&](AnalysisSink* sink) {
    StreamingAnalyzer streaming({}, sink);
    for (const auto& r : drift) streaming.push(r);
    (void)streaming.finish();
  };
  EXPECT_THROW(stream(nullptr), std::invalid_argument);

  struct Discard final : AnalysisSink {
    void on_second(const SecondStats&) override {}
    void on_acceptance(const AcceptanceSample&, double) override {}
  } discard;
  EXPECT_THROW(stream(&discard), std::invalid_argument);
}

TEST(StreamingAnalyzerTest, BoundsPadEmptyTrailingSeconds) {
  StreamingAnalyzer streaming;
  streaming.set_bounds(0, 5'500'000);  // 5.5 s session, one early frame
  trace::CaptureRecord r;
  r.time_us = 100;
  r.type = mac::FrameType::kData;
  r.src = 2;
  r.size_bytes = 500;
  streaming.push(r);
  const auto result = streaming.finish();
  ASSERT_EQ(result.seconds.size(), 6u);
  EXPECT_GT(result.seconds[0].data, 0u);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(result.seconds[i].data, 0u) << i;
    EXPECT_EQ(result.seconds[i].second, static_cast<std::int64_t>(i));
  }
}

/// Regression: session bounds extending far past the last ACK must not
/// drop acceptance samples (the finish-time padding used to
/// prune the sample's second out of the utilization tail before flushing).
TEST(StreamingAnalyzerTest, LongTrailingPaddingKeepsAcceptanceSamples) {
  trace::Trace t;
  trace::CaptureRecord d;
  d.time_us = 100;
  d.type = mac::FrameType::kData;
  d.src = 2;
  d.dst = 3;
  d.seq = 5;
  d.size_bytes = 500;
  d.rate = phy::Rate::kR11;
  trace::CaptureRecord a;
  a.time_us = 700;  // within data airtime + SIFS + slack of the DATA start
  a.type = mac::FrameType::kAck;
  a.dst = 2;
  a.size_bytes = mac::kAckBytes;
  t.records = {d, a};
  t.start_us = 0;
  t.end_us = 25'000'000;  // 25 s session, all quiet after the exchange

  const auto batch = TraceAnalyzer{}.analyze(t);
  ASSERT_EQ(batch.acceptance.size(), 1u);

  struct Counter final : AnalysisSink {
    std::size_t seconds = 0, samples = 0;
    void on_second(const SecondStats&) override { ++seconds; }
    void on_acceptance(const AcceptanceSample&, double) override { ++samples; }
  } counter;
  StreamingAnalyzer streaming({}, &counter);
  streaming.set_bounds(t.start_us, t.end_us);
  for (const auto& r : t.records) streaming.push(r);
  (void)streaming.finish();
  EXPECT_EQ(counter.seconds, batch.seconds.size());
  EXPECT_EQ(counter.samples, 1u);
}

/// One delivery path: a caller's sink receives exactly the seconds (session
/// padding included) and acceptance samples the default sink collects, in
/// the same order, each sample with its second's final utilization.
TEST(StreamingAnalyzerTest, CallerSinkSeesWhatTheDefaultSinkCollects) {
  trace::Trace padded = congested_cell().trace;
  padded.end_us += 3'000'000;
  const AnalysisResult collected = TraceAnalyzer{}.analyze(padded);
  ASSERT_FALSE(collected.acceptance.empty());

  struct Recorder final : AnalysisSink {
    std::vector<SecondStats> seconds;
    std::vector<std::pair<AcceptanceSample, double>> samples;
    void on_second(const SecondStats& s) override { seconds.push_back(s); }
    void on_acceptance(const AcceptanceSample& sample,
                       double utilization_pct) override {
      samples.emplace_back(sample, utilization_pct);
    }
  } recorder;
  StreamingAnalyzer streaming({}, &recorder);
  streaming.set_bounds(padded.start_us, padded.end_us);
  for (const auto& r : padded.records) streaming.push(r);
  (void)streaming.finish();

  ASSERT_EQ(recorder.seconds.size(), collected.seconds.size());
  for (std::size_t i = 0; i < collected.seconds.size(); ++i) {
    expect_seconds_equal(recorder.seconds[i], collected.seconds[i], i);
  }
  ASSERT_EQ(recorder.samples.size(), collected.acceptance.size());
  for (std::size_t i = 0; i < collected.acceptance.size(); ++i) {
    const auto& [sample, utilization] = recorder.samples[i];
    const AcceptanceSample& want = collected.acceptance[i];
    EXPECT_EQ(sample.second, want.second) << i;
    EXPECT_EQ(sample.category, want.category) << i;
    EXPECT_DOUBLE_EQ(sample.delay_us, want.delay_us) << i;
    EXPECT_DOUBLE_EQ(
        utilization,
        collected.seconds[static_cast<std::size_t>(want.second)].utilization())
        << i;
  }
}

/// Counts the seconds an analysis emits and keeps the last one's index.
struct SecondCounter final : AnalysisSink {
  std::size_t seconds = 0;
  std::int64_t last_second = -1;
  void on_second(const SecondStats& s) override {
    ++seconds;
    last_second = s.second;
  }
  void on_acceptance(const AcceptanceSample&, double) override {}
};

/// A capture may span exactly 7 days, and every second of it streams out.
/// A record 1 us later is a typed error raised before any second is made.
TEST(StreamingAnalyzerTest, CaptureSpansAtMostSevenDays) {
  constexpr std::int64_t kWeekUs = 604'800'000'000;
  trace::CaptureRecord first, last;
  first.time_us = 1'000;
  last.time_us = first.time_us + kWeekUs;

  SecondCounter accepted;
  StreamingAnalyzer week({}, &accepted);
  week.push(first);
  week.push(last);
  (void)week.finish();
  EXPECT_EQ(accepted.seconds, 604'801u);
  EXPECT_EQ(accepted.last_second, 604'800);

  SecondCounter rejected;
  StreamingAnalyzer longer({}, &rejected);
  longer.push(first);
  ++last.time_us;
  try {
    longer.push(last);
    ADD_FAILURE() << "a record 7 days and 1 us after the start was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record at 604800001001 us"), std::string::npos)
        << what;
    EXPECT_NE(what.find("more than 604800 s"), std::string::npos) << what;
    EXPECT_NE(what.find("capture start at 1000 us"), std::string::npos)
        << what;
  }
  EXPECT_EQ(rejected.seconds, 0u);
}

/// Session bounds at the int64 limits are rejected at the first push,
/// without overflow and before any second is made.
TEST(StreamingAnalyzerTest, ExtremeBoundsThrowAtTheFirstPush) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  trace::CaptureRecord r;
  r.time_us = 1'000;
  for (const auto& [start, end] :
       {std::pair{kMin, std::int64_t{2'000}}, std::pair{std::int64_t{0}, kMax},
        std::pair{kMin, kMax}}) {
    SecondCounter counter;
    StreamingAnalyzer streaming({}, &counter);
    streaming.set_bounds(start, end);
    EXPECT_THROW(streaming.push(r), std::invalid_argument)
        << start << ", " << end;
    EXPECT_EQ(counter.seconds, 0u);
  }
}

TEST(StreamingAnalyzerTest, NoRecordsMeansEmptyResult) {
  StreamingAnalyzer streaming;
  streaming.set_bounds(0, 10'000'000);
  const auto result = streaming.finish();
  EXPECT_TRUE(result.seconds.empty());
  EXPECT_EQ(result.total_frames, 0u);
}

}  // namespace
}  // namespace wlan::core
