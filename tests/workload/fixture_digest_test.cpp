// Byte-level pins for the cell fixtures the figure sweeps and the
// hidden-terminal study run on, and for the IETF session captures.
//
// Each cell case runs one fixture at a fixed seed and folds everything it
// hands back into a 64-bit FNV-1a digest: the trace::write_csv bytes of the
// returned capture (what the figure pipeline reads), every ground-truth
// TxRecord field, the medium and sniffer tallies, the delay histograms and,
// for the multi-sniffer cell, each raw per-sniffer capture plus the clock
// offsets and merge statistics the merge recovered.  Any change to setup,
// the engine, or the warmup trim / merge harvest moves a digest.
//
// Each session case (day, plenary, churning day) runs a small scenario and
// digests every per-sniffer capture the network hands out, the merged
// capture the analysis reads, the ground truth and the delay histograms.
//
// Every pinned fixture opts in to ground truth (keep_ground_truth).  The
// GroundTruthOptIn cases show that the log is empty at default options and
// that keeping it moves no capture, counter or digest.
//
// A digest that moves on purpose is refreshed in its own commit, with the
// reason in the message; the failure output prints the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/trace_io.hpp"
#include "workload/scenario.hpp"

namespace wlan::workload {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  /// Integers are folded as fixed-width little-endian values, so the digest
  /// does not depend on struct padding or host byte order.
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof b);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string csv_bytes(const trace::Trace& trace) {
  const std::string path = ::testing::TempDir() + "fixture_digest.csv";
  trace::write_csv(trace, path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return ss.str();
}

void add_trace(Fnv1a& fnv, const trace::Trace& trace) {
  fnv.u64(trace.records.size());
  fnv.u64(static_cast<std::uint64_t>(trace.start_us));
  fnv.u64(static_cast<std::uint64_t>(trace.end_us));
  fnv.str(csv_bytes(trace));
}

void add_histogram(Fnv1a& fnv, const util::LogHistogram& h) {
  fnv.u64(h.count());
  for (const double q : {0.5, 0.9, 0.99}) fnv.u64(h.percentile(q));
}

void add_ground_truth(Fnv1a& fnv, const std::vector<trace::TxRecord>& truth) {
  fnv.u64(truth.size());
  for (const trace::TxRecord& t : truth) {
    fnv.u64(static_cast<std::uint64_t>(t.time_us));
    fnv.u64(t.frame_id);
    fnv.u64(static_cast<std::uint64_t>(t.type));
    fnv.u64(t.src);
    fnv.u64(t.dst);
    fnv.u64(t.channel);
    fnv.u64(static_cast<std::uint64_t>(t.rate));
    fnv.u64(t.size_bytes);
    fnv.u64(t.retry ? 1 : 0);
    fnv.u64(t.seq);
    fnv.u64(static_cast<std::uint64_t>(t.outcome));
  }
}

std::string digest(const CellResult& r) {
  Fnv1a fnv;
  add_trace(fnv, r.trace);
  add_ground_truth(fnv, r.ground_truth);
  fnv.u64(r.medium_transmissions);
  fnv.u64(r.medium_collisions);
  fnv.u64(r.sniffer.offered);
  fnv.u64(r.sniffer.captured);
  fnv.u64(r.sniffer.missed_range);
  fnv.u64(r.sniffer.missed_error);
  fnv.u64(r.sniffer.missed_overload);
  fnv.u64(static_cast<std::uint64_t>(r.duration_s * 1e6));
  fnv.u64(r.sniffer_traces.size());
  for (const trace::Trace& t : r.sniffer_traces) add_trace(fnv, t);
  for (const std::int64_t o : r.clock_offsets.offset_us) {
    fnv.u64(static_cast<std::uint64_t>(o));
  }
  for (const std::size_t a : r.clock_offsets.anchors) fnv.u64(a);
  fnv.u64(r.merge_stats.records_in);
  fnv.u64(r.merge_stats.duplicates_dropped);
  fnv.u64(r.merge_stats.emitted);
  add_histogram(fnv, r.queue_delay);
  add_histogram(fnv, r.service_delay);
  return fnv.hex();
}

CellConfig small_cell(std::uint64_t seed) {
  CellConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 12;
  cfg.profile.mean_pps = 6.0;
  cfg.rtscts_fraction = 0.1;
  cfg.duration_s = 6.0;
  cfg.warmup_s = 1.0;
  return cfg;
}

/// `cfg` with the ground-truth log kept, which the pinned digests fold in.
template <class Config>
Config with_ground_truth(Config cfg) {
  cfg.keep_ground_truth = true;
  return cfg;
}

TEST(FixtureDigestTest, SingleSnifferCell) {
  const CellResult r = run_cell(with_ground_truth(small_cell(101)));
  ASSERT_FALSE(r.trace.records.empty());
  ASSERT_FALSE(r.ground_truth.empty());
  EXPECT_TRUE(r.sniffer_traces.empty());
  EXPECT_EQ(digest(r), "36969bff952282be");
}

TEST(FixtureDigestTest, ThreeSnifferCell) {
  CellConfig cfg = with_ground_truth(small_cell(202));
  cfg.num_sniffers = 3;
  const CellResult r = run_cell(cfg);
  ASSERT_FALSE(r.trace.records.empty());
  ASSERT_FALSE(r.ground_truth.empty());
  ASSERT_EQ(r.sniffer_traces.size(), 3u);
  EXPECT_GT(r.merge_stats.duplicates_dropped, 0u);
  EXPECT_EQ(digest(r), "15754a8753d101d4");
}

TEST(FixtureDigestTest, HiddenTerminal) {
  CellConfig cfg = with_ground_truth(small_cell(303));
  cfg.num_users = 8;
  cfg.profile.mean_pps = 20.0;
  cfg.rtscts_fraction = 0.0;
  const CellResult r = run_hidden_terminal(cfg);
  ASSERT_FALSE(r.trace.records.empty());
  ASSERT_FALSE(r.ground_truth.empty());
  EXPECT_GT(r.medium_collisions, 0u);
  EXPECT_EQ(digest(r), "30b244b3bde075a2");
}

/// What a finished session hands out: each sniffer's capture, the merged
/// capture the analysis reads, the ground truth, the delay histograms and
/// every counter the run deposited.
struct SessionOutput {
  std::vector<trace::Trace> traces;
  trace::Trace merged;
  std::vector<trace::TxRecord> ground_truth;
  util::LogHistogram queue_delay;
  util::LogHistogram service_delay;
  obs::Metrics metrics;
};

SessionOutput run_session(const ScenarioConfig& cfg, SessionKind kind) {
  SessionOutput out;
  {
    obs::MetricsScope scope(out.metrics);
    Scenario scenario = kind == SessionKind::kDay ? Scenario::day(cfg)
                                                  : Scenario::plenary(cfg);
    scenario.run();
    scenario.harvest_metrics(out.metrics);
    const sim::Network& net = scenario.network();
    out.traces = net.sniffer_traces();
    out.merged = trace::merge_sniffer_traces(out.traces).trace;
    out.ground_truth = net.ground_truth();
    net.harvest_delays(out.queue_delay, out.service_delay);
    if (scenario.has_churn()) {
      // Some attendees have left, so station teardown is pinned too.
      EXPECT_LT(scenario.churn().live(), scenario.churn().arrivals());
    }
  }
  EXPECT_EQ(out.traces.size(), 3u);
  EXPECT_FALSE(out.merged.records.empty());
  return out;
}

std::string digest(const SessionOutput& s) {
  Fnv1a fnv;
  fnv.u64(s.traces.size());
  for (const trace::Trace& t : s.traces) add_trace(fnv, t);
  add_trace(fnv, s.merged);
  add_ground_truth(fnv, s.ground_truth);
  add_histogram(fnv, s.queue_delay);
  add_histogram(fnv, s.service_delay);
  return fnv.hex();
}

/// Runs a session with its ground truth kept and digests it.
std::string session_digest(const ScenarioConfig& cfg, SessionKind kind) {
  const SessionOutput s = run_session(with_ground_truth(cfg), kind);
  EXPECT_FALSE(s.ground_truth.empty());
  return digest(s);
}

ScenarioConfig small_session(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration_s = 15.0;
  cfg.scale = 0.1;
  return cfg;
}

ScenarioConfig small_churn_session(std::uint64_t seed) {
  ScenarioConfig cfg = small_session(seed);
  cfg.churn_turnover_per_min = 2.0;
  return cfg;
}

TEST(FixtureDigestTest, DaySession) {
  EXPECT_EQ(session_digest(small_session(404), SessionKind::kDay),
            "5309d13a4acbc8c9");
}

TEST(FixtureDigestTest, PlenarySession) {
  EXPECT_EQ(session_digest(small_session(505), SessionKind::kPlenary),
            "6086435e2d25aaf4");
}

TEST(FixtureDigestTest, DayChurnSession) {
  EXPECT_EQ(session_digest(small_churn_session(606), SessionKind::kDay),
            "937e7ea2f4ae8752");
}

void expect_same_counters(const obs::Metrics& a, const obs::Metrics& b) {
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    const auto id = static_cast<obs::Id>(c);
    EXPECT_EQ(a.value(id), b.value(id)) << "counter " << obs::name(id);
  }
}

// At default options no channel logs a TxRecord: not in a cell, not in a
// plenary, not in a churning day.
TEST(GroundTruthOptIn, DefaultOptionsKeepNone) {
  CellConfig cell = small_cell(202);
  cell.num_sniffers = 3;
  const CellResult r = run_cell(cell);
  ASSERT_FALSE(r.trace.records.empty());
  EXPECT_TRUE(r.ground_truth.empty());

  const SessionOutput plenary =
      run_session(small_session(505), SessionKind::kPlenary);
  ASSERT_FALSE(plenary.merged.records.empty());
  EXPECT_TRUE(plenary.ground_truth.empty());

  const SessionOutput day =
      run_session(small_churn_session(606), SessionKind::kDay);
  ASSERT_FALSE(day.merged.records.empty());
  EXPECT_TRUE(day.ground_truth.empty());
}

// Keeping the log changes nothing else: with ground truth left out, the
// kept and the default run give the same capture CSV bytes, counters and
// fixture digest.
TEST(GroundTruthOptIn, KeepingItMovesNoOtherOutput) {
  CellConfig cell = small_cell(202);
  cell.num_sniffers = 3;
  obs::Metrics cell_plain_metrics;
  obs::Metrics cell_kept_metrics;
  CellResult cell_plain;
  CellResult cell_kept;
  {
    obs::MetricsScope scope(cell_plain_metrics);
    cell_plain = run_cell(cell);
  }
  {
    obs::MetricsScope scope(cell_kept_metrics);
    cell_kept = run_cell(with_ground_truth(cell));
  }
  ASSERT_FALSE(cell_kept.ground_truth.empty());
  cell_kept.ground_truth.clear();
  EXPECT_EQ(csv_bytes(cell_plain.trace), csv_bytes(cell_kept.trace));
  expect_same_counters(cell_plain_metrics, cell_kept_metrics);
  EXPECT_EQ(digest(cell_plain), digest(cell_kept));

  for (const auto& [cfg, kind] :
       {std::pair{small_session(505), SessionKind::kPlenary},
        std::pair{small_churn_session(606), SessionKind::kDay}}) {
    SCOPED_TRACE(kind == SessionKind::kDay ? "churning day" : "plenary");
    const SessionOutput plain = run_session(cfg, kind);
    SessionOutput kept = run_session(with_ground_truth(cfg), kind);
    ASSERT_FALSE(kept.ground_truth.empty());
    kept.ground_truth.clear();
    EXPECT_EQ(csv_bytes(plain.merged), csv_bytes(kept.merged));
    expect_same_counters(plain.metrics, kept.metrics);
    EXPECT_EQ(digest(plain), digest(kept));
  }
}

}  // namespace
}  // namespace wlan::workload
