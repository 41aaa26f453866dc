// Byte-level pins for the cell fixtures the figure sweeps and the
// hidden-terminal study run on.
//
// Each case runs one fixture at a fixed seed and folds everything it hands
// back into a 64-bit FNV-1a digest: the trace::write_csv bytes of the
// returned capture (what the figure pipeline reads), every ground-truth
// TxRecord field, the medium and sniffer tallies, the delay histograms and,
// for the multi-sniffer cell, each raw per-sniffer capture plus the clock
// offsets and merge statistics the merge recovered.  Any change to setup,
// the engine, or the warmup trim / sort / merge harvest moves a digest.
//
// A digest that moves on purpose is refreshed in its own commit, with the
// reason in the message; the failure output prints the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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

std::string digest(const CellResult& r) {
  Fnv1a fnv;
  add_trace(fnv, r.trace);
  fnv.u64(r.ground_truth.size());
  for (const trace::TxRecord& t : r.ground_truth) {
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
  cfg.per_user_pps = 6.0;
  cfg.rtscts_fraction = 0.1;
  cfg.duration_s = 6.0;
  cfg.warmup_s = 1.0;
  return cfg;
}

TEST(FixtureDigestTest, SingleSnifferCell) {
  const CellResult r = run_cell(small_cell(101));
  ASSERT_FALSE(r.trace.records.empty());
  ASSERT_FALSE(r.ground_truth.empty());
  EXPECT_TRUE(r.sniffer_traces.empty());
  EXPECT_EQ(digest(r), "36969bff952282be");
}

TEST(FixtureDigestTest, ThreeSnifferCell) {
  CellConfig cfg = small_cell(202);
  cfg.num_sniffers = 3;
  const CellResult r = run_cell(cfg);
  ASSERT_FALSE(r.trace.records.empty());
  ASSERT_EQ(r.sniffer_traces.size(), 3u);
  EXPECT_GT(r.merge_stats.duplicates_dropped, 0u);
  EXPECT_EQ(digest(r), "15754a8753d101d4");
}

TEST(FixtureDigestTest, HiddenTerminal) {
  CellConfig cfg = small_cell(303);
  cfg.num_users = 8;
  cfg.per_user_pps = 20.0;
  cfg.rtscts_fraction = 0.0;
  const CellResult r = run_hidden_terminal(cfg);
  ASSERT_FALSE(r.trace.records.empty());
  EXPECT_GT(r.medium_collisions, 0u);
  EXPECT_EQ(digest(r), "30b244b3bde075a2");
}

}  // namespace
}  // namespace wlan::workload
