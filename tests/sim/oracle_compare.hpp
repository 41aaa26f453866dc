// Comparison helpers shared by the reference-vs-engine oracle suites
// (batched_reception_oracle_test, sharding_oracle_test): field-wise equality
// of captures and ground truth, and the CSV bytes the figure pipeline reads.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/trace_io.hpp"

namespace wlan::oracle {

// Field-wise equality with float/double compared by exact value (a capture
// SNR differing in the last ulp is a real divergence, not noise).
inline void expect_same_records(const std::vector<trace::CaptureRecord>& a,
                                const std::vector<trace::CaptureRecord>& b,
                                const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what << ": capture count diverged";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    ASSERT_TRUE(x.time_us == y.time_us && x.channel == y.channel &&
                x.rate == y.rate && x.snr_db == y.snr_db &&
                x.type == y.type && x.src == y.src && x.dst == y.dst &&
                x.bssid == y.bssid && x.seq == y.seq && x.retry == y.retry &&
                x.size_bytes == y.size_bytes &&
                x.sniffer_id == y.sniffer_id && x.frame_id == y.frame_id)
        << what << ": capture record " << i << " diverged (frame "
        << x.frame_id << " vs " << y.frame_id << " at " << x.time_us << "/"
        << y.time_us << "us, snr " << x.snr_db << " vs " << y.snr_db << ")";
  }
}

inline void expect_same_ground_truth(const std::vector<trace::TxRecord>& a,
                                     const std::vector<trace::TxRecord>& b,
                                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what << ": TxRecord count diverged";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    ASSERT_TRUE(x.time_us == y.time_us && x.frame_id == y.frame_id &&
                x.type == y.type && x.src == y.src && x.dst == y.dst &&
                x.channel == y.channel && x.rate == y.rate &&
                x.size_bytes == y.size_bytes && x.retry == y.retry &&
                x.seq == y.seq && x.outcome == y.outcome)
        << what << ": TxRecord " << i << " diverged (frame " << x.frame_id
        << " at " << x.time_us << " vs " << y.frame_id << " at " << y.time_us
        << "us)";
  }
}

// The figure pipeline consumes the merged capture through trace::write_csv
// readers; identical CSV bytes means every downstream figure is identical.
// The temporary file is named after the running test, so suites that ctest
// runs in parallel never share one.
inline std::string csv_bytes(const trace::Trace& trace) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "oracle_trace_" +
                           info->test_suite_name() + "_" + info->name() +
                           ".csv";
  trace::write_csv(trace, path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return ss.str();
}

}  // namespace wlan::oracle
