#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <string>

#include "core/analyzer.hpp"
#include "trace/reader.hpp"

namespace wlan::trace {
namespace {

Trace sample_trace() {
  Trace t;
  t.start_us = 1000;
  t.end_us = 99'000;
  for (int i = 0; i < 50; ++i) {
    CaptureRecord r;
    r.time_us = 1000 + i * 1963;
    r.channel = static_cast<std::uint8_t>(i % 3 == 0 ? 1 : (i % 3 == 1 ? 6 : 11));
    r.rate = static_cast<phy::Rate>(i % 4);
    r.snr_db = 10.0f + static_cast<float>(i) * 0.25f;
    r.type = static_cast<mac::FrameType>(i % 8);
    r.src = static_cast<mac::Addr>(i);
    r.dst = static_cast<mac::Addr>(i + 1);
    r.bssid = static_cast<mac::Addr>(i % 5);
    r.seq = static_cast<std::uint16_t>(i * 3);
    r.retry = i % 2 == 0;
    r.size_bytes = 34 + static_cast<std::uint32_t>(i) * 29;
    r.sniffer_id = static_cast<std::uint8_t>(i % 3);
    r.frame_id = 1000ULL + static_cast<std::uint64_t>(i);
    t.records.push_back(r);
  }
  return t;
}

void expect_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& x = a.records[i];
    const auto& y = b.records[i];
    EXPECT_EQ(x.time_us, y.time_us) << i;
    EXPECT_EQ(x.channel, y.channel) << i;
    EXPECT_EQ(x.rate, y.rate) << i;
    EXPECT_NEAR(x.snr_db, y.snr_db, 1e-4) << i;
    EXPECT_EQ(x.type, y.type) << i;
    EXPECT_EQ(x.src, y.src) << i;
    EXPECT_EQ(x.dst, y.dst) << i;
    EXPECT_EQ(x.bssid, y.bssid) << i;
    EXPECT_EQ(x.seq, y.seq) << i;
    EXPECT_EQ(x.retry, y.retry) << i;
    EXPECT_EQ(x.size_bytes, y.size_bytes) << i;
    EXPECT_EQ(x.sniffer_id, y.sniffer_id) << i;
    EXPECT_EQ(x.frame_id, y.frame_id) << i;
  }
}

class TraceIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Overwrites one byte of the file at path_.
  void patch_byte(std::size_t offset, char value) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(value);
  }

  /// Writes a CSV with write_csv's header and the given rows.
  void write_rows(std::initializer_list<const char*> rows) {
    std::ofstream out(path_);
    out << "time_us,channel,rate,snr_db,type,src,dst,bssid,seq,retry,"
           "size_bytes,sniffer_id,frame_id\n";
    for (const char* row : rows) out << row << '\n';
  }

  /// The message of the std::runtime_error `read` throws, or "" if it
  /// returns normally.
  template <typename F>
  static std::string error_of(F read) {
    try {
      read();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }

  std::string path_ = ::testing::TempDir() + "trace_io_test.bin";
};

// On-disk layout: a 32-byte header, then 37-byte records with the rate byte
// at +9 and the frame-type byte at +14.  These are record 3's rate byte and
// record 4's frame-type byte.
constexpr std::size_t kRateByte = 32 + 37 * 3 + 9;
constexpr std::size_t kTypeByte = 32 + 37 * 4 + 14;
// The header's little-endian 64-bit record count.
constexpr std::size_t kCountField = 24;

constexpr const char* kGoodRow = "1000,6,11,20.5,DATA,1,2,3,4,0,100,0,7";

TEST_F(TraceIoTest, BinaryRoundTrip) {
  const Trace original = sample_trace();
  write_binary(original, path_);
  const Trace loaded = read_binary(path_);
  EXPECT_EQ(loaded.start_us, original.start_us);
  EXPECT_EQ(loaded.end_us, original.end_us);
  expect_equal(original, loaded);
}

TEST_F(TraceIoTest, BinaryEmptyTrace) {
  Trace empty;
  write_binary(empty, path_);
  EXPECT_TRUE(read_binary(path_).records.empty());
}

TEST_F(TraceIoTest, BinaryRejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a trace file at all, but long enough to have a header";
  }
  EXPECT_THROW(read_binary(path_), std::runtime_error);
}

TEST_F(TraceIoTest, BinaryRejectsTruncatedFile) {
  write_binary(sample_trace(), path_);
  // Truncate mid-records.
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_THROW(read_binary(path_), std::runtime_error);
}

TEST_F(TraceIoTest, BinaryRejectsRecordCountPastTheFile) {
  // A 96-byte file whose header claims ceil(2^64 / 37) records: their byte
  // count wraps to 25 in 64-bit arithmetic, so it fits a naive size check.
  constexpr std::uint64_t kCount =
      std::numeric_limits<std::uint64_t>::max() / 37 + 1;
  static_assert(kCount * 37 == 25);
  write_binary(Trace{}, path_);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << std::string(64, '\0');
  }
  for (std::size_t i = 0; i < 8; ++i) {
    patch_byte(kCountField + i, static_cast<char>(kCount >> (8 * i)));
  }
  const std::string err = error_of([&] { read_binary(path_); });
  EXPECT_NE(err.find("truncated records in " + path_), std::string::npos)
      << err;
}

/// Record times past 2^53 us either side of 0 stop at the reader, so the
/// merge and the analyzer never do arithmetic near the int64 limits.
TEST_F(TraceIoTest, BinaryRejectsRecordTimesPastTheLimit) {
  Trace t = sample_trace();
  write_binary(t, path_);
  EXPECT_EQ(read_binary(path_).records.size(), t.records.size());
  for (const std::int64_t time_us :
       {kMaxRecordTimeUs + 1, -kMaxRecordTimeUs - 1,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    t.records[2].time_us = time_us;
    write_binary(t, path_);
    const std::string err = error_of([&] { read_binary(path_); });
    EXPECT_NE(err.find("record 2: bad time_us"), std::string::npos)
        << time_us << ": " << err;
  }
  t.records[2].time_us = kMaxRecordTimeUs;
  write_binary(t, path_);
  EXPECT_EQ(read_binary(path_).records[2].time_us, kMaxRecordTimeUs);
}

TEST_F(TraceIoTest, BinaryRejectsNonFiniteSnr) {
  Trace t = sample_trace();
  for (const float snr : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    t.records[1].snr_db = snr;
    write_binary(t, path_);
    const std::string err = error_of([&] { read_binary(path_); });
    EXPECT_NE(err.find("record 1: bad snr_db"), std::string::npos)
        << snr << ": " << err;
  }
}

TEST_F(TraceIoTest, BinaryRejectsOutOfRangeRateByte) {
  write_binary(sample_trace(), path_);
  patch_byte(kRateByte, 7);
  const std::string err = error_of([&] { read_binary(path_); });
  EXPECT_NE(err.find(path_), std::string::npos) << err;
  EXPECT_NE(err.find("record 3: bad rate"), std::string::npos) << err;
}

TEST_F(TraceIoTest, BinaryRejectsOutOfRangeFrameTypeByte) {
  write_binary(sample_trace(), path_);
  patch_byte(kTypeByte, 8);
  const std::string err = error_of([&] { read_binary(path_); });
  EXPECT_NE(err.find(path_), std::string::npos) << err;
  EXPECT_NE(err.find("record 4: bad frame type"), std::string::npos) << err;
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_binary("/nonexistent/file.bin"), std::runtime_error);
  EXPECT_THROW(read_csv("/nonexistent/file.csv"), std::runtime_error);
  EXPECT_THROW(write_binary(Trace{}, "/nonexistent-dir/x.bin"),
               std::runtime_error);
}

/// The reader passes a .trace header's session bounds on as written; an
/// end bound at INT64_MAX is the analyzer's typed error, not one second
/// after another to the end of the int64 range.
TEST_F(TraceIoTest, RunawayEndBoundIsATypedAnalysisError) {
  Trace t = sample_trace();
  t.end_us = std::numeric_limits<std::int64_t>::max();
  const std::string path = ::testing::TempDir() + "trace_io_test_runaway.trace";
  write_binary(t, path);
  const Trace loaded = read_capture(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.end_us, t.end_us);
  EXPECT_THROW((void)core::TraceAnalyzer{}.analyze(loaded),
               std::invalid_argument);
}

TEST_F(TraceIoTest, CsvRoundTrip) {
  const Trace original = sample_trace();
  write_csv(original, path_);
  const Trace loaded = read_csv(path_);
  expect_equal(original, loaded);
}

TEST_F(TraceIoTest, CsvRejectsMalformedRows) {
  {
    std::ofstream out(path_);
    out << "header\n1,2,3\n";
  }
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

TEST_F(TraceIoTest, CsvRejectsTrailingCharacters) {
  write_rows({kGoodRow, "1000x,6,11,20.5,DATA,1,2,3,4,0,100,0,7"});
  const std::string err = error_of([&] { read_csv(path_); });
  EXPECT_NE(err.find(path_ + " line 3: bad time_us"), std::string::npos)
      << err;
}

TEST_F(TraceIoTest, CsvRejectsValuesOutsideTheFieldsRange) {
  write_rows({"1000,262,11,20.5,DATA,1,2,3,4,0,100,0,7"});
  EXPECT_NE(error_of([&] { read_csv(path_); }).find("line 2: bad channel"),
            std::string::npos);
  write_rows({"1000,6,11,20.5,DATA,70001,2,3,4,0,100,0,7"});
  EXPECT_NE(error_of([&] { read_csv(path_); }).find("line 2: bad src"),
            std::string::npos);
  write_rows({"1000,6,11,20.5,DATA,1,2,3,-1,0,100,0,7"});
  EXPECT_NE(error_of([&] { read_csv(path_); }).find("line 2: bad seq"),
            std::string::npos);
  write_rows({"9007199254740993,6,11,20.5,DATA,1,2,3,4,0,100,0,7"});
  EXPECT_NE(error_of([&] { read_csv(path_); }).find("line 2: bad time_us"),
            std::string::npos);
  for (const char* row : {"1000,6,11,nan,DATA,1,2,3,4,0,100,0,7",
                          "1000,6,11,inf,DATA,1,2,3,4,0,100,0,7"}) {
    write_rows({row});
    EXPECT_NE(error_of([&] { read_csv(path_); }).find("line 2: bad snr_db"),
              std::string::npos)
        << row;
  }
  // frame_type_name's fallback for an out-of-range type names no type.
  write_rows({"1000,6,11,20.5,?,1,2,3,4,0,100,0,7"});
  EXPECT_NE(error_of([&] { read_csv(path_); }).find("line 2: bad type"),
            std::string::npos);
}

TEST_F(TraceIoTest, CsvRetryMustBeZeroOrOne) {
  write_rows({kGoodRow, "1000,6,11,20.5,DATA,1,2,3,4,yes,100,0,7"});
  EXPECT_NE(error_of([&] { read_csv(path_); }).find("line 3: bad retry"),
            std::string::npos);
  write_rows({kGoodRow, "1000,6,11,20.5,DATA,1,2,3,4,1,100,0,7"});
  EXPECT_TRUE(read_csv(path_).records.back().retry);
}

TEST_F(TraceIoTest, CsvNonNumericCellNamesFileLineAndField) {
  write_rows({kGoodRow, kGoodRow, "1000,6,11,20.5,DATA,1,2,3,4,0,big,0,7"});
  const std::string err = error_of([&] { read_csv(path_); });
  EXPECT_EQ(err, "read_csv: " + path_ + " line 4: bad size_bytes \"big\"");
}

TEST_F(TraceIoTest, CsvRejectsEmptyFile) {
  { std::ofstream out(path_); }
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

}  // namespace
}  // namespace wlan::trace
