#include "trace/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

namespace wlan::trace {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "pcap_test.pcap";
};

CaptureRecord data_record() {
  CaptureRecord r;
  r.time_us = 3'000'123;
  r.channel = 6;
  r.rate = phy::Rate::kR11;
  r.snr_db = 25.0f;
  r.type = mac::FrameType::kData;
  r.src = 17;
  r.dst = 42;
  r.bssid = 99;
  r.seq = 777;
  r.retry = true;
  r.size_bytes = 1506;
  return r;
}

TEST_F(PcapTest, DataFrameRoundTripsAllFields) {
  Trace t;
  t.records.push_back(data_record());
  write_pcap(t, path_);
  const Trace loaded = read_pcap(path_);
  ASSERT_EQ(loaded.records.size(), 1u);
  const auto& r = loaded.records[0];
  EXPECT_EQ(r.time_us, 3'000'123);
  EXPECT_EQ(r.channel, 6);
  EXPECT_EQ(r.rate, phy::Rate::kR11);
  EXPECT_NEAR(r.snr_db, 25.0f, 0.51f);  // dBm fields quantize to integers
  EXPECT_EQ(r.type, mac::FrameType::kData);
  EXPECT_EQ(r.src, 17);
  EXPECT_EQ(r.dst, 42);
  EXPECT_EQ(r.bssid, 99);
  EXPECT_EQ(r.seq, 777);
  EXPECT_TRUE(r.retry);
  EXPECT_EQ(r.size_bytes, 1506u);
}

TEST_F(PcapTest, AckLosesTransmitterAddressByDesign) {
  // Real ACK frames carry only the receiver address; the codec documents
  // (and this test freezes) that src does not survive.
  Trace t;
  CaptureRecord r;
  r.type = mac::FrameType::kAck;
  r.src = 5;
  r.dst = 6;
  r.rate = phy::Rate::kR1;
  r.size_bytes = 14;
  t.records.push_back(r);
  write_pcap(t, path_);
  const Trace loaded = read_pcap(path_);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].dst, 6);
  EXPECT_EQ(loaded.records[0].src, mac::kNoAddr);
  EXPECT_EQ(loaded.records[0].type, mac::FrameType::kAck);
}

TEST_F(PcapTest, RtsKeepsBothAddresses) {
  Trace t;
  CaptureRecord r;
  r.type = mac::FrameType::kRts;
  r.src = 5;
  r.dst = 6;
  r.rate = phy::Rate::kR1;
  r.size_bytes = 20;
  t.records.push_back(r);
  write_pcap(t, path_);
  const Trace loaded = read_pcap(path_);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].src, 5);
  EXPECT_EQ(loaded.records[0].dst, 6);
}

TEST_F(PcapTest, EveryFrameTypeSurvives) {
  Trace t;
  for (int type = 0; type < 8; ++type) {
    CaptureRecord r;
    r.type = static_cast<mac::FrameType>(type);
    r.time_us = type * 1000;
    r.src = 1;
    r.dst = 2;
    r.bssid = 3;
    r.size_bytes = 60;
    t.records.push_back(r);
  }
  write_pcap(t, path_);
  const Trace loaded = read_pcap(path_);
  ASSERT_EQ(loaded.records.size(), 8u);
  for (int type = 0; type < 8; ++type) {
    EXPECT_EQ(loaded.records[type].type, static_cast<mac::FrameType>(type));
  }
}

TEST_F(PcapTest, ChannelFrequencyMapping) {
  Trace t;
  for (std::uint8_t ch : {1, 6, 11}) {
    CaptureRecord r = data_record();
    r.channel = ch;
    t.records.push_back(r);
  }
  write_pcap(t, path_);
  const Trace loaded = read_pcap(path_);
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_EQ(loaded.records[0].channel, 1);
  EXPECT_EQ(loaded.records[1].channel, 6);
  EXPECT_EQ(loaded.records[2].channel, 11);
}

TEST_F(PcapTest, AllRatesSurvive) {
  Trace t;
  for (phy::Rate rate : phy::kAllRates) {
    CaptureRecord r = data_record();
    r.rate = rate;
    t.records.push_back(r);
  }
  write_pcap(t, path_);
  const Trace loaded = read_pcap(path_);
  ASSERT_EQ(loaded.records.size(), phy::kNumRates);
  for (std::size_t i = 0; i < phy::kNumRates; ++i) {
    EXPECT_EQ(loaded.records[i].rate, phy::kAllRates[i]);
  }
}

TEST_F(PcapTest, RejectsGarbageFile) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a pcap";
  }
  EXPECT_THROW(read_pcap(path_), std::runtime_error);
}

TEST_F(PcapTest, MissingFileThrows) {
  EXPECT_THROW(read_pcap("/nonexistent/file.pcap"), std::runtime_error);
  EXPECT_THROW(write_pcap(Trace{}, "/nonexistent-dir/x.pcap"),
               std::runtime_error);
}

TEST_F(PcapTest, EmptyTraceRoundTrips) {
  write_pcap(Trace{}, path_);
  EXPECT_TRUE(read_pcap(path_).records.empty());
}

/// The message of the std::runtime_error write_pcap throws, or "".
std::string write_error(const Trace& t, const std::string& path) {
  try {
    write_pcap(t, path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(PcapTest, TimestampsOutsideUnsigned32BitSecondsRejected) {
  // pcap's seconds are unsigned 32-bit; a negative stamp (possible with a
  // negative sniffer clock offset) or one at 2^32 s must be a clear error,
  // not a silent wrap.
  constexpr std::int64_t kLastUs = (std::int64_t{1} << 32) * 1'000'000 - 1;
  Trace t;
  t.records.push_back(data_record());
  t.records.push_back(data_record());
  t.records[1].time_us = kLastUs;
  write_pcap(t, path_);
  EXPECT_EQ(read_pcap(path_).records[1].time_us, kLastUs);
  for (const std::int64_t time_us : {std::int64_t{-1400}, kLastUs + 1}) {
    t.records[1].time_us = time_us;
    const std::string err = write_error(t, path_);
    EXPECT_NE(err.find(path_ + " record 1: time_us " + std::to_string(time_us)),
              std::string::npos)
        << err;
  }
}

TEST_F(PcapTest, SnrOutsideTheSignalByteRejected) {
  // The radiotap signal byte holds snr_db - 96 dBm as an int8.
  Trace t;
  t.records.push_back(data_record());
  t.records.push_back(data_record());
  for (const float snr : {-32.0f, 223.0f}) {
    t.records[1].snr_db = snr;
    write_pcap(t, path_);
    EXPECT_EQ(read_pcap(path_).records[1].snr_db, snr);
  }
  for (const float snr : {-60.0f, -33.0f, 224.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    t.records[1].snr_db = snr;
    const std::string err = write_error(t, path_);
    EXPECT_NE(err.find(path_ + " record 1: snr_db"), std::string::npos)
        << snr << ": " << err;
  }
}

}  // namespace
}  // namespace wlan::trace
