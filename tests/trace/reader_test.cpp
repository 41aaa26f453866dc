// Streaming pcap reader: chunked parsing equivalence, strict rejection of
// truncated/oversized packet headers, and fuzz-ish robustness on corrupted
// captures (run under ASan in CI, where "no crash" means something).
#include "trace/reader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "trace/merge.hpp"
#include "trace/pcap.hpp"
#include "trace/pcap_format.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace wlan::trace {
namespace {

class ReaderTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// A small but varied capture (every frame type, retries, both rates).
  Trace sample_trace() {
    Trace t;
    for (int i = 0; i < 40; ++i) {
      CaptureRecord r;
      r.time_us = 5'000 * i;
      r.channel = 6;
      r.type = static_cast<mac::FrameType>(i % 8);
      r.src = static_cast<mac::Addr>(2 + i % 3);
      r.dst = 1;
      r.bssid = 1;
      r.seq = static_cast<std::uint16_t>(i);
      r.retry = i % 5 == 0;
      r.rate = i % 2 == 0 ? phy::Rate::kR11 : phy::Rate::kR1;
      r.size_bytes = 100 + 30 * (i % 7);
      t.records.push_back(r);
    }
    t.start_us = 0;
    t.end_us = t.records.back().time_us;
    return t;
  }

  std::string file_bytes() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_bytes(const std::string& bytes) {
    // A new file, not a truncated one: some filesystems flush a file that
    // is truncated and rewritten, which made the truncation sweep take
    // minutes.
    std::filesystem::remove(path_);
    std::ofstream out(path_, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_ = ::testing::TempDir() + "reader_test.pcap";
};

bool records_equal(const CaptureRecord& a, const CaptureRecord& b) {
  return a.time_us == b.time_us && a.channel == b.channel &&
         a.rate == b.rate && a.type == b.type && a.src == b.src &&
         a.dst == b.dst && a.bssid == b.bssid && a.seq == b.seq &&
         a.retry == b.retry && a.size_bytes == b.size_bytes;
}

TEST_F(ReaderTest, StreamingMatchesBatchReader) {
  write_pcap(sample_trace(), path_);
  const Trace batch = read_pcap(path_);
  PcapReader reader(path_);
  const Trace streamed = read_all(reader);
  ASSERT_EQ(streamed.records.size(), batch.records.size());
  for (std::size_t i = 0; i < batch.records.size(); ++i) {
    EXPECT_TRUE(records_equal(streamed.records[i], batch.records[i])) << i;
  }
  EXPECT_EQ(streamed.start_us, batch.start_us);
  EXPECT_EQ(streamed.end_us, batch.end_us);
}

TEST_F(ReaderTest, TinyChunksCrossEveryPacketBoundary) {
  write_pcap(sample_trace(), path_);
  const Trace batch = read_pcap(path_);
  // A 64-byte buffer is smaller than most packets, so every record forces
  // at least one compact-and-refill; the parse must not care.
  PcapReader reader(path_, 64);
  const Trace streamed = read_all(reader);
  ASSERT_EQ(streamed.records.size(), batch.records.size());
  for (std::size_t i = 0; i < batch.records.size(); ++i) {
    EXPECT_TRUE(records_equal(streamed.records[i], batch.records[i])) << i;
  }
}

TEST_F(ReaderTest, ResetRewindsToFirstRecord) {
  write_pcap(sample_trace(), path_);
  PcapReader reader(path_);
  CaptureRecord first, again;
  ASSERT_TRUE(reader.next(first));
  while (reader.next(again)) {
  }
  reader.reset();
  ASSERT_TRUE(reader.next(again));
  EXPECT_TRUE(records_equal(first, again));
}

TEST_F(ReaderTest, EveryTruncationPointThrowsOrYieldsPrefix) {
  // Fuzz-ish sweep: cut a valid capture at every byte offset.  The reader
  // must either return a clean record prefix (cut between packets) or throw
  // a runtime_error — never crash, hang, or silently fabricate records.
  write_pcap(sample_trace(), path_);
  const std::string full = file_bytes();
  const std::size_t total = read_pcap(path_).records.size();
  std::size_t clean = 0, thrown = 0;
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    write_bytes(full.substr(0, cut));
    try {
      PcapReader reader(path_);
      const Trace got = read_all(reader);
      EXPECT_LE(got.records.size(), total);
      ++clean;
    } catch (const std::runtime_error&) {
      ++thrown;
    }
  }
  // Cuts inside the global header or a packet must throw...
  EXPECT_GT(thrown, full.size() / 2);
  // ...and only between-packet cuts may succeed (one per record).
  EXPECT_EQ(clean, total);
}

TEST_F(ReaderTest, OversizedPacketLengthRejected) {
  write_pcap(sample_trace(), path_);
  std::string bytes = file_bytes();
  // Corrupt the first record header's incl_len (offset 24 + 8).
  const std::uint32_t huge = PcapReader::kMaxPacketBytes + 1;
  std::memcpy(bytes.data() + 24 + 8, &huge, sizeof(huge));
  write_bytes(bytes);
  EXPECT_THROW(read_pcap(path_), std::runtime_error);
  // Same for orig_len (offset 24 + 12).
  bytes = file_bytes();
  std::memcpy(bytes.data() + 24 + 12, &huge, sizeof(huge));
  write_bytes(bytes);
  EXPECT_THROW(read_pcap(path_), std::runtime_error);
}

TEST_F(ReaderTest, TrailingGarbageAfterLastPacketRejected) {
  write_pcap(sample_trace(), path_);
  write_bytes(file_bytes() + "stray");  // 5 bytes: not even a record header
  EXPECT_THROW(read_pcap(path_), std::runtime_error);
}

TEST_F(ReaderTest, RandomByteCorruptionNeverCrashes) {
  write_pcap(sample_trace(), path_);
  const std::string full = file_bytes();
  util::Rng rng(0xF022);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = full;
    // Flip a handful of bytes anywhere past the magic (corrupting the magic
    // itself is the boring bad-file case, tested elsewhere).
    for (int flips = 0; flips < 5; ++flips) {
      const auto at = 4 + rng.uniform(bytes.size() - 4);
      bytes[at] = static_cast<char>(rng.uniform(256));
    }
    write_bytes(bytes);
    try {
      PcapReader reader(path_);
      CaptureRecord r;
      std::size_t n = 0;
      while (reader.next(r) && n < 10'000) ++n;  // bounded: no hangs either
      EXPECT_LT(n, 10'000u);
    } catch (const std::runtime_error&) {
      // A clear rejection is an acceptable outcome for corrupt input.
    }
  }
}

/// One pcap packet: the 16-byte record header, then `body`, captured whole.
std::string pcap_packet(std::uint32_t ts_usec, const std::string& body) {
  std::string p;
  pcapfmt::put<std::uint32_t>(p, 0);
  pcapfmt::put<std::uint32_t>(p, ts_usec);
  pcapfmt::put<std::uint32_t>(p, static_cast<std::uint32_t>(body.size()));
  pcapfmt::put<std::uint32_t>(p, static_cast<std::uint32_t>(body.size()));
  return p + body;
}

/// An 8-byte radiotap header: room for no field, whatever `present` claims.
std::string bare_radiotap(std::uint32_t present) {
  std::string h(2, '\0');  // version, pad
  pcapfmt::put<std::uint16_t>(h, 8);
  pcapfmt::put<std::uint32_t>(h, present);
  return h;
}

/// A radiotap header whose present word claims rate, channel, signal and
/// noise but whose length holds none of them.  The packet is skipped, not
/// read past.  Short: the claimed fields lie beyond the packet, and at chunk
/// 64 the packet ends exactly at the read buffer's end.  Long: they would
/// be the MAC header's bytes, read as rate, channel and SNR.
TEST_F(ReaderTest, RadiotapFieldsPastItsLengthSkipThePacket) {
  write_pcap(Trace{}, path_);
  const std::string file_header = file_bytes();
  ASSERT_EQ(file_header.size(), 24u);

  std::string rts = bare_radiotap(0);
  pcapfmt::put<std::uint16_t>(
      rts, pcapfmt::frame_control(mac::FrameType::kRts, false));
  pcapfmt::put<std::uint16_t>(rts, 0);  // duration
  pcapfmt::put_mac_addr(rts, 1);
  pcapfmt::put_mac_addr(rts, 2);
  ASSERT_EQ(rts.size(), 24u);

  const std::uint32_t claims =
      pcapfmt::kPresentRate | pcapfmt::kPresentChannel |
      pcapfmt::kPresentAntSignal | pcapfmt::kPresentAntNoise;
  const std::string short_packet = bare_radiotap(claims);
  std::string long_packet = bare_radiotap(claims);
  pcapfmt::put<std::uint16_t>(
      long_packet, pcapfmt::frame_control(mac::FrameType::kData, false));
  pcapfmt::put<std::uint16_t>(long_packet, 0);  // duration
  pcapfmt::put_mac_addr(long_packet, 1);
  pcapfmt::put_mac_addr(long_packet, 3);
  pcapfmt::put_mac_addr(long_packet, 1);
  pcapfmt::put<std::uint16_t>(long_packet, 7 << 4);  // seq

  const std::pair<const char*, std::string> cases[] = {
      {"short", short_packet}, {"long", long_packet}};
  for (const auto& [name, second] : cases) {
    const std::string body = pcap_packet(0, rts) + pcap_packet(10, second);
    if (second == short_packet) {
      ASSERT_EQ(body.size(), 64u);
    }
    write_bytes(file_header + body);
    for (const std::size_t chunk : {std::size_t{64},
                                    PcapReader::kDefaultChunkBytes}) {
      SCOPED_TRACE(std::string(name) + " packet, chunk " +
                   std::to_string(chunk));
      PcapReader reader(path_, chunk);
      const Trace got = read_all(reader);
      ASSERT_EQ(got.records.size(), 1u);
      EXPECT_EQ(got.records[0].type, mac::FrameType::kRts);
      EXPECT_EQ(got.records[0].dst, 1);
      EXPECT_EQ(got.records[0].src, 2);
    }
  }
}

TEST_F(ReaderTest, OpenCaptureDispatchesOnExtension) {
  write_pcap(sample_trace(), path_);
  auto reader = open_capture(path_);
  EXPECT_EQ(read_all(*reader).records.size(), sample_trace().records.size());

  // A valid pcap under another extension: only the name is wrong.
  const std::string renamed = path_ + ".bin";
  std::rename(path_.c_str(), renamed.c_str());
  const auto error_of = [](auto load) -> std::string {
    try {
      load();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  const std::string want = "unknown capture format " + renamed;
  const std::string read_error = error_of([&] { (void)read_capture(renamed); });
  EXPECT_NE(read_error.find(want), std::string::npos) << read_error;
  const std::string open_error = error_of([&] { (void)open_capture(renamed); });
  EXPECT_NE(open_error.find(want), std::string::npos) << open_error;
  std::remove(renamed.c_str());
}

/// A .trace file keeps its session bounds through read_capture, even where
/// they are wider than its records.  A .csv or .pcap file carries no
/// bounds, so its bounds are its first and last records.
TEST_F(ReaderTest, ReadCaptureBoundsFollowTheFormat) {
  Trace t = sample_trace();
  for (CaptureRecord& r : t.records) r.time_us += 1'000'000;
  t.start_us = 0;
  t.end_us = t.records.back().time_us + 3'000'000;
  const std::string base = ::testing::TempDir() + "reader_test_capture";
  write_binary(t, base + ".trace");
  write_csv(t, base + ".csv");
  write_pcap(t, base + ".pcap");

  const Trace binary = read_capture(base + ".trace");
  EXPECT_EQ(binary.records.size(), t.records.size());
  EXPECT_EQ(binary.start_us, t.start_us);
  EXPECT_EQ(binary.end_us, t.end_us);
  for (const char* ext : {".csv", ".pcap"}) {
    SCOPED_TRACE(ext);
    const Trace loaded = read_capture(base + ext);
    ASSERT_EQ(loaded.records.size(), t.records.size());
    EXPECT_EQ(loaded.start_us, t.records.front().time_us);
    EXPECT_EQ(loaded.end_us, t.records.back().time_us);
  }
  for (const char* ext : {".trace", ".csv", ".pcap"}) {
    std::remove((base + ext).c_str());
  }
}

/// VectorReader + OwningReader honor the TraceReader contract too.
TEST_F(ReaderTest, InMemoryReaders) {
  const Trace t = sample_trace();
  VectorReader v(t);
  EXPECT_EQ(read_all(v).records.size(), t.records.size());
  v.reset();
  EXPECT_EQ(read_all(v).records.size(), t.records.size());
  OwningReader o(sample_trace());
  EXPECT_EQ(read_all(o).records.size(), t.records.size());
}

/// `n` records with increasing times and seq = index.
std::vector<CaptureRecord> numbered(std::size_t n) {
  std::vector<CaptureRecord> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].time_us = static_cast<std::int64_t>(10 * i);
    out[i].seq = static_cast<std::uint16_t>(i & 0xfff);
    out[i].size_bytes = static_cast<std::uint32_t>(i);
  }
  return out;
}

/// A producer thread pushes every record while the consumer reads: the
/// consumer blocks between batches and sees each record once, in order,
/// the partial last batch included.
TEST_F(ReaderTest, CaptureStreamFromAProducerThread) {
  const std::size_t n = 5 * CaptureStream::kBatchRecords + 123;
  const std::vector<CaptureRecord> sent = numbered(n);
  CaptureStream stream;
  std::thread producer([&] {
    for (const CaptureRecord& r : sent) stream.push(r);
    stream.close();
  });
  const Trace got = read_all(stream);
  producer.join();
  ASSERT_EQ(got.records.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(records_equal(got.records[i], sent[i])) << i;
  }
  CaptureRecord r;
  EXPECT_FALSE(stream.next(r));  // stays at its end
  EXPECT_THROW(stream.reset(), std::logic_error);
}

/// A consumer already waiting is woken by close(): on an empty stream it
/// ends at once, and a partial batch closed mid-way is delivered first.
TEST_F(ReaderTest, CaptureStreamCloseWakesTheConsumer) {
  CaptureStream empty;
  std::size_t empty_read = 1;
  std::thread waiting([&] { empty_read = read_all(empty).records.size(); });
  empty.close();
  waiting.join();
  EXPECT_EQ(empty_read, 0u);

  const std::vector<CaptureRecord> sent = numbered(7);
  CaptureStream partial;
  std::size_t partial_read = 0;
  std::thread reader([&] { partial_read = read_all(partial).records.size(); });
  for (const CaptureRecord& r : sent) partial.push(r);
  partial.close();
  partial.close();  // a second close does nothing
  reader.join();
  EXPECT_EQ(partial_read, sent.size());
}

/// A consumer that gave up frees what is queued, and later batches are
/// dropped: nothing more reaches next().
TEST_F(ReaderTest, CaptureStreamAbandonDropsLaterBatches) {
  CaptureStream stream;
  for (const CaptureRecord& r : numbered(CaptureStream::kBatchRecords)) {
    stream.push(r);
  }
  stream.abandon();
  for (const CaptureRecord& r : numbered(CaptureStream::kBatchRecords + 5)) {
    stream.push(r);
  }
  stream.close();
  CaptureRecord r;
  EXPECT_FALSE(stream.next(r));
}

/// The first reset() replays what was read, then the reader continues
/// live; a second reset() throws.
TEST_F(ReaderTest, ReplayOnceReaderReplaysThenContinuesLive) {
  const Trace t = sample_trace();
  VectorReader live(t);
  ReplayOnceReader once(live);
  CaptureRecord r;
  for (std::size_t i = 0; i < 5; ++i) ASSERT_TRUE(once.next(r));
  once.reset();
  const Trace replayed = read_all(once);
  ASSERT_EQ(replayed.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_TRUE(records_equal(replayed.records[i], t.records[i])) << i;
  }
  EXPECT_THROW(once.reset(), std::logic_error);

  // Reset before any read: nothing to replay, everything live.
  VectorReader live2(t);
  ReplayOnceReader unread(live2);
  unread.reset();
  EXPECT_EQ(read_all(unread).records.size(), t.records.size());
}

/// Clock offsets and the merge over inputs read once (streams behind
/// replay-once readers) equal the same over rewindable VectorReaders,
/// record for record: three skewed sniffers of one cell, and the same
/// captures with every beacon removed from input 0, where the estimator
/// reads input 0 alone.
TEST_F(ReaderTest, OffsetsAndMergeOverReplayOnceReadersEqualVectorReaders) {
  workload::CellConfig cell;
  cell.seed = 9;
  cell.num_users = 8;
  cell.duration_s = 6.0;
  cell.num_sniffers = 3;
  const workload::CellResult result = workload::run_cell(cell);
  std::vector<Trace> no_beacons = result.sniffer_traces;
  std::erase_if(no_beacons[0].records, [](const CaptureRecord& r) {
    return r.type == mac::FrameType::kBeacon;
  });

  const std::vector<Trace>* cases[] = {&result.sniffer_traces, &no_beacons};
  for (const std::vector<Trace>* traces : cases) {
    std::vector<VectorReader> vectors;
    std::vector<TraceReader*> vector_inputs;
    for (const Trace& t : *traces) vectors.emplace_back(t);
    for (VectorReader& v : vectors) vector_inputs.push_back(&v);
    const ClockOffsets expected_offsets = estimate_clock_offsets(vector_inputs);
    MergingReader expected_merge(vector_inputs, expected_offsets.offset_us);
    const Trace expected = read_all(expected_merge);

    std::vector<CaptureStream> streams(traces->size());
    std::vector<ReplayOnceReader> once;
    once.reserve(traces->size());
    std::vector<TraceReader*> inputs;
    for (std::size_t i = 0; i < traces->size(); ++i) {
      for (const CaptureRecord& r : (*traces)[i].records) streams[i].push(r);
      streams[i].close();
      inputs.push_back(&once.emplace_back(streams[i]));
    }
    const ClockOffsets offsets = estimate_clock_offsets(inputs);
    MergingReader merge(inputs, offsets.offset_us);
    const Trace got = read_all(merge);

    EXPECT_EQ(offsets.offset_us, expected_offsets.offset_us);
    EXPECT_EQ(offsets.anchors, expected_offsets.anchors);
    if (traces == &result.sniffer_traces) {
      EXPECT_GT(offsets.anchors[1], 0u);
    }
    ASSERT_GT(expected.records.size(), 0u);
    ASSERT_EQ(got.records.size(), expected.records.size());
    for (std::size_t i = 0; i < got.records.size(); ++i) {
      EXPECT_TRUE(records_equal(got.records[i], expected.records[i])) << i;
    }
    EXPECT_EQ(merge.stats().duplicates_dropped,
              expected_merge.stats().duplicates_dropped);
  }
}

}  // namespace
}  // namespace wlan::trace
