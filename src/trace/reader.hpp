// Streaming capture readers.
//
// A TraceReader yields CaptureRecords one at a time so the analysis layer
// can process captures far larger than memory (the paper's sniffers wrote
// multi-GB tethereal logs; oftrace-style toolkits stream such captures
// record-by-record rather than slurping them).  Producers:
//   * VectorReader     — iterates an in-memory Trace (no copy),
//   * PcapReader       — incremental pcap parsing from a bounded read buffer,
//   * CaptureStream    — records handed over by a producer thread as they
//                        are captured (a simulated sniffer),
//   * ReplayOnceReader — gives an input that cannot rewind (a pipe, a
//                        stream) the one rewind the clock-offset estimator
//                        makes,
//   * MergingReader    — k-way clock-corrected merge (trace/merge.hpp).
//
// Contract: next() returns records in the producer's order; readers over
// capture files must yield them file-ordered (time-sorted for well-formed
// captures).  reset() rewinds to the first record so multi-pass algorithms
// (clock-offset estimation, then merge) can reuse one reader; a reader
// that cannot rewind throws std::logic_error instead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace wlan::trace {

class TraceReader {
 public:
  virtual ~TraceReader() = default;

  /// Fills `out` with the next record; false at end of stream.
  virtual bool next(CaptureRecord& out) = 0;

  /// Rewinds to the first record.
  virtual void reset() = 0;
};

/// Streams an in-memory trace the caller keeps alive.
class VectorReader final : public TraceReader {
 public:
  explicit VectorReader(const Trace& trace) : trace_(&trace) {}

  bool next(CaptureRecord& out) override {
    if (index_ >= trace_->records.size()) return false;
    out = trace_->records[index_++];
    return true;
  }

  void reset() override { index_ = 0; }

 private:
  const Trace* trace_;
  std::size_t index_ = 0;
};

/// Like VectorReader, but owns the trace (for loaders that must materialize,
/// e.g. CSV/binary captures routed through the streaming pipeline).
class OwningReader final : public TraceReader {
 public:
  explicit OwningReader(Trace trace) : trace_(std::move(trace)) {}

  bool next(CaptureRecord& out) override {
    if (index_ >= trace_.records.size()) return false;
    out = trace_.records[index_++];
    return true;
  }

  void reset() override { index_ = 0; }

  [[nodiscard]] const Trace& trace() const { return trace_; }

 private:
  Trace trace_;
  std::size_t index_ = 0;
};

/// Incremental pcap reader: parses records out of a bounded buffer refilled
/// from the file, so peak memory is O(chunk), independent of capture size.
/// Throws std::runtime_error on malformed input: bad magic/link type,
/// truncated global or per-packet headers, packet lengths beyond
/// kMaxPacketBytes, or a body shorter than its header claims.  Frames whose
/// *content* is outside the radiotap/802.11 subset we model are skipped, as
/// real captures legitimately contain them; so are packets whose radiotap
/// header is too short for the fields its present word claims.
class PcapReader final : public TraceReader {
 public:
  /// Largest per-packet capture length accepted (far above any 802.11 frame
  /// + radiotap header; a length field past this is corruption, not data).
  static constexpr std::uint32_t kMaxPacketBytes = 256 * 1024;

  /// Default refill granularity.  Any chunk size >= 64 works — ensure()
  /// grows the buffer on demand to fit the packet being parsed, so peak
  /// memory is O(max(chunk, largest packet)); smaller chunks just refill
  /// more often (tests use tiny ones to cross packet boundaries).
  static constexpr std::size_t kDefaultChunkBytes = 512 * 1024;

  explicit PcapReader(std::string path,
                      std::size_t chunk_bytes = kDefaultChunkBytes);

  bool next(CaptureRecord& out) override;
  void reset() override;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void open_and_check_header();
  /// Ensures >= n parsed-ahead bytes are buffered; false on clean EOF with
  /// zero bytes left, throws when 0 < available < n (truncation).
  bool ensure(std::size_t n, const char* what);

  std::string path_;
  std::size_t chunk_bytes_;
  std::ifstream in_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  ///< first unparsed byte in buf_
  std::size_t end_ = 0;    ///< one past the last valid byte in buf_
  bool eof_ = false;
};

/// A capture handed from one producer thread to one consumer while it is
/// recorded.  The producer never waits: push() fills a batch of its own,
/// and each full batch is queued under a mutex.  next() blocks until a
/// batch arrives or the producer closes the stream, and returns false once
/// every record pushed before close() has been read.  Memory is the
/// batches queued but not yet read, so it grows only while the consumer
/// lags.  A stream cannot rewind: wrap it in a ReplayOnceReader for
/// estimate_clock_offsets.
class CaptureStream final : public TraceReader {
 public:
  /// Records per queued batch.
  static constexpr std::size_t kBatchRecords = 4096;

  /// Producer: appends one record, queueing the batch once it is full.
  void push(const CaptureRecord& r);
  /// Producer: queues the partial batch and ends the stream.  Only the
  /// first call does anything.
  void close();

  /// Consumer: the next record, waiting for the producer if none is queued.
  bool next(CaptureRecord& out) override;
  /// Throws std::logic_error: the records read are gone.
  void reset() override;
  /// Consumer: stops reading for good (it failed).  Queued batches are
  /// freed, and later ones are dropped instead of queued.
  void abandon();

 private:
  void publish();

  std::vector<CaptureRecord> filling_;  ///< the producer's batch

  std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<std::vector<CaptureRecord>> ready_;  ///< guarded by mu_
  bool closed_ = false;                           ///< guarded by mu_
  bool abandoned_ = false;                        ///< guarded by mu_

  std::vector<CaptureRecord> reading_;  ///< the consumer's batch
  std::size_t read_pos_ = 0;
};

/// Gives a reader that cannot rewind the one rewind estimate_clock_offsets
/// makes.  Until its first reset() it records every record it yields; the
/// reset switches it to replaying those records once, after which it frees
/// the recording and continues live.  So a pipe or a stream is read once,
/// and only the estimator's prefix is held.  A second reset() throws
/// std::logic_error.  An input the estimator leaves unread is never reset:
/// reset() it anyway once the estimator returns (rewound() tells which),
/// or it records everything the merge reads from it.
class ReplayOnceReader final : public TraceReader {
 public:
  explicit ReplayOnceReader(TraceReader& live) : live_(&live) {}

  bool next(CaptureRecord& out) override;
  void reset() override;

  /// Whether reset() has been called.
  [[nodiscard]] bool rewound() const { return rewound_; }

 private:
  TraceReader* live_;
  std::vector<CaptureRecord> recorded_;
  std::size_t replay_pos_ = 0;
  bool rewound_ = false;
};

/// Loads a whole capture file, choosing its format by extension: .pcap
/// (read_pcap), .csv (read_csv) or .trace (read_binary).  This is the one
/// table from extension to format.  Throws std::runtime_error on malformed
/// files, and on any other extension ("unknown capture format", the path).
Trace read_capture(const std::string& path);

/// Opens a capture file as a streaming reader: a .pcap streams
/// incrementally; any other capture loads through read_capture behind an
/// OwningReader.  Throws as read_capture does.
std::unique_ptr<TraceReader> open_capture(const std::string& path);

/// Drains a reader into an in-memory Trace; start_us/end_us are the first
/// and last record timestamps (pcap files carry no session bounds).
Trace read_all(TraceReader& reader);

}  // namespace wlan::trace
