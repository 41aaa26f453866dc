// StreamingAnalyzer — the paper's per-second methodology, push-based.
//
// Consumes CaptureRecords one at a time (from a trace::TraceReader, a live
// merge, or an in-memory vector) and produces exactly what
// TraceAnalyzer::analyze produces; in fact analyze() IS this class fed from
// a vector, so the two paths cannot diverge — "streaming figures are
// byte-identical to in-memory figures" holds structurally, not by test
// luck.
//
// One delivery path: every completed second and acceptance sample leaves
// through an AnalysisSink, in order.  Without a caller's sink the analyzer
// is its own sink and keeps them in the AnalysisResult finish() returns,
// the only O(capture) growth.  With a sink that drains them, memory is O(1)
// in capture length (plus bounded per-station state: pending ACKs and the
// §4.4 rules' pending RTSs).
//
// Lookahead: the batch analyzer matches a DATA frame against the next
// record in the capture.  Streaming reproduces that with a one-record hold:
// push(r) processes the *previous* record with `r` as its lookahead, and
// finish() flushes the final record with no lookahead.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "core/analyzer.hpp"
#include "core/unrecorded.hpp"

namespace wlan::core {

/// Receives completed per-second aggregates as the capture streams through.
/// on_second fires once per second, in order, when no later record can
/// touch that second anymore; on_acceptance fires in sample order once the
/// sample's second is final (utilization_pct is that second's final value).
class AnalysisSink {
 public:
  virtual ~AnalysisSink() = default;
  virtual void on_second(const SecondStats& s) = 0;
  virtual void on_acceptance(const AcceptanceSample& sample,
                             double utilization_pct) = 0;
};

class StreamingAnalyzer : private AnalysisSink {
 public:
  /// With a sink, completed seconds and acceptance samples are emitted and
  /// dropped (constant memory); finish() then returns an AnalysisResult
  /// whose seconds/acceptance vectors are empty but whose totals, per-sender
  /// tallies and unrecorded-frame estimate are complete.  Without a sink,
  /// finish() returns the full AnalysisResult, bit-identical to
  /// TraceAnalyzer::analyze.
  explicit StreamingAnalyzer(AnalyzerConfig config = {},
                             AnalysisSink* sink = nullptr);

  /// Not copyable: the default sink is the object itself.
  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  /// Declares the capture's session bounds (a Trace's start_us/end_us).
  /// Optional — without bounds the first/last record define the span, which
  /// is exactly what a pcap capture conveys.  Call before the first push,
  /// which checks them.
  void set_bounds(std::int64_t start_us, std::int64_t end_us);

  /// Feeds one record.  Records must be time-sorted within the capture
  /// tolerance: a record may start up to trace::kSortSlackUs (10 us) before
  /// the latest one pushed, and worse disorder throws
  /// std::invalid_argument, the same contract as TraceAnalyzer::analyze.
  /// The capture may span at most 7 days from its start (the start bound or
  /// the first record): a record, an end bound or a start bound farther
  /// apart also throws std::invalid_argument, naming both times, before any
  /// second of that span is made.
  void push(const trace::CaptureRecord& r);

  /// Flushes held state and returns the result.  The analyzer is spent;
  /// construct a new one per capture.
  [[nodiscard]] AnalysisResult finish();

 private:
  struct Pending {
    std::int64_t first_tx_us = 0;
    std::size_t category = 0;
  };

  // The default sink: collect into result_.
  void on_second(const SecondStats& s) override;
  void on_acceptance(const AcceptanceSample& sample,
                     double utilization_pct) override;

  void process(const trace::CaptureRecord& r,
               const trace::CaptureRecord* next);
  SecondStats& second_at(std::size_t sec_idx, std::int64_t now_us);
  void emit_final_seconds(std::int64_t now_us);
  void emit_second(const SecondStats& s);
  void flush_ready_acceptance();

  AnalyzerConfig config_;
  AnalysisSink* sink_;  ///< the caller's sink, or this

  bool have_bounds_ = false;
  std::int64_t bound_start_us_ = 0;
  std::int64_t bound_end_us_ = 0;

  bool started_ = false;
  std::int64_t start_us_ = 0;
  std::int64_t span_end_us_ = 0;  ///< the latest time the span admits
  std::int64_t latest_time_ = 0;
  std::int64_t last_record_us_ = 0;
  std::int64_t last_prune_us_ = 0;
  std::optional<trace::CaptureRecord> held_;

  AnalysisResult result_;
  /// Seconds not yet final; index base_second_ + position.  Each is emitted
  /// and dropped as it finalizes.
  std::deque<SecondStats> open_seconds_;
  std::size_t base_second_ = 0;
  /// Acceptance samples awaiting their second's finalization.
  std::deque<AcceptanceSample> pending_acceptance_;
  /// Utilization of recently finalized seconds, kept until no pending
  /// acceptance sample can reference them.
  std::deque<std::pair<std::int64_t, double>> final_utilization_;

  std::unordered_map<std::uint32_t, Pending> pending_;
  UnrecordedCounter unrecorded_;
};

}  // namespace wlan::core
