// Scoped-span tracing that emits Chrome trace-event JSON.
//
// Load the output of TraceLog::write() into Perfetto (ui.perfetto.dev) or
// chrome://tracing to see where a sweep's wall time goes: one "X" (complete)
// event per span, laid out per worker thread.  Spans are *coarse* — a run,
// a scenario build, a figure render — never per-frame: the point is the
// shape of a sweep (which grid points dominate, how well the pool packs),
// not a per-event flamegraph (the deterministic counters in metrics.hpp
// cover fine-grained work attribution, immune to this container's ±30%
// wall-clock noise).
//
// Unlike everything else the simulator writes, a trace file is a profiling
// artifact measured in wall-clock time and is NOT deterministic — two runs
// of the same seed produce different timestamps.  It is therefore kept out
// of the manifest/figure output directory contract entirely: nothing is
// recorded (and no buffer grows) unless a driver passes --trace-out FILE.
//
// Thread model: spans are recorded from every runner worker; the sink is a
// mutex-guarded buffer, flushed once from write().  Span construction while
// disabled is two relaxed loads and no allocation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace wlan::obs {

/// Process-wide span sink.  Disabled (and free) until enable() is called.
class TraceLog {
 public:
  static TraceLog& instance();

  /// Starts buffering spans.  Timestamps are microseconds relative to this
  /// call, so traces start at t=0 regardless of process uptime.
  void enable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since enable(); 0 when disabled.
  [[nodiscard]] std::uint64_t now_us() const;

  /// Records one complete ("ph":"X") event.  `tid` is a small dense id for
  /// the calling thread (see Span).
  void record(std::string name, const char* category, std::uint64_t ts_us,
              std::uint64_t dur_us, std::uint32_t tid);

  /// Dense per-thread id for trace rows (0 = first thread seen).
  [[nodiscard]] std::uint32_t thread_id();

  /// Writes the buffered spans as Chrome trace-event JSON ("traceEvents"
  /// array of complete events) to `path`.  Returns false on I/O failure.
  /// The buffer is kept, so later writes include earlier spans.
  bool write(const std::string& path);

  /// Drops buffered spans and disables recording (tests).
  void reset();

 private:
  struct Event {
    std::string name;
    const char* category;
    std::uint64_t ts_us;
    std::uint64_t dur_us;
    std::uint32_t tid;
  };

  std::atomic<bool> enabled_{false};
  // wlan-lint: allow(wall-clock) — span epoch; wall time is the point
  std::chrono::steady_clock::time_point epoch_{};
  std::mutex mu_;
  std::vector<Event> events_;
  std::uint32_t next_tid_ = 0;
};

/// RAII span: records [construction, destruction) into the TraceLog when
/// tracing is enabled, else does nothing.  Name convention (see
/// docs/OBSERVABILITY.md): "phase: detail", e.g. "run: fig06 load=120
/// seed=3", "merge: manifest".
class Span {
 public:
  explicit Span(std::string name, const char* category = "run")
      : name_(std::move(name)), category_(category) {
    TraceLog& log = TraceLog::instance();
    if (log.enabled()) {
      active_ = true;
      start_us_ = log.now_us();
    }
  }
  ~Span() {
    if (!active_) return;
    TraceLog& log = TraceLog::instance();
    const std::uint64_t end = log.now_us();
    log.record(std::move(name_), category_, start_us_, end - start_us_,
               log.thread_id());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  const char* category_;
  std::uint64_t start_us_ = 0;
  bool active_ = false;
};

}  // namespace wlan::obs
