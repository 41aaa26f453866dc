#include "obs/trace_span.hpp"

#include <cinttypes>

namespace wlan::obs {

namespace {

/// Minimal JSON string escape for span names (quotes, backslashes, control
/// characters; names are ASCII by convention).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

TraceLog& TraceLog::instance() {
  static TraceLog log;
  return log;
}

void TraceLog::enable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled_.load(std::memory_order_relaxed)) return;
  // wlan-lint: allow(wall-clock) — spans measure host wall time by design
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

std::uint64_t TraceLog::now_us() const {
  if (!enabled()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // wlan-lint: allow(wall-clock) — span timestamps are host wall
          // time (Chrome trace JSON); they never feed simulation state
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceLog::record(std::string name, const char* category,
                      std::uint64_t ts_us, std::uint64_t dur_us,
                      std::uint32_t tid) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{std::move(name), category, ts_us, dur_us, tid});
}

std::uint32_t TraceLog::thread_id() {
  thread_local std::uint32_t tid = 0xFFFFFFFF;
  if (tid == 0xFFFFFFFF) {
    std::lock_guard<std::mutex> lock(mu_);
    tid = next_tid_++;
  }
  return tid;
}

bool TraceLog::write(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %" PRIu64 ", \"dur\": %" PRIu64
                 ", \"pid\": 1, \"tid\": %u}%s\n",
                 json_escape(e.name).c_str(), e.category, e.ts_us, e.dur_us,
                 e.tid, i + 1 == events_.size() ? "" : ",");
  }
  std::fputs("  ]\n}\n", f);
  return std::fclose(f) == 0;
}

void TraceLog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  enabled_.store(false, std::memory_order_release);
}

}  // namespace wlan::obs
