#include "obs/metrics.hpp"

namespace wlan::obs {

namespace {

constexpr const char* kNames[] = {
#define WLAN_OBS_X(name, str, kind) str,
    WLAN_OBS_COUNTERS(WLAN_OBS_X)
#undef WLAN_OBS_X
};

constexpr Kind kKinds[] = {
#define WLAN_OBS_X(name, str, kind) kind,
    WLAN_OBS_COUNTERS(WLAN_OBS_X)
#undef WLAN_OBS_X
};

static_assert(sizeof(kNames) / sizeof(kNames[0]) == kNumCounters);
static_assert(sizeof(kKinds) / sizeof(kKinds[0]) == kNumCounters);

}  // namespace

const char* name(Id id) { return kNames[static_cast<std::size_t>(id)]; }
Kind kind(Id id) { return kKinds[static_cast<std::size_t>(id)]; }

void Metrics::merge(const Metrics& other) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (kKinds[i] == Kind::kSum) {
      v_[i] += other.v_[i];
    } else if (other.v_[i] > v_[i]) {
      v_[i] = other.v_[i];
    }
  }
}

namespace {
thread_local Metrics* g_current = nullptr;
}  // namespace

Metrics* current() { return g_current; }

MetricsScope::MetricsScope(Metrics& m) : prev_(g_current) { g_current = &m; }
MetricsScope::~MetricsScope() { g_current = prev_; }

}  // namespace wlan::obs
