#include "core/per_ap.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/frame_classes.hpp"
#include "core/unrecorded.hpp"

namespace wlan::core {

std::vector<ApActivity> ap_activity(const trace::Trace& trace) {
  std::unordered_map<mac::Addr, ApActivity> acc;
  // mac::Addr is 16-bit, so the per-station lookups — one per record on a
  // multi-hundred-thousand-record conference capture — use flat tables
  // instead of hash maps.  Only sums and last-writer-wins assignments read
  // them, so the change cannot reorder any output.  (acc stays a hash map
  // for aggregation only; the output sort below is a total order, so acc's
  // iteration order never reaches the result.)
  std::vector<std::uint8_t> is_bssid(std::size_t{mac::kBroadcast} + 1, 0);
  std::vector<mac::Addr> client_bssid(std::size_t{mac::kBroadcast} + 1,
                                      mac::kNoAddr);
  std::vector<mac::Addr> clients;  // addresses with client_bssid set

  for (const auto& r : trace.records) {
    if ((is_data_like(r.type) || r.type == mac::FrameType::kBeacon) &&
        r.bssid != mac::kNoAddr) {
      is_bssid[r.bssid] = 1;
    }
  }

  const auto ap_at = [&acc](mac::Addr bssid) -> ApActivity& {
    ApActivity& ap = acc[bssid];
    ap.bssid = bssid;
    return ap;
  };
  // The AP a station talks through: itself if it is one, else the BSSID its
  // latest data-like frame carried (kNoAddr if none yet).
  const auto ap_of = [&](mac::Addr station) {
    return is_bssid[station] ? station : client_bssid[station];
  };

  UnrecordedCounter unrecorded;
  for (const auto& r : trace.records) {
    if (is_data_like(r.type) || r.type == mac::FrameType::kBeacon) {
      if (r.bssid != mac::kNoAddr) {
        ApActivity& ap = ap_at(r.bssid);
        ++ap.frames;
        if (r.type == mac::FrameType::kBeacon) {
          ++ap.beacons;
        } else {
          ++ap.data_frames;
        }
        if (!is_bssid[r.src]) {
          if (client_bssid[r.src] == mac::kNoAddr) clients.push_back(r.src);
          client_bssid[r.src] = r.bssid;
        }
        if (r.dst != mac::kBroadcast && !is_bssid[r.dst]) {
          if (client_bssid[r.dst] == mac::kNoAddr) clients.push_back(r.dst);
          client_bssid[r.dst] = r.bssid;
        }
      }
    } else if (const mac::Addr bssid = ap_of(r.dst); bssid != mac::kNoAddr) {
      // Control frames carry no BSSID: attribute through the addressed
      // station's known AP.
      ApActivity& ap = ap_at(bssid);
      ++ap.frames;
      ++ap.control_frames;
    }
    // Fig. 4c: charge a frame this record proves unrecorded to the AP its
    // transmitter talks through as of this record.
    if (const mac::Addr sender = unrecorded.push(r); sender != mac::kNoAddr) {
      if (const mac::Addr bssid = ap_of(sender); bssid != mac::kNoAddr) {
        ++ap_at(bssid).missed;
      }
    }
  }

  // Last-association-wins client attribution: client_bssid holds each
  // station's most recent BSSID, so a roaming client counts once, at the AP
  // it ended on, and mid-capture arrivals simply appear when first heard.
  for (const mac::Addr client : clients) {
    ++acc[client_bssid[client]].clients;
  }

  std::vector<ApActivity> out;
  out.reserve(acc.size());
  // wlan-lint: allow(unordered-iteration) — the composite sort below is a
  // total order (frames desc, bssid asc), so extraction order is irrelevant
  for (auto& [addr, ap] : acc) out.push_back(ap);
  // Frames descending with the BSSID as tiebreak.  The tiebreak is load-
  // bearing: without it, equal-frame APs (symmetric scenarios tie often)
  // would keep hash-iteration order — deterministic on one libstdc++ but
  // not a property of the standard, and not stable across toolchains.
  std::sort(out.begin(), out.end(), [](const ApActivity& a, const ApActivity& b) {
    if (a.frames != b.frames) return a.frames > b.frames;
    return a.bssid < b.bssid;
  });
  return out;
}

std::vector<UserCountPoint> user_count_series(const trace::Trace& trace,
                                              const UserCountConfig& cfg) {
  std::vector<UserCountPoint> out;
  if (trace.records.empty()) return out;

  std::unordered_set<mac::Addr> bssids;
  for (const auto& r : trace.records) {
    if ((is_data_like(r.type) || r.type == mac::FrameType::kBeacon) &&
        r.bssid != mac::kNoAddr) {
      bssids.insert(r.bssid);
    }
  }

  // station -> last activity time; departure on Disassoc or idle timeout.
  std::unordered_map<mac::Addr, std::int64_t> last_seen;

  const std::int64_t start = trace.start_us;
  std::int64_t window_end = start + cfg.window.count();

  auto sample = [&](std::int64_t at) {
    std::size_t users = 0;
    // wlan-lint: allow(unordered-iteration) — expiry scan: erases stale
    // entries and counts survivors; both are visit-order-independent
    for (auto it = last_seen.begin(); it != last_seen.end();) {
      if (at - it->second > cfg.idle_timeout.count()) {
        it = last_seen.erase(it);
      } else {
        ++users;
        ++it;
      }
    }
    out.push_back(UserCountPoint{static_cast<double>(at - start) / 1e6,
                                 static_cast<double>(users)});
  };

  for (const auto& r : trace.records) {
    while (r.time_us >= window_end) {
      sample(window_end);
      window_end += cfg.window.count();
    }
    if (r.type == mac::FrameType::kDisassoc) {
      last_seen.erase(r.src);
      continue;
    }
    // Any client-originated frame proves presence.
    if (r.src != mac::kNoAddr && !bssids.count(r.src) &&
        (is_data_like(r.type) || r.type == mac::FrameType::kRts)) {
      last_seen[r.src] = r.time_us;
    }
  }
  // Keep sampling through the capture's end, so quiet tails still appear.
  while (window_end <= trace.end_us + cfg.window.count()) {
    sample(window_end);
    window_end += cfg.window.count();
  }
  return out;
}

}  // namespace wlan::core
