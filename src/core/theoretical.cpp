#include "core/theoretical.hpp"

namespace wlan::core {

Microseconds exchange_time(const DelayComponents& d,
                           std::uint32_t payload_bytes, phy::Rate rate,
                           const TmtOptions& opt) {
  Microseconds t = d.difs + opt.backoff +
                   d.data_duration_payload(payload_bytes, rate) + d.sifs +
                   d.ack;
  if (opt.rts_cts) t += d.rts + d.sifs + d.cts + d.sifs;
  return t;
}

double theoretical_max_throughput_mbps(const DelayComponents& d,
                                       std::uint32_t payload_bytes,
                                       phy::Rate rate, const TmtOptions& opt) {
  const double bits = 8.0 * payload_bytes;
  const double us = static_cast<double>(
      exchange_time(d, payload_bytes, rate, opt).count());
  return us > 0 ? bits / us : 0.0;
}

double best_case_tmt_mbps(const DelayComponents& d) {
  // Jun et al. charge the mean backoff of an uncontended sender:
  // CWmin/2 slots of 10 us.
  TmtOptions opt;
  opt.backoff = Microseconds{155};
  return theoretical_max_throughput_mbps(d, 1472, phy::Rate::kR11, opt);
}

}  // namespace wlan::core
