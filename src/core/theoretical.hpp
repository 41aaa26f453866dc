// Theoretical maximum throughput of IEEE 802.11b (Jun, Peddabachagari &
// Sichitiu, NCA 2003) — the reference the paper uses to note that its
// measured 4.9 Mbps at 84% utilization "is closest to the achievable
// theoretical maximum".
//
// TMT is the throughput of one saturated, error-free sender: payload bits
// divided by the full per-packet channel occupation (DIFS + preambles +
// payload + SIFS + ACK, plus the RTS/CTS frames when used).  The paper's
// Table-2 delay components reproduce Jun et al.'s parameters, so this
// module derives TMT from the same DelayComponents the analyzer uses.
#pragma once

#include <cstdint>

#include "core/delay_components.hpp"
#include "phy/rate.hpp"

namespace wlan::core {

struct TmtOptions {
  bool rts_cts = false;     ///< include the RTS/CTS exchange
  Microseconds backoff{0};  ///< mean backoff time (0 = paper's D_BO)
};

/// Channel time consumed by one complete data exchange of `payload_bytes`
/// at `rate` (DIFS + DATA + SIFS + ACK [+ RTS/CTS]).
[[nodiscard]] Microseconds exchange_time(const DelayComponents& d,
                                         std::uint32_t payload_bytes,
                                         phy::Rate rate,
                                         const TmtOptions& opt = {});

/// Theoretical maximum throughput in Mbps for back-to-back exchanges.
[[nodiscard]] double theoretical_max_throughput_mbps(
    const DelayComponents& d, std::uint32_t payload_bytes, phy::Rate rate,
    const TmtOptions& opt = {});

/// TMT of the best case the paper's network could reach: full-MTU frames
/// at 11 Mbps without RTS/CTS (~6 Mbps with Table-2 parameters).
[[nodiscard]] double best_case_tmt_mbps(const DelayComponents& d);

}  // namespace wlan::core
