// Churn stress: a long join/leave/roam run that pins the PR's central
// resource claim — the channel's link-id space (and with it the
// LinkBudgetCache triangle) is bounded by the *peak concurrent* endpoint
// count plus small slack, not by the thousands of lifetime arrivals — and,
// under the CI ASan jobs, that the teardown path (shutdown -> grace ->
// remove_station -> deferred link recycling) leaves no dangling reference
// behind: every frame of a departed sender still lands safely.
//
// Labelled "stress" in CMake: the Release matrix skips it, the Debug
// (ASan+UBSan) jobs run it.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "sim/network.hpp"
#include "workload/churn.hpp"

namespace wlan::workload {
namespace {

TEST(ChurnStressTest, LinkCacheBoundedByConcurrentPopulationUnderLongChurn) {
  sim::NetworkConfig net_cfg;
  net_cfg.seed = 29;
  net_cfg.channels = {6};
  sim::Network net(net_cfg);
  net.add_ap({10, 10, 0}, 6).start_beacons();
  net.add_ap({35, 35, 0}, 6).start_beacons();

  sim::SnifferConfig sniff;
  sniff.position = {22, 22, 0};
  sniff.channel = 6;
  net.add_sniffer(sniff);

  ChurnConfig churn_cfg;
  churn_cfg.seed = 71;
  churn_cfg.arrivals_per_s = 8.0;   // ~16 concurrent at dwell 2 s ...
  churn_cfg.dwell_mean_s = 2.0;     // ... but ~2400 arrivals over 5 min
  churn_cfg.dwell_sigma = 0.8;
  churn_cfg.roam_check_mean_s = 1.5;
  churn_cfg.move_probability = 0.8;
  churn_cfg.roam_hysteresis_db = 3.0;
  churn_cfg.placement = [](util::Rng& rng) {
    return phy::Position{rng.uniform_real(0, 45), rng.uniform_real(0, 45), 0};
  };

  const Microseconds horizon = sec(300);
  ChurnProcess churn(net, churn_cfg, horizon);

  // Sample the channel's issued-id count on a fixed cadence; its true
  // running peak is what must bound the id-space high-water mark.
  sim::Channel& ch = net.channel(6);
  std::size_t peak_live_links = 0;
  std::function<void()> sample = [&] {
    peak_live_links = std::max(peak_live_links, ch.live_links());
    if (net.simulator().now() < horizon) {
      net.simulator().in(msec(50), [&] { sample(); });
    }
  };
  sample();

  net.run_for(horizon + sec(2));  // drain trailing departures/teardowns

  const std::size_t registrations =
      churn.arrivals() + static_cast<std::size_t>(churn.moves());
  ASSERT_GT(churn.arrivals(), 500u) << "stress run too quiet to prove anything";
  EXPECT_GT(churn.moves(), 200u);
  EXPECT_GT(churn.roams(), 20u);

  // THE bound: id capacity tracks the sampled concurrency peak (small slack
  // for between-sample transients and relocation overlap), and sits orders
  // of magnitude below the lifetime registration count.
  EXPECT_LE(ch.link_capacity(), peak_live_links + 8);
  EXPECT_LT(ch.link_capacity(), registrations / 10);

  // Post-drain, the surviving station objects are the still-present
  // population plus at most the final teardown grace window.
  EXPECT_LE(net.stations().size(), churn.live() + 8);

  // MAC addresses recycle too (FIFO free list) and relocations reuse the
  // mover's own address, so with thousands of arrivals the live stations'
  // addresses must sit far below the no-recycling watermark of ~(arrivals
  // + moves) — the 16-bit space would otherwise wrap within simulated
  // hours.
  for (const auto& s : net.stations()) {
    EXPECT_LT(s->addr(), 512u);
  }

  // And the medium kept working throughout (departed senders' frames all
  // completed; the sniffer saw a busy channel, not a wedged one).
  EXPECT_GT(ch.transmissions(), 10'000u);
  EXPECT_FALSE(net.sniffers()[0]->trace().records.empty());
}

}  // namespace
}  // namespace wlan::workload
