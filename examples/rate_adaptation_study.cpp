// Rate-adaptation ablation: the experiment the paper's conclusion calls
// for but could not run on proprietary firmware.
//
//   $ ./rate_adaptation_study [num_users]
//
// Runs the same congested cell under four rate-adaptation policies (ARF,
// AARF, SNR-threshold, fixed 11 Mbps) and compares goodput and the
// busy-time share of 1 Mbps frames.  The paper's thesis: loss-triggered
// adaptation (ARF) responds to *collision* losses by lowering the rate,
// which inflates airtime and collapses goodput; SNR-based selection does
// not.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/utilization.hpp"
#include "exp/args.hpp"
#include "rate/policy_registry.hpp"
#include "util/ascii_chart.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace wlan;

  const std::string usage = std::string("usage: ") + argv[0] + " [num_users]";
  const int users =
      argc > 1 ? exp::int_arg(argv[1], "num_users", 1,
                              std::numeric_limits<int>::max(), usage)
               : 40;
  const std::vector<std::string> policies = {"arf", "aarf", "snr", "minstrel",
                                             "fixed11"};

  std::printf("Congested cell, %d users, one channel; sweeping rate policy.\n\n",
              users);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Policy", "Utilization %", "Throughput Mbps", "Goodput Mbps",
                  "1Mbps busy-time s", "11Mbps busy-time s"});

  for (const std::string& policy : policies) {
    workload::CellConfig cell;
    cell.seed = 1234;
    cell.num_users = users;
    cell.duration_s = 20.0;
    cell.rate.policy = policy;
    // Saturated regime with a meaningful share of weak links — the setting
    // where the paper says adaptation policy decides the outcome.
    cell.per_user_pps = 60.0;
    cell.far_fraction = 0.3;
    cell.timing = mac::TimingProfile::kStandard;
    cell.profile.window = 3;
    cell.profile.uplink_fraction = 0.5;

    const auto result = workload::run_cell(cell);
    const core::TraceAnalyzer analyzer;
    const auto analysis = analyzer.analyze(result.trace);

    util::Accumulator util_acc, thr, good, bt1, bt11;
    for (const auto& s : analysis.seconds) {
      util_acc.add(s.utilization());
      thr.add(s.throughput_mbps());
      good.add(s.goodput_mbps());
      bt1.add(s.cbt_us_by_rate[phy::rate_index(phy::Rate::kR1)] / 1e6);
      bt11.add(s.cbt_us_by_rate[phy::rate_index(phy::Rate::kR11)] / 1e6);
    }
    rows.push_back({std::string(
                        rate::PolicyRegistry::instance().display_name(policy)),
                    util::fmt(util_acc.mean()), util::fmt(thr.mean()),
                    util::fmt(good.mean()), util::fmt(bt1.mean()),
                    util::fmt(bt11.mean())});
  }

  std::fputs(util::text_table(rows).c_str(), stdout);
  std::printf(
      "\nReading: under congestion the loss-triggered policies (ARF/AARF)\n"
      "shift airtime to 1 Mbps and lose goodput; SNR-threshold and fixed-11\n"
      "keep the channel at 11 Mbps (paper §7).\n");
  return 0;
}
