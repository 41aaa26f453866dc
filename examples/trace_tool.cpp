// trace_tool: analyze a capture file without re-simulating.
//
//   $ ./trace_tool <trace-file> [--channel N] [--csv out.csv] [--pcap out.pcap]
//
// Reads a .trace (binary), .csv, or .pcap capture (trace::read_capture; any
// other extension is an error), runs the full paper analysis, and prints
// the summary.  Demonstrates that the core library is usable on externally
// produced captures.  Utilization (Eq. 8) is a per-channel quantity: pass
// --channel to restrict a multi-channel merge.
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/per_ap.hpp"
#include "core/session_report.hpp"
#include "exp/args.hpp"
#include "trace/pcap.hpp"
#include "trace/reader.hpp"
#include "trace/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  const std::string usage =
      std::string("usage: ") + argv[0] +
      " <capture.{trace,csv,pcap}> [--channel N] [--csv out] [--pcap out]";
  if (argc < 2) {
    std::fprintf(stderr, "%s\n", usage.c_str());
    return 2;
  }
  // Flag/value pairs after the capture, each applied in command-line order:
  // --channel filters before the analysis, the exports run after it.
  std::vector<int> wanted_channels;
  std::vector<std::pair<std::string, std::string>> exports;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag != "--channel" && flag != "--csv" && flag != "--pcap") {
      std::fprintf(stderr, "unknown flag %s\n%s\n", flag.c_str(),
                   usage.c_str());
      return 2;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n%s\n", flag.c_str(),
                   usage.c_str());
      return 2;
    }
    if (flag == "--channel") {
      wanted_channels.push_back(
          exp::int_arg(argv[i + 1], "--channel", 1, 14, usage));
    } else {
      exports.emplace_back(flag, argv[i + 1]);
    }
  }

  // Read errors, an unsorted capture (the analyzer throws) and failed
  // exports all end in one error line and exit 1.
  try {
    const std::string path = argv[1];
    trace::Trace capture = trace::read_capture(path);

    for (const int wanted : wanted_channels) {
      std::erase_if(capture.records, [wanted](const auto& r) {
        return int{r.channel} != wanted;
      });
      std::printf("filtered to channel %d: %zu records remain\n", wanted,
                  capture.records.size());
    }

    std::set<int> channels;
    for (const auto& r : capture.records) channels.insert(r.channel);
    if (channels.size() > 1) {
      std::printf("note: capture spans %zu channels; utilization below sums "
                  "them — use --channel N for the paper's per-channel Eq. 8\n",
                  channels.size());
    }

    std::printf("%s: %zu records over %.1f s\n\n", path.c_str(),
                capture.records.size(), capture.duration_seconds());

    const core::TraceAnalyzer analyzer;
    const auto analysis = analyzer.analyze(capture);
    std::fputs(core::render_summary(core::summarize(analysis)).c_str(),
               stdout);

    const auto aps = core::ap_activity(capture);
    std::printf("%zu BSSIDs seen; busiest:", aps.size());
    for (std::size_t i = 0; i < aps.size() && i < 5; ++i) {
      std::printf(" %d(%llu)", aps[i].bssid,
                  static_cast<unsigned long long>(aps[i].frames));
    }
    std::printf("\n");

    for (const auto& [flag, out] : exports) {
      if (flag == "--csv") {
        trace::write_csv(capture, out);
      } else {
        trace::write_pcap(capture, out);
      }
      std::printf("wrote %s\n", out.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
