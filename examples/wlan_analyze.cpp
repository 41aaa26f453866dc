// wlan_analyze: the paper's full figure set over one-or-many capture files.
//
//   $ wlan_analyze sniffer0.pcap sniffer1.pcap ... [flags]
//
// Multiple captures are treated as per-sniffer recordings of one session:
// clock offsets are estimated from shared beacons, the captures are k-way
// merged with cross-sniffer duplicate suppression (trace/merge.hpp), and
// the merged stream feeds the analyzers.  Everything streams: pcap files are
// read once, in chunks, and records are pushed one at a time through
// core::StreamingAnalyzer, so peak memory is O(1) in capture size beyond the
// clock estimator's prefix.  An input may be a named pipe (mkfifo).
//
// Flags: the shared exp dialect (--out-dir, --quiet, --duration for the
// sim-backed modes, --trace-out) plus the tool's own, listed in usage()
// below.  The shared grid flags (--threads, --shards, --seeds, --only,
// --churn, --rate-policies) exit 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/streaming.hpp"
#include "exp/args.hpp"
#include "trace/merge.hpp"
#include "trace/pcap.hpp"
#include "trace/reader.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace wlan;

struct ToolOptions {
  std::optional<int> channel;
  trace::MergeOptions merge;
  bool clock_correction = true;  ///< false merges on all-zero offsets
  std::optional<std::string> sim_capture_dir;
  int sniffers = 2;
};

std::string usage_text(const std::string& argv0) {
  return "usage: " + argv0 +
         " <capture.{pcap,csv,trace}> [more captures...] [flags]\n"
         "       " + argv0 +
         " --sim-capture DIR [--duration S] [--sniffers N]\n\n"
         "  --channel N            restrict the analysis to one channel\n"
         "  --merge-window US      cross-sniffer duplicate window (default 100)\n"
         "  --no-clock-correction  merge on raw sniffer clocks\n"
         "  --sniffers N           sniffer count for --sim-capture (default 2)\n"
         "  --sim-capture DIR      write per-sniffer pcaps from a multi-sniffer cell run\n"
         "plus the shared experiment flags (--out-dir, --quiet, --duration, --help)";
}

void usage(const char* argv0, std::FILE* out = stderr) {
  std::fprintf(out, "%s\n", usage_text(argv0).c_str());
}

/// Splits the tool's own flags out of argv before the exp-dialect parser
/// sees the rest.
ToolOptions extract_tool_flags(int& argc, char** argv) {
  ToolOptions opt;
  const std::string usage_str = usage_text(argv[0]);
  std::vector<char*> kept{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(argv[0], stdout);
      // Fall through to parse_bench_args, which appends the shared
      // experiment flags to stdout and exits 0.
      kept.push_back(argv[i]);
    } else if (!std::strcmp(argv[i], "--channel")) {
      opt.channel = exp::int_arg(value(), "--channel", 1, 14, usage_str);
    } else if (!std::strcmp(argv[i], "--merge-window")) {
      opt.merge.dup_window_us =
          exp::int_arg(value(), "--merge-window", 0, 1'000'000, usage_str);
    } else if (!std::strcmp(argv[i], "--no-clock-correction")) {
      opt.clock_correction = false;
    } else if (!std::strcmp(argv[i], "--sniffers")) {
      opt.sniffers = exp::int_arg(value(), "--sniffers", 2, 16, usage_str);
    } else if (!std::strcmp(argv[i], "--sim-capture")) {
      opt.sim_capture_dir = value();
    } else {
      kept.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(kept.size());
  for (int i = 0; i < argc; ++i) argv[i] = kept[static_cast<std::size_t>(i)];
  return opt;
}

class ChannelFilterReader final : public trace::TraceReader {
 public:
  ChannelFilterReader(trace::TraceReader* inner, int channel)
      : inner_(inner), channel_(channel) {}
  bool next(trace::CaptureRecord& out) override {
    while (inner_->next(out)) {
      if (int{out.channel} == channel_) return true;
    }
    return false;
  }
  void reset() override { inner_->reset(); }

 private:
  trace::TraceReader* inner_;
  int channel_;
};

struct AnalyzeOutcome {
  core::AnalysisResult result;
  trace::ClockOffsets offsets;
  trace::MergeStats merge_stats;
  std::size_t seconds = 0;
  double knee = 0.0;
};

/// The streaming pipeline: chunked readers -> clock estimation -> merging
/// reader -> push-based analysis straight into figure bins and the
/// per-second CSV.  Each input is read once: the estimator's rewind replays
/// the prefix it read, so beyond that prefix the pipeline holds one record
/// per input.
AnalyzeOutcome analyze_streaming(const std::vector<std::string>& files,
                                 const ToolOptions& opt,
                                 const std::string& out_dir) {
  namespace fs = std::filesystem;
  std::vector<std::unique_ptr<trace::TraceReader>> owned;
  std::vector<trace::TraceReader*> inputs;
  for (const auto& f : files) {
    owned.push_back(trace::open_capture(f));
    inputs.push_back(owned.back().get());
  }

  AnalyzeOutcome out;
  std::vector<trace::ReplayOnceReader> once;
  std::optional<trace::MergingReader> merger;
  trace::TraceReader* source = inputs[0];
  if (inputs.size() > 1) {
    if (opt.clock_correction) {
      once.reserve(inputs.size());
      for (trace::TraceReader*& in : inputs) in = &once.emplace_back(*in);
      out.offsets = trace::estimate_clock_offsets(inputs);
      // An input the estimator left unread has nothing to replay.
      for (trace::ReplayOnceReader& r : once) {
        if (!r.rewound()) r.reset();
      }
    } else {
      out.offsets.offset_us.assign(inputs.size(), 0);
      out.offsets.anchors.assign(inputs.size(), 0);
    }
    merger.emplace(inputs, out.offsets.offset_us, opt.merge);
    source = &*merger;
  }
  std::optional<ChannelFilterReader> filter;
  if (opt.channel) {
    filter.emplace(source, *opt.channel);
    source = &*filter;
  }

  fs::create_directories(out_dir);
  core::FigureAccumulator acc;
  core::FigureStreamSink figures(acc);
  core::SecondsCsvSink seconds(
      (fs::path(out_dir) / "fig05_seconds.csv").string());
  core::TeeSink tee({&figures, &seconds});
  core::StreamingAnalyzer analyzer({}, &tee);
  // A single .trace/.csv capture carries explicit session bounds (quiet
  // leading/trailing seconds included); honor them as TraceAnalyzer does.
  // Merges and channel filters derive bounds from surviving records.
  if (owned.size() == 1 && !opt.channel) {
    if (const auto* o = dynamic_cast<trace::OwningReader*>(owned[0].get())) {
      analyzer.set_bounds(o->trace().start_us, o->trace().end_us);
    }
  }

  trace::CaptureRecord r;
  while (source->next(r)) analyzer.push(r);
  out.result = analyzer.finish();
  acc.add_senders(out.result.senders);
  if (merger) out.merge_stats = merger->stats();
  out.seconds = acc.seconds_absorbed();
  out.knee = acc.knee_utilization();
  for (const auto& [file, fig] : core::paper_figures(acc)) {
    core::write_figure_csv(fig, (fs::path(out_dir) / file).string());
  }
  return out;
}

void print_summary(const AnalyzeOutcome& out, std::size_t num_files,
                   const std::string& out_dir) {
  const auto& r = out.result;
  std::printf("%zu capture%s: %llu frames over %zu s "
              "(%llu data, %llu acks, %llu rts, %llu cts)\n",
              num_files, num_files == 1 ? "" : "s",
              static_cast<unsigned long long>(r.total_frames), out.seconds,
              static_cast<unsigned long long>(r.total_data),
              static_cast<unsigned long long>(r.total_acks),
              static_cast<unsigned long long>(r.total_rts),
              static_cast<unsigned long long>(r.total_cts));
  if (num_files > 1) {
    std::printf("merge: %llu records in, %llu cross-sniffer duplicates dropped\n",
                static_cast<unsigned long long>(out.merge_stats.records_in),
                static_cast<unsigned long long>(out.merge_stats.duplicates_dropped));
    for (std::size_t i = 1; i < out.offsets.offset_us.size(); ++i) {
      std::printf("clock: sniffer %zu offset %+lld us (%zu beacon anchors)\n",
                  i, static_cast<long long>(out.offsets.offset_us[i]),
                  out.offsets.anchors[i]);
    }
  }
  if (out.knee > 0) std::printf("throughput knee: ~%.0f%% utilization\n", out.knee);
  std::printf("figures written to %s (fig05_seconds + fig06..fig15 CSVs)\n",
              out_dir.c_str());
}

/// A short multi-sniffer cell session whose per-sniffer captures land in
/// `dir` as sniffer<j>.pcap — the sim-backed source for the golden digests,
/// the check.sh smoke, and the CI memory-flatness probe.
std::vector<std::string> write_sim_capture(const std::string& dir,
                                           double duration_s, int sniffers) {
  namespace fs = std::filesystem;
  workload::CellConfig cell;
  cell.seed = 62;
  cell.num_users = 10;
  cell.profile.mean_pps = 30.0;
  cell.profile.window = 2;
  cell.duration_s = duration_s > 0 ? duration_s : 8.0;
  cell.warmup_s = 1.0;
  cell.num_sniffers = sniffers;
  const workload::CellResult result = workload::run_cell(cell);

  fs::create_directories(dir);
  std::vector<std::string> files;
  for (std::size_t j = 0; j < result.sniffer_traces.size(); ++j) {
    files.push_back(
        (fs::path(dir) / ("sniffer" + std::to_string(j) + ".pcap")).string());
    trace::write_pcap(result.sniffer_traces[j], files.back());
    std::fprintf(stderr, "wrote %s (%zu records, clock skew %+lld us)\n",
                 files.back().c_str(), result.sniffer_traces[j].records.size(),
                 static_cast<long long>(static_cast<std::int64_t>(j) *
                                        cell.sniffer_clock_skew_us));
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  ToolOptions opt = extract_tool_flags(argc, argv);
  const exp::BenchArgs args = exp::parse_bench_args(
      argc, argv, "wlan_analyze: paper figure set over capture files", true);
  // The shared parser also takes the grid flags, but this tool runs no
  // grid: refuse them rather than ignore them.
  const std::pair<bool, const char*> grid_flags[] = {
      {args.threads > 0, "--threads"},
      {args.shards > 0, "--shards"},
      {args.seeds > 0, "--seeds"},
      {args.only_run.has_value(), "--only"},
      {!args.churn_rates.empty(), "--churn"},
      {!args.rate_policies.empty(), "--rate-policies"}};
  for (const auto& [given, flag] : grid_flags) {
    if (given) {
      std::fprintf(stderr,
                   "error: %s does not apply to wlan_analyze, which runs no "
                   "experiment grid\n",
                   flag);
      return 2;
    }
  }

  try {
    if (opt.sim_capture_dir) {
      write_sim_capture(*opt.sim_capture_dir, args.duration_s, opt.sniffers);
      return 0;
    }
    if (args.positionals.empty()) {
      usage(argv[0]);
      return 2;
    }
    const AnalyzeOutcome out =
        analyze_streaming(args.positionals, opt, args.out_dir);
    if (args.progress) print_summary(out, args.positionals.size(), args.out_dir);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
