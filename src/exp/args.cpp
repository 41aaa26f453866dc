#include "exp/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_span.hpp"

namespace wlan::exp {

namespace {

/// --trace-out destination; the atexit hook below writes it after main
/// returns, so every driver gets the dump without any per-driver code.
std::string g_trace_out;  // NOLINT(cert-err58-cpp): literal-free construction

void dump_trace_at_exit() {
  if (g_trace_out.empty()) return;
  if (obs::TraceLog::instance().write(g_trace_out)) {
    std::fprintf(stderr, "trace written to %s\n", g_trace_out.c_str());
  } else {
    std::fprintf(stderr, "failed to write trace to %s\n", g_trace_out.c_str());
  }
}

/// The tokens of a comma-separated flag value in order, empty ones
/// included ("a,,b" is "a", "", "b"), for the caller to check.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    tokens.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return tokens;
}

/// Whole-token number parsers: the value must be the entire token ("2x" is
/// a typo, not 2) and lie in [lo, hi], or be positive and finite ("inf" and
/// "nan" are no duration); nullopt when it does not.
std::optional<long long> parse_integer(const char* token, long long lo,
                                       long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(token, &end, 10);
  if (end == token || *end != '\0' || errno == ERANGE || parsed < lo ||
      parsed > hi) {
    return std::nullopt;
  }
  return parsed;
}

std::optional<double> parse_positive(const char* token) {
  char* end = nullptr;
  const double parsed = std::strtod(token, &end);
  if (end == token || *end != '\0' || !std::isfinite(parsed) ||
      parsed <= 0.0) {
    return std::nullopt;
  }
  return parsed;
}

/// A run length in (0, kMaxDurationS) seconds.
std::optional<double> parse_duration(const char* token) {
  const auto parsed = parse_positive(token);
  if (!parsed || *parsed >= kMaxDurationS) return std::nullopt;
  return parsed;
}

/// An example's bad argument: prints its usage line and exits 2.
[[noreturn]] void exit_with_usage(std::string_view usage) {
  std::fprintf(stderr, "%.*s\n", static_cast<int>(usage.size()),
               usage.data());
  std::exit(2);
}

[[noreturn]] void usage(std::string_view what, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "%.*s\n\n", static_cast<int>(what.size()), what.data());
  std::fprintf(out,
               "  --threads N     worker threads (default: all cores)\n"
               "  --shards N      per-run channel-shard worker threads\n"
               "                  (output is byte-identical for any N)\n"
               "  --seeds N       seed repeats per grid point\n"
               "  --duration S    per-run simulated seconds\n"
               "  --out-dir DIR   where CSV series + manifests land (default .)\n"
               "  --only RUN      replay one grid run (a manifest 'run' index)\n"
               "  --churn LIST    comma-separated churn-rate axis (population\n"
               "                  turnovers/min, at most %d; churn scenarios only)\n"
               "  --rate-policies LIST\n"
               "                  comma-separated rate-policy axis (registry\n"
               "                  keys, e.g. arf,minstrel; see --list)\n"
               "  --trace-out F   dump Chrome trace-event JSON (wall-clock\n"
               "                  spans; open in Perfetto) to F at exit\n"
               "  --quiet         no per-run progress on stderr\n"
               "  --help          this text\n",
               kMaxChurnPerMin);
  std::exit(code);
}

}  // namespace

BenchArgs parse_bench_args(int argc, char** argv, std::string_view what,
                           bool allow_positionals) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (allow_positionals && !flag.starts_with("--") && flag != "-h") {
      args.positionals.push_back(flag);
      continue;
    }
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        usage(what, 2);
      }
      return argv[++i];
    };
    auto positive_int = [&]() {
      const auto parsed =
          parse_integer(value(), 1, std::numeric_limits<int>::max());
      if (!parsed) {
        std::fprintf(stderr, "%s wants a positive integer\n", flag.c_str());
        usage(what, 2);
      }
      return static_cast<int>(*parsed);
    };
    if (flag == "--help" || flag == "-h") {
      usage(what, 0);
    } else if (flag == "--threads") {
      args.threads = positive_int();
    } else if (flag == "--shards") {
      args.shards = positive_int();
    } else if (flag == "--seeds") {
      args.seeds = positive_int();
    } else if (flag == "--duration") {
      const auto parsed = parse_duration(value());
      if (!parsed) {
        std::fprintf(stderr, "--duration wants positive seconds below %s\n",
                     std::to_string(kMaxDurationS).c_str());
        usage(what, 2);
      }
      args.duration_s = *parsed;
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--only") {
      const auto parsed =
          parse_integer(value(), 0, std::numeric_limits<long long>::max());
      if (!parsed) {
        std::fprintf(stderr, "--only wants a non-negative run index\n");
        usage(what, 2);
      }
      args.only_run = static_cast<std::size_t>(*parsed);
    } else if (flag == "--churn") {
      for (const std::string& tok : split_list(value())) {
        char* end = nullptr;
        const double parsed = std::strtod(tok.c_str(), &end);
        if (tok.empty() || end != tok.c_str() + tok.size() ||
            !std::isfinite(parsed) || parsed > kMaxChurnPerMin) {
          std::fprintf(stderr,
                       "--churn wants comma-separated finite numbers of at "
                       "most %d turnovers/min\n",
                       kMaxChurnPerMin);
          usage(what, 2);
        }
        args.churn_rates.push_back(parsed);
      }
    } else if (flag == "--rate-policies") {
      for (std::string& tok : split_list(value())) {
        if (tok.empty()) {
          std::fprintf(stderr,
                       "--rate-policies wants comma-separated policy keys\n");
          usage(what, 2);
        }
        args.rate_policies.push_back(std::move(tok));
      }
    } else if (flag == "--trace-out") {
      args.trace_out = value();
      // Enable before the sweep starts; dump after main returns.  Handler
      // order: instance() is constructed here, *before* std::atexit, so the
      // dump runs before the TraceLog's own static destructor.
      g_trace_out = args.trace_out;
      obs::TraceLog::instance().enable();
      std::atexit(dump_trace_at_exit);
    } else if (flag == "--quiet") {
      args.progress = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      usage(what, 2);
    }
  }
  return args;
}

int int_arg(const char* token, const char* name, int lo, int hi,
            std::string_view usage) {
  if (const auto parsed = parse_integer(token, lo, hi)) {
    return static_cast<int>(*parsed);
  }
  if (hi == std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "%s wants a whole number of at least %d, not '%s'\n",
                 name, lo, token);
  } else {
    std::fprintf(stderr, "%s wants a whole number from %d to %d, not '%s'\n",
                 name, lo, hi, token);
  }
  exit_with_usage(usage);
}

double positive_arg(const char* token, const char* name,
                    std::string_view usage) {
  if (const auto parsed = parse_positive(token)) return *parsed;
  std::fprintf(stderr, "%s wants a positive number, not '%s'\n", name, token);
  exit_with_usage(usage);
}

double duration_arg(const char* token, const char* name,
                    std::string_view usage) {
  if (const auto parsed = parse_duration(token)) return *parsed;
  std::fprintf(stderr, "%s wants positive seconds below %s, not '%s'\n", name,
               std::to_string(kMaxDurationS).c_str(), token);
  exit_with_usage(usage);
}

void apply_args(const BenchArgs& args, ExperimentSpec& spec) {
  if (args.seeds > 0) spec.seeds_per_point = args.seeds;
  if (args.shards > 0) spec.shards = args.shards;
  if (args.duration_s > 0.0) spec.duration_s = args.duration_s;
  if (!args.churn_rates.empty()) spec.churn_rates = args.churn_rates;
  if (!args.rate_policies.empty()) spec.rate_policies = args.rate_policies;
}

RunnerOptions runner_options(const BenchArgs& args) {
  RunnerOptions opt;
  opt.threads = args.threads;
  opt.progress = args.progress;
  opt.out_dir = args.out_dir;
  opt.only_run = args.only_run;
  return opt;
}

}  // namespace wlan::exp
