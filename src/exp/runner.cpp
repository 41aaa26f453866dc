#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "exp/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace wlan::exp {

namespace {

// The runner's wall_ms manifest column and progress lines time the host,
// not the simulation; no simulated state ever reads this clock.  The
// golden digests pin manifests minus wall_ms for this reason.
// wlan-lint: allow(wall-clock) — host-side run timing (wall_ms column)
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One run's completed state, filled by a worker, consumed (in grid order)
/// by the merging thread.
struct Slot {
  core::FigureAccumulator figures;
  RunRecord record;
  obs::Metrics metrics;  ///< this run's work counters (MetricsScope target)
  std::exception_ptr error;  ///< a scenario factory threw
  std::atomic<bool> done{false};
};

/// Trace-span label for one run: "run: <scenario> #<index> seed <seed>".
std::string span_name(const RunSpec& run) {
  return "run: " + run.scenario + " #" + std::to_string(run.run_index) +
         " seed " + std::to_string(run.seed);
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const RunnerOptions& opt) {
  const auto t0 = Clock::now();

  std::vector<RunSpec> runs = expand(spec);
  const std::size_t full_points = grid_points(spec);
  if (opt.only_run) {
    if (*opt.only_run >= runs.size()) {
      throw std::out_of_range("run_experiment: --only " +
                              std::to_string(*opt.only_run) + " but grid has " +
                              std::to_string(runs.size()) + " runs");
    }
    runs = {runs[*opt.only_run]};  // keeps its full-grid indices
  }
  const std::size_t n = runs.size();

  // Fail an unknown scenario name here, catchable, rather than inside a
  // worker.
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  if (!registry.contains(spec.scenario)) {
    throw std::invalid_argument("run_experiment: unknown scenario \"" +
                                spec.scenario + "\"");
  }

  ExperimentResult result;
  if (opt.per_point_figures) result.per_point.resize(full_points);
  result.runs.reserve(n);
  if (n == 0) return result;

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::size_t threads = opt.threads > 0 ? static_cast<std::size_t>(opt.threads)
                                        : static_cast<std::size_t>(hw);
  threads = std::min(threads, n);

  // One shared cursor hands runs out lowest-index-first, so completions
  // track the merger's strictly ascending drain order — per-run results
  // are merged and freed almost as soon as they land instead of piling up.
  std::atomic<std::size_t> next_run{0};
  std::vector<Slot> slots(n);
  std::atomic<std::size_t> completed{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t idx = next_run++;
      if (idx >= n) return;

      const RunSpec& run = runs[idx];
      Slot& slot = slots[idx];
      const auto run_t0 = Clock::now();
      double wall_ms = 0.0;
      try {
        // The scope makes slot.metrics this thread's deposit target for the
        // whole run; the span (recorded only under --trace-out) shows where
        // the sweep's wall time went, per worker.
        obs::MetricsScope metrics_scope(slot.metrics);
        obs::Span span(span_name(run));
        const RunOutput out = registry.run(run.scenario, run);
        wall_ms = ms_since(run_t0);
        slot.figures.add(out.analysis);
        slot.figures.add_delays(out.queue_delay, out.service_delay);
        slot.record = make_record(run, out, wall_ms);
        slot.metrics.add(obs::Id::kRuns, 1);
      } catch (...) {
        // Never let an exception escape the thread (std::terminate); park
        // it in the slot for the merging thread to rethrow.
        slot.error = std::current_exception();
      }
      // Progress first: once published, the slot belongs to the merger.
      if (opt.progress && !slot.error) {
        const std::size_t c = completed.fetch_add(1) + 1;
        std::fprintf(stderr,
                     "  [%zu/%zu] %s users=%-3d pps=%-4.0f far=%.2f "
                     "%s/%s seed=%llu -> util %.1f%%, %llu frames (%.0f ms)\n",
                     c, n, run.scenario.c_str(), run.load.users, run.load.pps,
                     run.load.far_fraction, run.rate_policy.c_str(),
                     run.timing.c_str(),
                     static_cast<unsigned long long>(run.seed),
                     slot.record.mean_util_pct,
                     static_cast<unsigned long long>(slot.record.frames),
                     wall_ms);
      }
      slot.done.store(true, std::memory_order_release);
      slot.done.notify_one();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);

  // Streaming reduction on the calling thread: strictly ascending run index
  // keeps the merge order — and with it every accumulated double — fixed.
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    slot.done.wait(false, std::memory_order_acquire);
    if (slot.error) {
      if (!first_error) first_error = slot.error;
      continue;
    }
    if (first_error) continue;  // stop aggregating, but drain every slot
    result.figures.merge(slot.figures);
    if (opt.per_point_figures) {
      result.per_point[runs[i].point_index].merge(slot.figures);
    }
    result.runs.push_back(std::move(slot.record));
    result.metrics.merge(slot.metrics);
    result.run_metrics.push_back({runs[i].run_index, runs[i].point_index,
                                  runs[i].seed, slot.metrics});
    slot.figures = core::FigureAccumulator{};  // release per-run memory early
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);

  result.wall_s = ms_since(t0) / 1e3;

  if (!opt.out_dir.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(opt.out_dir);
    // An --only replay gets its own files so it never clobbers the full
    // sweep's manifest in the same out-dir.
    std::string stem = (fs::path(opt.out_dir) / spec.name).string();
    if (opt.only_run) stem += "_run" + std::to_string(*opt.only_run);
    write_manifest_csv(stem + "_manifest.csv", result.runs,
                       opt.timing_in_manifest);
    write_manifest_json(stem + "_manifest.json", result.runs,
                        opt.timing_in_manifest);
    // Counter snapshots ride in their own files so the manifest bytes stay
    // the same whether or not anyone reads the counters.
    write_metrics_csv(stem + "_metrics.csv", result.run_metrics);
    write_metrics_json(stem + "_metrics.json", result.run_metrics,
                       result.metrics);
  }
  return result;
}

}  // namespace wlan::exp
