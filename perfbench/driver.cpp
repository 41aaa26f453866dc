// wlan_perfbench: one benchmark operation per process, one JSON line out.
//
//   wlan_perfbench --workload W --seed N [--size full|smoke] [--traced]
//                  [--captures DIR]
//   wlan_perfbench --prepare --seed N --captures DIR [--size full|smoke]
//   wlan_perfbench --check-shards --seed N
//
// perfbench/run_bench.py spawns this binary once per operation, so allocator
// state and peak RSS never leak from one operation into the next.  The
// workloads (see perfbench/README.md for why each was chosen):
//
//   sweep_cell      exp::run_experiment over bench::standard_spec with 24
//                   seeds per load point: 360 single-channel cell runs of
//                   18 simulated s on 2 runner threads.
//   plenary         registry "ietf-plenary", scale 1.0, 318 simulated s,
//                   3 shard threads.
//   day_churn       registry "ietf-day-churn", scale 1.0, 2 turnovers/min,
//                   190 simulated s, 3 shard threads.
//   capture_replay  10 streaming passes over the three per-channel pcaps of
//                   a 300 s plenary (written beforehand by --prepare):
//                   open_capture -> estimate_clock_offsets -> MergingReader
//                   -> StreamingAnalyzer + FigureStreamSink.
//
// An untraced run times exactly what a user of the library runs.  A traced
// run (--traced) repeats the same work by calling each layer's public
// functions one at a time from here, timing every call, so the wall time
// splits by layer without a single timer inside src/.  Both print the
// deterministic work counters and an FNV-1a digest of the fig06 CSV bytes,
// which run_bench.py compares across operations, modes and the committed
// expectations.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/analyzer.hpp"
#include "core/report.hpp"
#include "core/streaming.hpp"
#include "core/unrecorded.hpp"
#include "exp/manifest.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "obs/metrics.hpp"
#include "trace/merge.hpp"
#include "trace/pcap.hpp"
#include "trace/reader.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace wlan;

constexpr int kSweepThreads = 2;
constexpr int kSessionShards = 3;
constexpr int kSessionUsers = 100;  // population scale 1.0
constexpr double kSessionPps = 6.0;
constexpr double kSessionRtscts = 0.03;
constexpr double kChurnTurnoverPerMin = 2.0;
constexpr double kCheckShardsDuration = 30.0;
constexpr std::size_t kReplayChunk = 4096;  // traced replay's merge batch

/// Operation sizes.  The session lengths sit where no large record vector
/// (per-sniffer captures, merged trace, ground truth and its per-channel
/// staging) crosses a power of two on any of 20 seeds tried, so peak RSS is
/// steady across seeds: at 600 s the plenary's merged trace straddles 2^21
/// records, and vector doubling made peak RSS 571 MB on some seeds and
/// 672 MB on others.  "smoke" keeps every workload's shape at a few percent
/// of the work so `run_bench.py --smoke` finishes in seconds.
struct Sizes {
  int sweep_seeds_per_point;
  double sweep_duration_s;
  double plenary_s;
  double churn_s;
  double capture_s;
  int replay_passes;
};
constexpr Sizes kFull{24, 18.0, 318.0, 190.0, 300.0, 10};
constexpr Sizes kSmoke{1, 6.0, 20.0, 20.0, 20.0, 2};

/// CLOCK_MONOTONIC seconds, the clock run_bench.py's time.monotonic() reads.
double steady_seconds() {
  // wlan-lint: allow(wall-clock) — benchmark harness timing; never feeds sim
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

double cpu_seconds() {
  // wlan-lint: allow(wall-clock) — process CPU time for the parallelism ratio
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// --- op results ----------------------------------------------------------

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// One checked unit of work: a sweep, a session, or one replay pass.
struct Check {
  std::string digest;
  Counters counters;
};

struct OpResult {
  double t0 = 0.0;  ///< steady-clock seconds when the timed region began
  double wall_s = 0.0;
  std::uint64_t records = 0;  ///< capture records through the pipeline
  double sim_s = 0.0;         ///< simulated (or replayed) network seconds
  std::vector<Check> checks;
  /// Traced runs only: per-layer metrics, plus the inputs run_bench.py
  /// needs to relate the traced run to the untraced median.
  std::map<std::string, double> layer;
};

/// 64-bit FNV-1a over a byte stream.
class Fnv1a {
 public:
  void add(const std::string& bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Adds the fig06 CSV bytes exactly as the figure benches and wlan_analyze
/// write them.  The paper bins seconds of 30-99% utilization; a merged
/// three-channel session fills none of those bins, so the session and
/// replay digests also cover the manifest rows or the per-second series.
void add_fig06(Fnv1a& fnv, const core::FigureAccumulator& acc) {
  const std::string path = "fig06." + std::to_string(::getpid()) + ".csv";
  core::write_figure_csv(acc.fig06_throughput_goodput(), path);
  std::ifstream in(path, std::ios::binary);
  fnv.add(std::string((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>()));
  in.close();
  std::filesystem::remove(path);
}

/// Digest of a runner result: fig06 CSV plus every manifest row (without
/// the wall-clock column).
std::string experiment_digest(const core::FigureAccumulator& acc,
                              const std::vector<exp::RunRecord>& runs) {
  Fnv1a fnv;
  add_fig06(fnv, acc);
  for (const exp::RunRecord& r : runs) {
    for (const std::string& cell : exp::manifest_row(r, false)) fnv.add(cell + ",");
    fnv.add("\n");
  }
  return fnv.hex();
}

/// Hashes the analyzer's per-second series and acceptance samples at full
/// precision as they stream out; the capture replay's output check.  The
/// two streams hash apart, so a batch AnalysisResult (feed) digests the
/// same as its streamed twin whatever the interleaving.
class DigestSink final : public core::AnalysisSink {
 public:
  void on_second(const core::SecondStats& s) override {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%lld %.17g %llu %llu %llu %llu %llu %llu\n",
                  static_cast<long long>(s.second), s.cbt_us,
                  static_cast<unsigned long long>(s.bits_all),
                  static_cast<unsigned long long>(s.bits_good),
                  static_cast<unsigned long long>(s.data),
                  static_cast<unsigned long long>(s.ack),
                  static_cast<unsigned long long>(s.rts),
                  static_cast<unsigned long long>(s.cts));
    seconds_.add(buf);
  }
  void on_acceptance(const core::AcceptanceSample& a, double util) override {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%lld %zu %.17g %.17g\n",
                  static_cast<long long>(a.second), a.category, a.delay_us, util);
    acceptance_.add(buf);
  }
  /// Replays a collected result the way FigureAccumulator::add bins it.
  void feed(const core::AnalysisResult& a) {
    for (const core::SecondStats& s : a.seconds) on_second(s);
    for (const core::AcceptanceSample& sample : a.acceptance) {
      const auto idx = static_cast<std::size_t>(sample.second);
      if (idx < a.seconds.size()) on_acceptance(sample, a.seconds[idx].utilization());
    }
  }
  [[nodiscard]] std::string digest(const core::FigureAccumulator& acc) const {
    Fnv1a out = seconds_;
    out.add(acceptance_.hex());
    add_fig06(out, acc);
    return out.hex();
  }

 private:
  Fnv1a seconds_;
  Fnv1a acceptance_;
};

Counters obs_counters(const obs::Metrics& m) {
  Counters out;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto id = static_cast<obs::Id>(i);
    out.emplace_back(obs::name(id), m.value(id));
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_counters(const Counters& c) {
  std::printf("{");
  for (std::size_t i = 0; i < c.size(); ++i) {
    std::printf("%s\"%s\": %llu", i ? ", " : "", c[i].first.c_str(),
                static_cast<unsigned long long>(c[i].second));
  }
  std::printf("}");
}

/// Deterministic check values of one capture replay: what the merge and the
/// analyzer saw.  The in-memory reference (--prepare) computes the same.
Counters replay_counters(const trace::MergeStats& merge,
                         const core::AnalysisResult& a) {
  return {{"merge.records_in", merge.records_in},
          {"merge.duplicates_dropped", merge.duplicates_dropped},
          {"merge.emitted", merge.emitted},
          {"analysis.frames", a.total_frames},
          {"analysis.data", a.total_data},
          {"analysis.acks", a.total_acks},
          {"analysis.rts", a.total_rts},
          {"analysis.cts", a.total_cts}};
}

// --- stage timing (traced runs) -------------------------------------------

/// Wall seconds per stage name, accumulated over calls.
class Stages {
 public:
  template <class Fn>
  decltype(auto) time(const std::string& stage, Fn&& fn) {
    struct Stop {
      Stages* self;
      const std::string* stage;
      double t0;
      ~Stop() { self->sums_[*stage] += steady_seconds() - t0; }
    } stop{this, &stage, steady_seconds()};
    return fn();
  }

  [[nodiscard]] double get(const std::string& stage) const {
    const auto it = sums_.find(stage);
    return it == sums_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double total() const {
    double s = 0.0;
    for (const auto& [name, v] : sums_) s += v;
    return s;
  }
  void merge(const Stages& o) {
    for (const auto& [name, v] : o.sums_) sums_[name] += v;
  }

 private:
  std::map<std::string, double> sums_;
};

/// Per-layer metrics every workload reports; zero where a workload does not
/// exercise the layer.  Counter-derived entries come from the op's metrics.
void add_counter_layer(std::map<std::string, double>& L, const obs::Metrics& m) {
  using obs::Id;
  const auto v = [&](Id id) { return static_cast<double>(m.value(id)); };
  L["exp.runs"] = v(Id::kRuns);
  L["workload.churn_arrivals"] = v(Id::kChurnArrivals);
  L["workload.churn_roams"] = v(Id::kChurnRoams);
  L["workload.stations_removed"] = v(Id::kStationsRemoved);
  L["sim.events_executed"] = v(Id::kEventsExecuted);
  L["sim.events_cancelled"] = v(Id::kEventsCancelled);
  L["sim.transmissions"] = v(Id::kTransmissions);
  L["sim.collisions"] = v(Id::kCollisions);
  L["sim.delivery_chance_draws"] = v(Id::kDeliveryChanceDraws);
  L["sim.draws_per_tx"] = ratio(v(Id::kDeliveryChanceDraws), v(Id::kTransmissions));
  L["sim.broadcast_plan_hit_ratio"] =
      ratio(v(Id::kBroadcastPlanHits),
            v(Id::kBroadcastPlanHits) + v(Id::kBroadcastPlanRebuilds));
  L["phy.frame_success_evals"] = v(Id::kFrameSuccessEvals);
  L["phy.frame_success_hit_ratio"] =
      ratio(v(Id::kFrameSuccessHits),
            v(Id::kFrameSuccessHits) + v(Id::kFrameSuccessEvals));
  L["phy.frame_success_saturated"] = v(Id::kFrameSuccessSaturated);
  L["phy.dbm_to_mw_evals"] = v(Id::kDbmToMwEvals);
  L["phy.dbm_to_mw_hit_ratio"] = ratio(
      v(Id::kDbmToMwHits), v(Id::kDbmToMwHits) + v(Id::kDbmToMwEvals));
  L["phy.mw_to_dbm_evals"] = v(Id::kMwToDbmEvals);
  L["phy.link_cache_station_mutations"] = v(Id::kLinkCacheStationMutations);
  L["rate.plans"] = v(Id::kRatePlans);
  L["rate.outcomes"] = v(Id::kRateOutcomes);
  L["trace.sniffer_frames_captured"] = v(Id::kSnifferFramesCaptured);
  L["trace.sniffer_frames_missed"] = v(Id::kSnifferFramesMissed);
  L["util.arena_resets"] = v(Id::kArenaResets);
  L["util.arena_capacity_bytes_hw"] = v(Id::kArenaCapacityBytesHw);
}

/// The stage-derived metrics, each a share of the traced wall time so that
/// one table compares layers across workloads.  `threads` divides stages
/// that ran concurrently on the runner's pool.
void add_stage_layer(std::map<std::string, double>& L, const Stages& pool,
                     int threads, const Stages& serial, double wall_s) {
  const double pool_wall = wall_s * threads;
  const auto share = [&](const std::string& stage) {
    return ratio(pool.get(stage), pool_wall) + ratio(serial.get(stage), wall_s);
  };
  for (const char* stage :
       {"workload.build", "workload.run_cell", "sim.run", "trace.copy",
        "trace.merge", "trace.offsets", "trace.read_merge", "core.analyze",
        "core.unrecorded", "core.figures"}) {
    L[std::string(stage) + "_share"] = share(stage);
  }
  L["traced.coverage"] = ratio(pool.total(), pool_wall) + ratio(serial.total(), wall_s);
}

// --- workload specs --------------------------------------------------------

exp::ExperimentSpec sweep_spec(std::uint64_t seed, const Sizes& sz) {
  bench::SweepOptions opt;
  opt.base_seed = seed;
  opt.seeds_per_point = sz.sweep_seeds_per_point;
  opt.duration_s = sz.sweep_duration_s;
  return bench::standard_spec("perfbench_sweep_cell", opt);
}

exp::ExperimentSpec session_spec(const std::string& scenario, std::uint64_t seed,
                                 double duration_s, int shards) {
  exp::ExperimentSpec spec;
  spec.name = "perfbench_" + scenario;
  spec.scenario = scenario;
  spec.base_seed = seed;
  spec.duration_s = duration_s;
  spec.shards = shards;
  spec.loads = {exp::LoadPoint{kSessionUsers, kSessionPps}};
  spec.rtscts_fractions = {kSessionRtscts};
  if (scenario == "ietf-day-churn") spec.churn_rates = {kChurnTurnoverPerMin};
  return spec;
}

/// The registry's RunSpec -> ScenarioConfig mapping for session scenarios
/// (src/exp/registry.cpp), repeated so a traced run can call each layer
/// itself.  A drift between the two shows up as a counter mismatch between
/// traced and untraced runs.
workload::ScenarioConfig session_config(const exp::RunSpec& run) {
  workload::ScenarioConfig cfg;
  cfg.seed = run.seed;
  cfg.duration_s = run.cell.duration_s;
  cfg.scale = run.load.users / 100.0;
  cfg.profile = run.cell.profile;
  cfg.profile.mean_pps = run.load.pps;
  cfg.rtscts_fraction = run.rtscts_fraction;
  cfg.rate = run.cell.rate;
  cfg.timing = run.cell.timing;
  cfg.shards = run.cell.shards;
  if (run.scenario == "ietf-day-churn") {
    cfg.churn_turnover_per_min = run.churn_rate > 0.0 ? run.churn_rate : 1.0;
  }
  return cfg;
}

// --- untraced operations ---------------------------------------------------

/// Runs a spec on the experiment runner: the sweep and both sessions.
OpResult run_experiment_op(const exp::ExperimentSpec& spec, int threads) {
  exp::RunnerOptions ropt;
  ropt.threads = threads;
  OpResult op;
  op.t0 = steady_seconds();
  const exp::ExperimentResult result = exp::run_experiment(spec, ropt);
  op.wall_s = steady_seconds() - op.t0;

  for (const exp::RunRecord& run : result.runs) op.records += run.frames;
  op.sim_s = spec.duration_s * static_cast<double>(result.runs.size());
  op.checks.push_back(
      {experiment_digest(result.figures, result.runs), obs_counters(result.metrics)});
  return op;
}

std::vector<std::string> capture_files(const std::string& dir) {
  std::vector<std::string> files;
  for (int j = 0; j < 3; ++j) {
    files.push_back(
        (std::filesystem::path(dir) / ("sniffer" + std::to_string(j) + ".pcap"))
            .string());
  }
  return files;
}

/// One streaming pass over the captures, as wlan_analyze runs it.  With
/// `stages` set, every layer call is timed and the merge is drained in
/// kReplayChunk batches so merging and analysis time apart.
struct ReplayPass {
  core::FigureAccumulator figures;
  DigestSink digest;
  trace::MergeStats merge;
  core::AnalysisResult result;
};

ReplayPass replay_pass(const std::vector<std::string>& files, Stages* stages) {
  const auto stage = [stages](const char* name, auto&& fn) {
    if (stages != nullptr) return stages->time(name, fn);
    return fn();
  };

  std::vector<std::unique_ptr<trace::TraceReader>> owned;
  std::vector<trace::TraceReader*> inputs;
  const trace::ClockOffsets offsets = stage("trace.offsets", [&] {
    for (const auto& f : files) {
      owned.push_back(trace::open_capture(f));
      inputs.push_back(owned.back().get());
    }
    trace::ClockOffsets o = trace::estimate_clock_offsets(inputs);
    for (auto* in : inputs) in->reset();
    return o;
  });

  trace::MergingReader merger(inputs, offsets.offset_us);
  ReplayPass pass;
  core::FigureStreamSink figures(pass.figures);
  core::TeeSink tee({&figures, &pass.digest});
  core::StreamingAnalyzer analyzer({}, &tee);
  if (stages == nullptr) {
    trace::CaptureRecord r;
    while (merger.next(r)) analyzer.push(r);
  } else {
    std::vector<trace::CaptureRecord> chunk(kReplayChunk);
    for (;;) {
      const std::size_t n = stages->time("trace.read_merge", [&] {
        std::size_t k = 0;
        while (k < chunk.size() && merger.next(chunk[k])) ++k;
        return k;
      });
      if (n == 0) break;
      stages->time("core.analyze", [&] {
        for (std::size_t k = 0; k < n; ++k) analyzer.push(chunk[k]);
      });
    }
  }
  stage("core.figures", [&] {
    pass.result = analyzer.finish();
    pass.figures.add_senders(pass.result.senders);
  });
  pass.merge = merger.stats();
  return pass;
}

// --- traced operations -----------------------------------------------------

OpResult traced_sweep(const exp::ExperimentSpec& spec) {
  const std::vector<exp::RunSpec> runs = exp::expand(spec);
  const std::size_t n = runs.size();
  std::vector<core::FigureAccumulator> figures(n);
  std::vector<obs::Metrics> metrics(n);
  std::vector<exp::RunRecord> records(n);
  std::vector<double> ground_truth_mb(n, 0.0);
  std::vector<double> materialized_mb(n, 0.0);
  std::vector<Stages> pool(kSweepThreads);
  std::atomic<std::size_t> next{0};

  OpResult op;
  op.t0 = steady_seconds();
  const double c0 = cpu_seconds();
  // The runner's work-stealing pool, reduced to what the timing needs: the
  // same thread count, each run under its own MetricsScope, results merged
  // in grid order afterwards.
  const auto worker = [&](Stages& st) {
    for (std::size_t i = next++; i < n; i = next++) {
      const exp::RunSpec& run = runs[i];
      obs::MetricsScope scope(metrics[i]);
      const workload::CellResult cell =
          st.time("workload.run_cell", [&] { return workload::run_cell(run.cell); });
      exp::RunOutput out;
      out.analysis =
          st.time("core.analyze", [&] { return core::TraceAnalyzer{}.analyze(cell.trace); });
      out.unrecorded = st.time("core.unrecorded",
                               [&] { return core::estimate_unrecorded(cell.trace).totals; });
      out.medium_transmissions = cell.medium_transmissions;
      out.medium_collisions = cell.medium_collisions;
      out.sniffer_offered = cell.sniffer.offered;
      out.sniffer_captured = cell.sniffer.captured;
      st.time("core.figures", [&] {
        figures[i].add(out.analysis);
        figures[i].add_delays(cell.queue_delay, cell.service_delay);
      });
      WLAN_OBS_ONLY(metrics[i].add(obs::Id::kRuns, 1);)
      records[i] = exp::make_record(run, out, 0.0);
      ground_truth_mb[i] =
          1e-6 * static_cast<double>(cell.ground_truth.size() * sizeof(trace::TxRecord));
      materialized_mb[i] = 1e-6 * static_cast<double>(cell.trace.records.size() *
                                                      sizeof(trace::CaptureRecord));
    }
  };
  {
    std::vector<std::thread> threads;
    for (Stages& st : pool) threads.emplace_back(worker, std::ref(st));
    for (std::thread& t : threads) t.join();
  }
  const double pool_wall = steady_seconds() - op.t0;
  const double pool_cpu = cpu_seconds() - c0;

  Stages serial;
  core::FigureAccumulator merged;
  obs::Metrics total;
  serial.time("core.figures", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      merged.merge(figures[i]);
      total.merge(metrics[i]);
    }
  });
  op.wall_s = steady_seconds() - op.t0;

  for (const exp::RunRecord& r : records) op.records += r.frames;
  op.sim_s = spec.duration_s * static_cast<double>(n);
  op.checks.push_back({experiment_digest(merged, records), obs_counters(total)});

  Stages busy;
  for (const Stages& st : pool) busy.merge(st);
  std::map<std::string, double>& L = op.layer;
  add_counter_layer(L, total);
  add_stage_layer(L, busy, kSweepThreads, serial, op.wall_s);
  L["sim.parallelism"] = ratio(pool_cpu, pool_wall);
  L["sim.events_per_s"] = ratio(static_cast<double>(total.value(obs::Id::kEventsExecuted)),
                                busy.get("workload.run_cell"));
  L["sim.ground_truth_mb"] = *std::max_element(ground_truth_mb.begin(), ground_truth_mb.end());
  L["trace.materialized_mb"] =
      *std::max_element(materialized_mb.begin(), materialized_mb.end());
  L["core.records_per_s"] =
      ratio(static_cast<double>(op.records), busy.get("core.analyze"));
  L["run_busy_s"] = busy.total();
  L["threads"] = kSweepThreads;
  return op;
}

OpResult traced_session(const exp::ExperimentSpec& spec) {
  const exp::RunSpec run = exp::expand(spec).at(0);
  const workload::ScenarioConfig cfg = session_config(run);
  const bool day = run.scenario == "ietf-day-churn";

  Stages st;
  obs::Metrics m;
  OpResult op;
  std::map<std::string, double>& L = op.layer;
  op.t0 = steady_seconds();
  core::FigureAccumulator figures;
  std::vector<exp::RunRecord> records;
  {
    obs::MetricsScope scope(m);
    workload::Scenario scenario = st.time("workload.build", [&] {
      return day ? workload::Scenario::day(cfg) : workload::Scenario::plenary(cfg);
    });
    sim::Network& net = scenario.network();
    const double c0 = cpu_seconds();
    st.time("sim.run", [&] { scenario.run(); });
    L["sim.parallelism"] = ratio(cpu_seconds() - c0, st.get("sim.run"));

    exp::RunOutput out;
    st.time("sim.harvest", [&] {
      net.harvest_metrics(m);
      if (scenario.has_churn()) {
        const workload::ChurnProcess& c = scenario.churn();
        m.add(obs::Id::kChurnArrivals, c.arrivals());
        m.add(obs::Id::kChurnRoams, c.roams());
        m.add(obs::Id::kChurnMoves, c.moves());
        m.note_max(obs::Id::kChurnPeakLive, c.peak_live());
      }
      net.harvest_delays(out.queue_delay, out.service_delay);
    });
    const std::vector<trace::Trace> sniffed =
        st.time("trace.copy", [&] { return net.sniffer_traces(); });
    const trace::MergeResult merged =
        st.time("trace.merge", [&] { return trace::merge_sniffer_traces(sniffed); });
    obs::count(obs::Id::kTraceRecords, merged.trace.records.size());
    out.analysis =
        st.time("core.analyze", [&] { return core::TraceAnalyzer{}.analyze(merged.trace); });
    out.unrecorded = st.time("core.unrecorded",
                             [&] { return core::estimate_unrecorded(merged.trace).totals; });
    st.time("core.figures", [&] {
      core::FigureAccumulator slot;
      slot.add(out.analysis);
      slot.add_delays(out.queue_delay, out.service_delay);
      figures.merge(slot);
    });
    op.wall_s = steady_seconds() - op.t0;
    WLAN_OBS_ONLY(m.add(obs::Id::kRuns, 1);)

    records.push_back(exp::make_record(run, out, 0.0));
    op.records = out.analysis.total_frames;
    const double control =
        static_cast<double>(net.simulator().events_executed());
    std::vector<double> lanes;
    for (const std::uint8_t ch : net.channel_numbers()) {
      lanes.push_back(static_cast<double>(net.channel(ch).simulator().events_executed()));
      L["sim.lane_events.ch" + std::to_string(ch)] = lanes.back();
    }
    double lane_sum = 0.0;
    for (const double l : lanes) lane_sum += l;
    L["sim.control_events"] = control;
    L["sim.control_events_per_sim_s"] = ratio(control, cfg.duration_s);
    L["sim.lane_imbalance"] =
        ratio(*std::max_element(lanes.begin(), lanes.end()),
              lane_sum / static_cast<double>(lanes.size()));
    L["sim.ground_truth_mb"] =
        1e-6 * static_cast<double>(net.ground_truth().size() * sizeof(trace::TxRecord));
    std::size_t held = merged.trace.records.size();
    for (const trace::Trace& t : sniffed) held += t.records.size();
    L["trace.materialized_mb"] =
        1e-6 * static_cast<double>(held * sizeof(trace::CaptureRecord));
    L["trace.merge_dup_ratio"] =
        ratio(static_cast<double>(merged.stats.duplicates_dropped),
              static_cast<double>(merged.stats.records_in));
  }
  op.sim_s = spec.duration_s;
  op.checks.push_back({experiment_digest(figures, records), obs_counters(m)});

  add_counter_layer(L, m);
  add_stage_layer(L, Stages{}, 1, st, op.wall_s);
  L["sim.events_per_s"] = ratio(static_cast<double>(m.value(obs::Id::kEventsExecuted)),
                                st.get("sim.run"));
  L["core.records_per_s"] = ratio(static_cast<double>(op.records), st.get("core.analyze"));
  return op;
}

/// The replay passes of one operation; traced, every pass's layer calls
/// are timed into one Stages.
OpResult capture_replay_op(const std::string& dir, const Sizes& sz, bool traced) {
  const std::vector<std::string> files = capture_files(dir);
  Stages st;
  std::vector<ReplayPass> passes;
  passes.reserve(static_cast<std::size_t>(sz.replay_passes));
  OpResult op;
  op.t0 = steady_seconds();
  for (int p = 0; p < sz.replay_passes; ++p) {
    passes.push_back(replay_pass(files, traced ? &st : nullptr));
  }
  op.wall_s = steady_seconds() - op.t0;

  std::uint64_t dropped = 0;
  for (const ReplayPass& pass : passes) {
    op.records += pass.merge.records_in;
    dropped += pass.merge.duplicates_dropped;
    op.checks.push_back(
        {pass.digest.digest(pass.figures), replay_counters(pass.merge, pass.result)});
  }
  op.sim_s = sz.capture_s * sz.replay_passes;
  if (!traced) return op;

  std::map<std::string, double>& L = op.layer;
  add_counter_layer(L, obs::Metrics{});
  add_stage_layer(L, Stages{}, 1, st, op.wall_s);
  L["trace.merge_dup_ratio"] =
      ratio(static_cast<double>(dropped), static_cast<double>(op.records));
  L["core.records_per_s"] = ratio(static_cast<double>(op.records), st.get("core.analyze"));
  return op;
}

// --- the prepare step and the shard check ----------------------------------

/// Simulates the plenary whose captures capture_replay reads, writes one
/// pcap per sniffer, and prints the in-memory pipeline's reference check
/// over those files (read_pcap -> merge_sniffer_traces -> TraceAnalyzer).
void prepare(std::uint64_t seed, const std::string& dir, const Sizes& sz) {
  const exp::RunSpec run =
      exp::expand(session_spec("ietf-plenary", seed, sz.capture_s, kSessionShards)).at(0);
  workload::Scenario scenario = workload::Scenario::plenary(session_config(run));
  scenario.run();
  const std::vector<trace::Trace> sniffed = scenario.network().sniffer_traces();
  const std::vector<std::string> files = capture_files(dir);
  if (sniffed.size() != files.size()) {
    throw std::runtime_error("plenary has " + std::to_string(sniffed.size()) +
                             " sniffers, expected " + std::to_string(files.size()));
  }
  std::filesystem::create_directories(dir);
  for (std::size_t j = 0; j < files.size(); ++j) trace::write_pcap(sniffed[j], files[j]);

  std::vector<trace::Trace> loaded;
  for (const auto& f : files) loaded.push_back(trace::read_pcap(f));
  const trace::MergeResult merged = trace::merge_sniffer_traces(loaded);
  const core::AnalysisResult analysis = core::TraceAnalyzer{}.analyze(merged.trace);
  core::FigureAccumulator figures;
  figures.add(analysis);
  DigestSink digest;
  digest.feed(analysis);

  std::printf("{\"digest\": \"%s\", \"counters\": ", digest.digest(figures).c_str());
  print_counters(replay_counters(merged.stats, analysis));
  std::printf("}\n");
}

/// Both session workloads at 1 and 3 shard threads must agree on every
/// output byte and counter, except the two per-queue high-water gauges.
int check_shards(std::uint64_t seed) {
  bool ok = true;
  for (const char* scenario : {"ietf-plenary", "ietf-day-churn"}) {
    std::vector<Check> by_shards;
    for (const int shards : {1, 3}) {
      by_shards.push_back(
          run_experiment_op(session_spec(scenario, seed, kCheckShardsDuration, shards), 1)
              .checks.at(0));
    }
    const Check& a = by_shards[0];
    const Check& b = by_shards[1];
    int diffs = a.digest == b.digest ? 0 : 1;
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
      const std::string& name = a.counters[i].first;
      if (name == "sim.event_queue_depth_hw" || name == "sim.event_queue_slot_pool_hw") {
        continue;
      }
      if (a.counters[i].second != b.counters[i].second) {
        std::fprintf(stderr, "check-shards: %s %s: %llu at 1 shard, %llu at 3\n",
                     scenario, name.c_str(),
                     static_cast<unsigned long long>(a.counters[i].second),
                     static_cast<unsigned long long>(b.counters[i].second));
        ++diffs;
      }
    }
    std::printf("check-shards %s: digest %s vs %s, %d difference%s\n", scenario,
                a.digest.c_str(), b.digest.c_str(), diffs, diffs == 1 ? "" : "s");
    ok = ok && diffs == 0;
  }
  return ok ? 0 : 1;
}

// --- output ----------------------------------------------------------------

void print_op(const OpResult& op) {
  std::printf("{\"t0\": %.9f, \"wall_s\": %.9f, "
              "\"records\": %llu, \"sim_s\": %.3f, \"checks\": [",
              op.t0, op.wall_s, static_cast<unsigned long long>(op.records),
              op.sim_s);
  for (std::size_t i = 0; i < op.checks.size(); ++i) {
    std::printf("%s{\"digest\": \"%s\", \"counters\": ", i ? ", " : "",
                op.checks[i].digest.c_str());
    print_counters(op.checks[i].counters);
    std::printf("}");
  }
  std::printf("], \"layer\": {");
  bool first = true;
  for (const auto& [name, value] : op.layer) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: wlan_perfbench --workload W --seed N [--size full|smoke] "
               "[--traced] [--captures DIR]\n"
               "       wlan_perfbench --prepare --seed N --captures DIR "
               "[--size full|smoke]\n"
               "       wlan_perfbench --check-shards --seed N\n"
               "workloads: sweep_cell plenary day_churn capture_replay\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string captures;
  std::uint64_t seed = 62;
  Sizes sz = kFull;
  bool traced = false;
  bool do_prepare = false;
  bool do_check_shards = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    const std::string arg = argv[i];
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage();
    } else if (arg == "--size") {
      const std::string v = value();
      if (v == "full") sz = kFull;
      else if (v == "smoke") sz = kSmoke;
      else usage();
    } else if (arg == "--captures") {
      captures = value();
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--prepare") {
      do_prepare = true;
    } else if (arg == "--check-shards") {
      do_check_shards = true;
    } else {
      usage();
    }
  }

  try {
    if (do_check_shards) return check_shards(seed);
    if (do_prepare) {
      if (captures.empty()) usage();
      prepare(seed, captures, sz);
      return 0;
    }
    OpResult op;
    if (workload == "sweep_cell") {
      const exp::ExperimentSpec spec = sweep_spec(seed, sz);
      op = traced ? traced_sweep(spec) : run_experiment_op(spec, kSweepThreads);
    } else if (workload == "plenary" || workload == "day_churn") {
      const exp::ExperimentSpec spec =
          workload == "plenary"
              ? session_spec("ietf-plenary", seed, sz.plenary_s, kSessionShards)
              : session_spec("ietf-day-churn", seed, sz.churn_s, kSessionShards);
      op = traced ? traced_session(spec) : run_experiment_op(spec, 1);
    } else if (workload == "capture_replay") {
      if (captures.empty()) usage();
      op = capture_replay_op(captures, sz, traced);
    } else {
      usage();
    }
    print_op(op);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlan_perfbench: %s\n", e.what());
    return 1;
  }
}
