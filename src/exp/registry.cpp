#include "exp/registry.hpp"

#include <stdexcept>
#include <utility>

#include "exp/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "workload/floorplan.hpp"

namespace wlan::exp {

namespace {

/// Shared CellResult -> RunOutput reduction: the capture is analyzed
/// whole, then binned into the run's figures.
RunOutput reduce_cell_result(const workload::CellResult& result) {
  RunOutput out;
  out.analysis = core::TraceAnalyzer{}.analyze(result.trace);
  out.figures.add(out.analysis);
  out.unrecorded = out.analysis.unrecorded;
  out.medium_transmissions = result.medium_transmissions;
  out.medium_collisions = result.medium_collisions;
  out.sniffer_offered = result.sniffer.offered;
  out.sniffer_captured = result.sniffer.captured;
  out.queue_delay = result.queue_delay;
  out.service_delay = result.service_delay;
  return out;
}

/// Single-cell fixture: the workhorse of the figure sweeps.
RunOutput run_cell_scenario(const RunSpec& run, bool /*churn*/) {
  return reduce_cell_result(workload::run_cell(run.cell));
}

/// Hidden-terminal fixture (see workload::run_hidden_terminal): two user
/// wings on disjoint carrier-sense masks sharing one AP.
RunOutput run_hidden_terminal_scenario(const RunSpec& run, bool /*churn*/) {
  return reduce_cell_result(workload::run_hidden_terminal(run.cell));
}

/// IETF sessions.  The load axis maps onto the session knobs: `users` is
/// population scale ×100 (10 users ≙ scale 0.1), `pps` the per-user mean
/// packet rate (expand() writes it into the cell's profile), `window` the
/// closed-loop window.  A churning row runs the dynamic-population variant
/// (Poisson arrivals, lognormal dwell, AP roaming, stations torn down on
/// departure): the spec's churn-rate axis sets the population turnover per
/// minute, and 0 (the only non-positive value expand() admits) falls back
/// to one full turnover per minute.
///
/// The sniffers' captures go through the paper's merge (clock alignment,
/// windowed dedup) straight into the analyzer, on a thread that reads each
/// sniffer's records as they become final while the session runs: no
/// capture is kept and no merged capture is built.  With
/// RunSpec::keep_captures the sniffers keep their captures and the same
/// pipeline reads them after the run.
template <workload::SessionKind kKind>
RunOutput run_session_scenario(const RunSpec& run, bool churn) {
  workload::ScenarioConfig cfg;
  static_cast<sim::EngineOptions&>(cfg) = run.cell;
  cfg.seed = run.seed;
  cfg.duration_s = run.cell.duration_s;
  cfg.scale = run.load.users / 100.0;
  cfg.profile = run.cell.profile;
  cfg.rtscts_fraction = run.rtscts_fraction;
  cfg.rate = run.cell.rate;
  cfg.timing = run.cell.timing;
  if (churn) {
    cfg.churn_turnover_per_min = run.churn_rate > 0.0 ? run.churn_rate : 1.0;
  }

  workload::Scenario scenario = kKind == workload::SessionKind::kDay
                                    ? workload::Scenario::day(cfg)
                                    : workload::Scenario::plenary(cfg);
  const auto simulate = [&scenario] {
    obs::Span span("session: run " + scenario.name());
    scenario.run();
  };
  RunOutput out;
  sim::Network& net = scenario.network();
  const auto analyze = run.keep_captures ? analyze_after : analyze_alongside;
  SessionAnalysis analysis =
      analyze(net, scenario.name(), simulate, out.figures);
  if (obs::Metrics* m = obs::current()) scenario.harvest_metrics(*m);
  net.harvest_delays(out.queue_delay, out.service_delay);
  out.analysis = std::move(analysis.result);
  out.unrecorded = out.analysis.unrecorded;
  obs::count(obs::Id::kTraceRecords, analysis.merged_records);
  return out;
}

constexpr auto kDay = workload::SessionKind::kDay;
constexpr auto kPlenary = workload::SessionKind::kPlenary;

struct Entry {
  const char* name;
  /// Dynamic population: the only rows the churn_rates axis reaches.  run()
  /// hands the flag to `fn`, and expand() rejects the axis everywhere else.
  bool churn;
  RunOutput (*fn)(const RunSpec&, bool churn);
};

/// The built-in scenarios, sorted by name (names() returns them in order).
constexpr Entry kScenarios[] = {
    {"cell", false, run_cell_scenario},
    {"hidden-terminal", false, run_hidden_terminal_scenario},
    {"ietf-day", false, run_session_scenario<kDay>},
    {"ietf-day-churn", true, run_session_scenario<kDay>},
    {"ietf-plenary", false, run_session_scenario<kPlenary>},
    {"ietf-plenary-churn", true, run_session_scenario<kPlenary>},
};

const Entry& find_scenario(const std::string& name) {
  for (const Entry& e : kScenarios) {
    if (name == e.name) return e;
  }
  std::string known;
  for (const Entry& e : kScenarios) {
    known += ' ';
    known += e.name;
  }
  throw std::invalid_argument("ScenarioRegistry: unknown scenario \"" + name +
                              "\" (known:" + known + ")");
}

/// The timing-profile axis keys, in timing_keys() order.
constexpr std::pair<const char*, mac::TimingProfile> kTimings[] = {
    {"paper", mac::TimingProfile::kPaper},
    {"standard", mac::TimingProfile::kStandard},
};

}  // namespace

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry registry;
  return registry;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  for (const Entry& e : kScenarios) out.emplace_back(e.name);
  return out;
}

bool ScenarioRegistry::churns(const std::string& name) const {
  return find_scenario(name).churn;
}

RunOutput ScenarioRegistry::run(const std::string& name,
                                const RunSpec& run) const {
  const Entry& e = find_scenario(name);
  return e.fn(run, e.churn);
}

mac::TimingProfile parse_timing(std::string_view key) {
  std::string known;
  for (const auto& [name, profile] : kTimings) {
    if (key == name) return profile;
    known += ' ';
    known += name;
  }
  throw std::invalid_argument("unknown timing profile \"" + std::string(key) +
                              "\" (known:" + known + ")");
}

std::vector<std::string> timing_keys() {
  std::vector<std::string> out;
  for (const auto& [name, profile] : kTimings) out.emplace_back(name);
  return out;
}

}  // namespace wlan::exp
