#include "exp/registry.hpp"

#include <stdexcept>
#include <utility>

#include "workload/floorplan.hpp"

namespace wlan::exp {

namespace {

/// Shared CellResult -> RunOutput reduction.
RunOutput reduce_cell_result(const workload::CellResult& result) {
  RunOutput out;
  out.analysis = core::TraceAnalyzer{}.analyze(result.trace);
  out.unrecorded = core::estimate_unrecorded(result.trace).totals;
  out.medium_transmissions = result.medium_transmissions;
  out.medium_collisions = result.medium_collisions;
  out.sniffer_offered = result.sniffer.offered;
  out.sniffer_captured = result.sniffer.captured;
  out.queue_delay = result.queue_delay;
  out.service_delay = result.service_delay;
  return out;
}

/// Single-cell fixture: the workhorse of the figure sweeps.
RunOutput run_cell_scenario(const RunSpec& run) {
  return reduce_cell_result(workload::run_cell(run.cell));
}

/// Hidden-terminal fixture (see workload::run_hidden_terminal): two user
/// wings on disjoint carrier-sense masks sharing one AP.
RunOutput run_hidden_terminal_scenario(const RunSpec& run) {
  return reduce_cell_result(workload::run_hidden_terminal(run.cell));
}

/// IETF sessions.  The load axis maps onto the session knobs: `users` is
/// population scale ×100 (10 users ≙ scale 0.1), `pps` the per-user mean
/// packet rate, `window` the closed-loop window.  With `churn` true the
/// session runs the dynamic-population variant (Poisson arrivals, lognormal
/// dwell, AP roaming, stations torn down on departure): the spec's
/// churn-rate axis sets the population turnover per minute, and a
/// non-positive axis value falls back to one full turnover per minute.
RunOutput run_session_scenario(const RunSpec& run, workload::SessionKind kind,
                               bool churn = false) {
  workload::ScenarioConfig cfg;
  static_cast<sim::EngineOptions&>(cfg) = run.cell;
  cfg.seed = run.seed;
  cfg.duration_s = run.cell.duration_s;
  cfg.scale = run.load.users / 100.0;
  cfg.profile = run.cell.profile;
  cfg.profile.mean_pps = run.load.pps;
  cfg.rtscts_fraction = run.rtscts_fraction;
  cfg.rate = run.cell.rate;
  cfg.timing = run.cell.timing;
  if (churn) {
    cfg.churn_turnover_per_min = run.churn_rate > 0.0 ? run.churn_rate : 1.0;
  }

  const workload::SessionResult result = workload::run_session(cfg, kind);
  RunOutput out;
  out.analysis = core::TraceAnalyzer{}.analyze(result.trace);
  out.unrecorded = core::estimate_unrecorded(result.trace).totals;
  out.queue_delay = result.queue_delay;
  out.service_delay = result.service_delay;
  return out;
}

}  // namespace

ScenarioRegistry::ScenarioRegistry() {
  add("cell", run_cell_scenario);
  add("hidden-terminal", run_hidden_terminal_scenario);
  add("ietf-day", [](const RunSpec& run) {
    return run_session_scenario(run, workload::SessionKind::kDay);
  });
  add("ietf-plenary", [](const RunSpec& run) {
    return run_session_scenario(run, workload::SessionKind::kPlenary);
  });
  add("ietf-day-churn", [](const RunSpec& run) {
    return run_session_scenario(run, workload::SessionKind::kDay, true);
  });
  add("ietf-plenary-churn", [](const RunSpec& run) {
    return run_session_scenario(run, workload::SessionKind::kPlenary, true);
  });
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(std::string name, ScenarioFn fn) {
  if (!factories_.emplace(std::move(name), std::move(fn)).second) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario name");
  }
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, fn] : factories_) out.push_back(name);
  return out;  // std::map iterates sorted
}

RunOutput ScenarioRegistry::run(const std::string& name,
                                const RunSpec& run) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw std::invalid_argument("ScenarioRegistry: unknown scenario \"" +
                                name + "\"");
  }
  return it->second(run);
}

mac::TimingProfile parse_timing(std::string_view key) {
  if (key == "paper") return mac::TimingProfile::kPaper;
  if (key == "standard") return mac::TimingProfile::kStandard;
  throw std::invalid_argument("unknown timing profile \"" + std::string(key) +
                              "\" (known: paper standard)");
}

std::string_view timing_key(mac::TimingProfile profile) {
  return profile == mac::TimingProfile::kPaper ? "paper" : "standard";
}

std::vector<std::string> timing_keys() { return {"paper", "standard"}; }

}  // namespace wlan::exp
