#include "exp/registry.hpp"

#include <stdexcept>
#include <utility>

#include "core/streaming.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "trace/merge.hpp"
#include "workload/floorplan.hpp"

namespace wlan::exp {

namespace {

/// Shared CellResult -> RunOutput reduction.
RunOutput reduce_cell_result(const workload::CellResult& result) {
  RunOutput out;
  out.analysis = core::TraceAnalyzer{}.analyze(result.trace);
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
///
/// The sniffers' own captures stream through the paper's merge (clock
/// alignment, windowed dedup) straight into the analyzer: no capture is
/// copied and no merged capture is built.
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

  workload::Scenario scenario = kind == workload::SessionKind::kDay
                                    ? workload::Scenario::day(cfg)
                                    : workload::Scenario::plenary(cfg);
  {
    obs::Span span("session: run " + scenario.name());
    scenario.run();
  }
  RunOutput out;
  if (obs::Metrics* m = obs::current()) scenario.harvest_metrics(*m);
  const sim::Network& net = scenario.network();
  net.harvest_delays(out.queue_delay, out.service_delay);

  obs::Span merge_span("session: merge " + scenario.name(), "merge");
  std::vector<trace::VectorReader> readers;
  readers.reserve(net.sniffers().size());
  for (const auto& sniffer : net.sniffers()) {
    readers.emplace_back(sniffer->trace());
  }
  std::vector<trace::TraceReader*> inputs;
  for (trace::VectorReader& reader : readers) inputs.push_back(&reader);
  const trace::ClockOffsets offsets = trace::estimate_clock_offsets(inputs);
  for (trace::TraceReader* input : inputs) input->reset();
  trace::MergingReader merger(std::move(inputs), offsets.offset_us);
  core::StreamingAnalyzer analyzer;
  trace::CaptureRecord r;
  while (merger.next(r)) analyzer.push(r);
  out.analysis = analyzer.finish();
  out.unrecorded = out.analysis.unrecorded;
  obs::count(obs::Id::kTraceRecords, merger.stats().emitted);
  return out;
}

struct Entry {
  const char* name;
  ScenarioFn fn;
};

/// The built-in scenarios, sorted by name (names() returns them in order).
constexpr Entry kScenarios[] = {
    {"cell", run_cell_scenario},
    {"hidden-terminal", run_hidden_terminal_scenario},
    {"ietf-day",
     [](const RunSpec& run) {
       return run_session_scenario(run, workload::SessionKind::kDay);
     }},
    {"ietf-day-churn",
     [](const RunSpec& run) {
       return run_session_scenario(run, workload::SessionKind::kDay, true);
     }},
    {"ietf-plenary",
     [](const RunSpec& run) {
       return run_session_scenario(run, workload::SessionKind::kPlenary);
     }},
    {"ietf-plenary-churn",
     [](const RunSpec& run) {
       return run_session_scenario(run, workload::SessionKind::kPlenary, true);
     }},
};

ScenarioFn find_scenario(const std::string& name) {
  for (const Entry& e : kScenarios) {
    if (name == e.name) return e.fn;
  }
  return nullptr;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry registry;
  return registry;
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return find_scenario(name) != nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  for (const Entry& e : kScenarios) out.emplace_back(e.name);
  return out;
}

RunOutput ScenarioRegistry::run(const std::string& name,
                                const RunSpec& run) const {
  const ScenarioFn fn = find_scenario(name);
  if (!fn) {
    throw std::invalid_argument("ScenarioRegistry: unknown scenario \"" +
                                name + "\"");
  }
  return fn(run);
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
