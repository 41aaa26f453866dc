#include "exp/spec.hpp"

#include <cmath>
#include <stdexcept>

#include "exp/registry.hpp"
#include "rate/policy_registry.hpp"
#include "util/rng.hpp"

namespace wlan::exp {

namespace {

void require_axis(bool non_empty, const char* axis) {
  if (!non_empty) {
    throw std::invalid_argument(std::string("ExperimentSpec: empty axis ") +
                                axis);
  }
}

}  // namespace

std::size_t grid_points(const ExperimentSpec& spec) {
  return spec.loads.size() * spec.rtscts_fractions.size() *
         spec.rate_policies.size() * spec.timings.size() *
         spec.power_margins.size() * spec.churn_rates.size();
}

std::vector<RunSpec> expand(const ExperimentSpec& spec) {
  require_axis(!spec.loads.empty(), "loads");
  require_axis(!spec.rtscts_fractions.empty(), "rtscts_fractions");
  require_axis(!spec.rate_policies.empty(), "rate_policies");
  require_axis(!spec.timings.empty(), "timings");
  require_axis(!spec.power_margins.empty(), "power_margins");
  require_axis(!spec.churn_rates.empty(), "churn_rates");
  if (spec.seeds_per_point < 1) {
    throw std::invalid_argument("ExperimentSpec: seeds_per_point must be >= 1");
  }
  // Written so that NaN fails too.
  if (!(spec.duration_s > 0.0 && spec.duration_s < kMaxDurationS)) {
    throw std::invalid_argument(
        "ExperimentSpec: duration_s must be positive and below " +
        std::to_string(kMaxDurationS) + " s");
  }
  if (spec.base.shards != 1) {
    throw std::invalid_argument(
        "ExperimentSpec: base.shards must stay 1; set ExperimentSpec::shards, "
        "which expansion copies into every run");
  }
  // The scenario's registry row says whether it churns; an unknown name
  // throws there, listing the known ones.  Only a churning row reads the
  // churn axis: anywhere else a nonzero rate would only reach the manifest
  // and a multi-valued axis would silently multiply the grid with duplicate
  // runs, so fail loudly instead.
  const std::string& scen = spec.scenario;
  if (!ScenarioRegistry::instance().churns(scen) &&
      (spec.churn_rates.size() > 1 || spec.churn_rates.front() != 0.0)) {
    throw std::invalid_argument(
        "ExperimentSpec: scenario \"" + scen +
        "\" has a static population and ignores the churn_rates axis; a "
        "nonzero churn rate would only be recorded in the manifest, and a "
        "multi-valued axis would only duplicate every run "
        "(drop the axis or use a *-churn scenario)");
  }
  std::size_t zeros = 0;
  for (double churn : spec.churn_rates) {
    // An infinite turnover draws zero arrival gaps forever, and a huge
    // finite one nearly so; a NaN or negative one (-0 included) would reach
    // the manifest while the run used the default.
    if (!std::isfinite(churn)) {
      throw std::invalid_argument(
          "ExperimentSpec: churn_rates axis for scenario \"" + scen +
          "\" has a non-finite value");
    }
    if (std::signbit(churn)) {
      throw std::invalid_argument(
          "ExperimentSpec: churn_rates axis for scenario \"" + scen +
          "\" has a negative value; use 0 for the scenario's default "
          "turnover");
    }
    if (churn > kMaxChurnPerMin) {
      throw std::invalid_argument(
          "ExperimentSpec: churn_rates axis for scenario \"" + scen +
          "\" exceeds the cap of " + std::to_string(kMaxChurnPerMin) +
          " turnovers/min (a one-second mean dwell)");
    }
    if (churn == 0.0) ++zeros;
  }
  if (zeros > 1) {
    throw std::invalid_argument(
        "ExperimentSpec: churn_rates axis for scenario \"" + scen + "\" has " +
        std::to_string(zeros) +
        " zero values; a churn scenario substitutes its default turnover "
        "for 0, so those arms would be duplicate runs (keep at most one)");
  }
  // Validate axis names up front: one bad key fails the whole expansion
  // before any run starts, with the registry's own known-keys message.
  for (const std::string& policy : spec.rate_policies) {
    (void)rate::PolicyRegistry::instance().display_name(policy);
  }

  std::vector<RunSpec> runs;
  runs.reserve(grid_points(spec) *
               static_cast<std::size_t>(spec.seeds_per_point));

  std::size_t point = 0;
  for (std::size_t li = 0; li < spec.loads.size(); ++li) {
    const LoadPoint& load = spec.loads[li];
    for (double rtscts : spec.rtscts_fractions) {
      for (const std::string& policy : spec.rate_policies) {
        for (const std::string& timing : spec.timings) {
          for (double margin : spec.power_margins) {
            for (double churn : spec.churn_rates) {
              for (int s = 0; s < spec.seeds_per_point; ++s) {
                RunSpec run;
                run.run_index = runs.size();
                run.point_index = point;
                run.seed_ordinal = s;
                // Common random numbers: the seed depends only on the load
                // point and the repeat, so every treatment arm (RTS/CTS,
                // policy, timing, power, churn rate) at the same load runs
                // the same draws and A/B ablation comparisons are paired.
                run.pair_index =
                    li * static_cast<std::size_t>(spec.seeds_per_point) +
                    static_cast<std::size_t>(s);
                run.seed = util::mix_seed(spec.base_seed, run.pair_index);

                run.scenario = spec.scenario;
                run.rate_policy = policy;
                run.timing = timing;
                run.rtscts_fraction = rtscts;
                run.power_margin_db = margin;
                run.churn_rate = churn;
                run.load = load;

                run.cell = spec.base;
                run.cell.seed = run.seed;
                run.cell.duration_s = spec.duration_s;
                run.cell.shards = spec.shards;
                run.cell.rtscts_fraction = rtscts;
                run.cell.rate.policy = policy;
                run.cell.timing = parse_timing(timing);
                run.cell.auto_power_margin_db = margin;
                run.cell.num_users = load.users;
                run.cell.profile.mean_pps = load.pps;
                run.cell.far_fraction = load.far_fraction;
                run.cell.profile.window = load.window;

                runs.push_back(std::move(run));
              }
              ++point;
            }
          }
        }
      }
    }
  }
  return runs;
}

}  // namespace wlan::exp
