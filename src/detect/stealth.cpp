#include "detect/stealth.hpp"

#include <memory>
#include <utility>

#include "core/experiment.hpp"
#include "detect/bank.hpp"
#include "detect/harness.hpp"
#include "obs/counters.hpp"
#include "base/assert.hpp"

namespace platoon::detect {

namespace {

namespace stealth = security::stealth;

obs::Counter g_replications{"detect.stealth.replications"};

/// One replication's contribution: the impact metric plus the per-detector
/// flag totals the bank raised while the profile ran.
struct Replication {
    double metric = 0.0;
    std::vector<std::uint64_t> flags;
};

Replication run_replication(const core::ScenarioConfig& base,
                            std::uint64_t seed, const StealthSpec& spec,
                            const stealth::InjectionProfile* profile) {
    core::ScenarioConfig config = base;
    config.seed = seed;
    core::Scenario scenario(config);
    std::unique_ptr<security::Attack> attack;
    if (profile != nullptr) {
        security::AttackWindow window;
        window.start_s = spec.start_s;
        attack = stealth::make_profiled_attack(*profile, window,
                                               spec.victim_index,
                                               config.platoon_size);
        PLATOON_ASSERT(attack != nullptr);
        attack->attach(scenario);
    }
    DetectionHarness harness;
    harness.attach(scenario, profile != nullptr
                                 ? stealth::profile_key(*profile)
                                 : std::string("clean"));
    scenario.run_until(spec.horizon_s);
    g_replications.inc();

    Replication out;
    out.metric = scenario.summarize().as_map()[kStealthImpactMetric];
    const Dataset& dataset = harness.dataset();
    out.flags.assign(dataset.detectors.size(), 0);
    for (const DatasetRow& row : dataset.rows) {
        for (std::size_t d = 0; d < row.flags.size(); ++d)
            out.flags[d] += row.flags[d];
    }
    return out;
}

}  // namespace

StealthSpec stealth_spec_from(const scen::StealthOverrides& overrides,
                              std::uint64_t base_seed) {
    StealthSpec spec;
    for (const std::string& name : overrides.injections) {
        const auto kind = stealth::injection_from_name(name);
        PLATOON_ASSERT(kind.has_value());
        spec.injections.push_back(*kind);
    }
    spec.bounds.amplitude_min = overrides.amplitude_min;
    spec.bounds.amplitude_max = overrides.amplitude_max;
    spec.bounds.amplitude_steps = overrides.amplitude_steps;
    spec.bounds.ramp_min = overrides.ramp_min;
    spec.bounds.ramp_max = overrides.ramp_max;
    spec.bounds.ramp_steps = overrides.ramp_steps;
    spec.bounds.duty_min = overrides.duty_min;
    spec.bounds.duty_max = overrides.duty_max;
    spec.bounds.duty_steps = overrides.duty_steps;
    spec.bounds.duty_period_s = overrides.duty_period_s;
    spec.bounds.onset_max_s = overrides.onset_max_s;
    spec.cem_iterations = overrides.cem_iterations;
    spec.cem_population = overrides.cem_population;
    spec.cem_elites = overrides.cem_elites;
    spec.victim_index = overrides.victim_index;
    spec.start_s = overrides.start_s;
    spec.horizon_s = overrides.horizon_s;
    spec.seeds.clear();
    for (std::size_t k = 0; k < overrides.seeds; ++k)
        spec.seeds.push_back(base_seed + k);
    return spec;
}

StealthFrontierResult run_stealth_frontier(const core::ScenarioConfig& base,
                                           const StealthSpec& spec,
                                           unsigned jobs) {
    PLATOON_EXPECTS(!spec.seeds.empty());
    PLATOON_EXPECTS(!spec.injections.empty());

    StealthFrontierResult result;
    result.detectors = default_bank_names();
    for (std::size_t d = 0; d < result.detectors.size(); ++d) {
        const std::string& name = result.detectors[d];
        if (name == "innovation-gate" || name == "ewma-residual" ||
            name == "cusum-residual") {
            result.gate_detectors.push_back(d);
        }
    }

    // Clean baseline, one replication per seed (folded in seed order).
    {
        std::vector<std::function<Replication()>> cells;
        for (const std::uint64_t seed : spec.seeds) {
            cells.push_back([&base, seed, &spec] {
                return run_replication(base, seed, spec, nullptr);
            });
        }
        for (Replication& rep : core::run_grid(std::move(cells), jobs))
            result.clean_impact.push_back(rep.metric);
    }

    // The batch evaluator the search calls each round: fan the
    // (candidate x seed) product out via run_grid -- cells are independent
    // and fold in a fixed order, so the whole search is bit-identical at
    // any job count.
    const auto evaluate = [&](const std::vector<stealth::InjectionProfile>&
                                  batch) {
        std::vector<std::function<Replication()>> cells;
        for (const stealth::InjectionProfile& profile : batch) {
            for (const std::uint64_t seed : spec.seeds) {
                cells.push_back([&base, seed, &spec, &profile] {
                    return run_replication(base, seed, spec, &profile);
                });
            }
        }
        const std::vector<Replication> reps =
            core::run_grid(std::move(cells), jobs);

        std::vector<stealth::Outcome> outcomes;
        const std::size_t seeds = spec.seeds.size();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            stealth::Outcome outcome;
            outcome.detector_flags.assign(result.detectors.size(), 0);
            double impact_sum = 0.0;
            for (std::size_t s = 0; s < seeds; ++s) {
                const Replication& rep = reps[i * seeds + s];
                impact_sum += rep.metric - result.clean_impact[s];
                for (std::size_t d = 0; d < rep.flags.size(); ++d)
                    outcome.detector_flags[d] += rep.flags[d];
            }
            outcome.impact = impact_sum / static_cast<double>(seeds);
            for (std::size_t d = 0; d < outcome.detector_flags.size(); ++d) {
                outcome.total_alarms += outcome.detector_flags[d];
            }
            for (const std::size_t d : result.gate_detectors)
                outcome.gate_alarms += outcome.detector_flags[d];
            outcomes.push_back(std::move(outcome));
        }
        return outcomes;
    };

    for (const stealth::InjectionKind kind : spec.injections) {
        stealth::SearchSpec search_spec;
        search_spec.kind = kind;
        search_spec.bounds = spec.bounds;
        search_spec.cem_iterations = spec.cem_iterations;
        search_spec.cem_population = spec.cem_population;
        search_spec.cem_elites = spec.cem_elites;
        search_spec.seed = spec.seeds.front();

        StealthKindResult kind_result;
        kind_result.kind = kind;
        kind_result.search = stealth::search(search_spec, evaluate);
        for (std::size_t d = 0; d < result.detectors.size(); ++d) {
            kind_result.frontiers.push_back(
                stealth::pareto_frontier(kind_result.search.evaluated, d));
        }
        result.kinds.push_back(std::move(kind_result));
    }
    return result;
}

}  // namespace platoon::detect
