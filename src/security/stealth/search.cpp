#include "security/stealth/search.hpp"

#include <algorithm>
#include <cmath>

#include "obs/counters.hpp"
#include "base/assert.hpp"
#include "sim/random.hpp"

namespace platoon::security::stealth {

namespace {

obs::Counter g_candidates{"stealth.search.candidates"};
obs::Counter g_feasible{"stealth.search.feasible"};
obs::Counter g_rounds{"stealth.search.rounds"};

std::vector<double> linspace(double lo, double hi, std::size_t steps) {
    std::vector<double> out;
    if (steps <= 1 || hi <= lo) {
        out.push_back(lo);
        return out;
    }
    for (std::size_t i = 0; i < steps; ++i) {
        out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(steps - 1));
    }
    return out;
}

/// Elite ordering: feasible candidates first, then impact (descending),
/// then fewer gate alarms, with the profile key as the total-order anchor.
bool better(const Evaluated& a, const Evaluated& b) {
    const bool fa = feasible(a.outcome);
    const bool fb = feasible(b.outcome);
    if (fa != fb) return fa;
    if (a.outcome.impact != b.outcome.impact)
        return a.outcome.impact > b.outcome.impact;
    if (a.outcome.gate_alarms != b.outcome.gate_alarms)
        return a.outcome.gate_alarms < b.outcome.gate_alarms;
    return profile_key(a.profile) < profile_key(b.profile);
}

struct Dimension {
    double lo;
    double hi;
    double mean = 0.0;
    double stddev = 0.0;
};

/// Fits mean/stddev to the elites along one dimension; the stddev floor
/// (10% of the box) keeps the CEM exploring instead of collapsing onto the
/// first elite it sees.
void fit(Dimension& dim, const std::vector<double>& samples) {
    double sum = 0.0;
    for (const double s : samples) sum += s;
    dim.mean = sum / static_cast<double>(samples.size());
    double var = 0.0;
    for (const double s : samples) var += (s - dim.mean) * (s - dim.mean);
    var /= static_cast<double>(samples.size());
    const double floor = 0.1 * (dim.hi - dim.lo);
    dim.stddev = std::max(std::sqrt(var), floor);
}

double sample_clamped(Dimension& dim, sim::RandomStream& rng) {
    return std::clamp(rng.normal(dim.mean, dim.stddev), dim.lo, dim.hi);
}

void record_batch(const SearchSpec& spec,
                  const std::vector<InjectionProfile>& batch,
                  const BatchEvaluator& evaluate,
                  std::vector<Evaluated>& evaluated) {
    const std::vector<Outcome> outcomes = evaluate(batch);
    PLATOON_ASSERT(outcomes.size() == batch.size());
    (void)spec;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        g_candidates.inc();
        if (feasible(outcomes[i])) g_feasible.inc();
        evaluated.push_back({batch[i], outcomes[i]});
    }
    g_rounds.inc();
}

}  // namespace

SearchResult search(const SearchSpec& spec, const BatchEvaluator& evaluate) {
    SearchResult result;
    const ProfileBounds& b = spec.bounds;

    // Phase A: coarse grid over amplitude x ramp x duty (no onset jitter).
    // The duty=1/ramp=0 corner doubles as the static-attacker sweep.
    std::vector<InjectionProfile> grid;
    for (const double amp :
         linspace(b.amplitude_min, b.amplitude_max, b.amplitude_steps)) {
        for (const double ramp : linspace(b.ramp_min, b.ramp_max, b.ramp_steps)) {
            for (const double duty :
                 linspace(b.duty_min, b.duty_max, b.duty_steps)) {
                InjectionProfile p;
                p.kind = spec.kind;
                p.shape.amplitude = amp;
                p.shape.ramp_per_s = ramp;
                p.shape.duty_cycle = duty;
                p.shape.duty_period_s = b.duty_period_s;
                grid.push_back(p);
            }
        }
    }
    record_batch(spec, grid, evaluate, result.evaluated);

    // Phase B: cross-entropy refinement seeded from the grid's elites, with
    // onset jitter as an extra dimension. Every draw comes from the named
    // stream, so the refinement is a pure function of (spec, outcomes).
    sim::RandomStream rng(spec.seed, "stealth.search");
    Dimension amp{b.amplitude_min, b.amplitude_max};
    Dimension ramp{b.ramp_min, b.ramp_max};
    Dimension duty{b.duty_min, b.duty_max};
    Dimension onset{0.0, b.onset_max_s};
    for (std::size_t iter = 0; iter < spec.cem_iterations; ++iter) {
        std::vector<Evaluated> ranked = result.evaluated;
        std::sort(ranked.begin(), ranked.end(), better);
        const std::size_t elites =
            std::min(std::max<std::size_t>(spec.cem_elites, 2), ranked.size());
        std::vector<double> amps, ramps, duties, onsets;
        for (std::size_t i = 0; i < elites; ++i) {
            amps.push_back(ranked[i].profile.shape.amplitude);
            ramps.push_back(ranked[i].profile.shape.ramp_per_s);
            duties.push_back(ranked[i].profile.shape.duty_cycle);
            onsets.push_back(ranked[i].profile.shape.onset_delay_s);
        }
        fit(amp, amps);
        fit(ramp, ramps);
        fit(duty, duties);
        fit(onset, onsets);

        std::vector<InjectionProfile> population;
        for (std::size_t i = 0; i < spec.cem_population; ++i) {
            InjectionProfile p;
            p.kind = spec.kind;
            p.shape.amplitude = sample_clamped(amp, rng);
            p.shape.ramp_per_s = sample_clamped(ramp, rng);
            p.shape.duty_cycle = sample_clamped(duty, rng);
            p.shape.duty_period_s = b.duty_period_s;
            p.shape.onset_delay_s = sample_clamped(onset, rng);
            population.push_back(p);
        }
        record_batch(spec, population, evaluate, result.evaluated);
    }

    // Champions. `better` already prefers feasible-then-impact, so the top
    // of a full sort is the stealthy champion iff it is feasible at all.
    for (const Evaluated& e : result.evaluated) {
        if (!feasible(e.outcome)) continue;
        if (!result.best_stealthy || better(e, *result.best_stealthy))
            result.best_stealthy = e;
        if (is_static(e.profile) &&
            (!result.best_static || better(e, *result.best_static)))
            result.best_static = e;
    }
    return result;
}

std::vector<FrontierPoint> pareto_frontier(
    const std::vector<Evaluated>& evaluated, std::size_t detector_index) {
    std::vector<FrontierPoint> points;
    for (const Evaluated& e : evaluated) {
        if (detector_index >= e.outcome.detector_flags.size()) continue;
        points.push_back({e.outcome.detector_flags[detector_index],
                          e.outcome.impact, e.profile});
    }
    std::sort(points.begin(), points.end(),
              [](const FrontierPoint& a, const FrontierPoint& b) {
                  if (a.alarms != b.alarms) return a.alarms < b.alarms;
                  if (a.impact != b.impact) return a.impact > b.impact;
                  return profile_key(a.profile) < profile_key(b.profile);
              });
    std::vector<FrontierPoint> frontier;
    double best_impact = -1e300;
    for (const FrontierPoint& p : points) {
        if (p.impact <= best_impact) continue;
        // Equal alarm counts keep only their best-impact representative.
        if (!frontier.empty() && frontier.back().alarms == p.alarms) continue;
        frontier.push_back(p);
        best_impact = p.impact;
    }
    return frontier;
}

}  // namespace platoon::security::stealth
