// Highway-scale traffic bench: sweeps the scale_corridor description
// (64 platoons x 16 vehicles sharing one DSRC channel) across corridor
// tiers of 1 / 4 / 16 / 64 platoons and reports scheduler event and
// message throughput per tier. The top tier is the acceptance gate for
// the spatial-index delivery path: a 1024-vehicle corridor must simulate
// faster than real time (set PLATOON_SCALE_REQUIRE_REALTIME=1 to turn the
// check into a hard failure, as the scale-regression CI job does).
//
// Determinism contract: every table on stdout is byte-identical at any
// PLATOON_JOBS count (per-seed scenarios are independent; folds happen in
// tier/seed order on the calling thread). Wall-clock rates -- events/sec,
// messages/sec, the realtime ratio -- are machine-dependent and go to
// stderr and to the timings section of BENCH_bench_scale.json only; the
// counter section carries the deterministic per-tier event/message totals
// that benchdiff --counters-only gates.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/counters.hpp"
#include "obs/timer.hpp"

namespace pb = platoon::bench;
namespace pc = platoon::core;
namespace ps = platoon::scen;

namespace {

using platoon::obs::Counter;

// Deterministic per-tier work totals, exported into the bench JSON and
// pinned by the committed baseline. Wall rates derive as counter value /
// matching bench_scale.tier* timer, so the machine-dependent division
// never enters the gated counter section.
Counter g_events_1{"bench_scale.tier1.events"};
Counter g_events_4{"bench_scale.tier4.events"};
Counter g_events_16{"bench_scale.tier16.events"};
Counter g_events_64{"bench_scale.tier64.events"};
Counter g_messages_1{"bench_scale.tier1.messages"};
Counter g_messages_4{"bench_scale.tier4.messages"};
Counter g_messages_16{"bench_scale.tier16.messages"};
Counter g_messages_64{"bench_scale.tier64.messages"};

struct TierCounters {
    Counter* events;
    Counter* messages;
};

TierCounters tier_counters(std::size_t platoons) {
    switch (platoons) {
        case 1: return {&g_events_1, &g_messages_1};
        case 4: return {&g_events_4, &g_messages_4};
        case 16: return {&g_events_16, &g_messages_16};
        default: return {&g_events_64, &g_messages_64};
    }
}

struct Tier {
    std::size_t platoons;
    std::size_t seeds;
    const char* timer;  ///< Literal: obs::ScopedTimer keeps the pointer.
};

// Replication counts taper with size: the small tiers are cheap enough to
// average (and give the PLATOON_JOBS identity check real parallelism); the
// 1024-vehicle tier runs one seed against the wall clock.
constexpr Tier kTiers[] = {{1, 4, "bench_scale.tier1"},
                           {4, 2, "bench_scale.tier4"},
                           {16, 1, "bench_scale.tier16"},
                           {64, 1, "bench_scale.tier64"}};
constexpr Tier kJammedTier = {64, 1, "bench_scale.tier64_jammed"};
constexpr double kDuration = 30.0;  ///< Covers every corridor event (<=20 s).

/// Truncates the 64-platoon corridor description to `platoons` platoons:
/// keep the primary plus the first platoons-1 extras, and drop corridor
/// events that reference a platoon beyond the tier.
pc::ScenarioConfig tier_config(const ps::CompiledCell& cell,
                               std::size_t platoons) {
    pc::ScenarioConfig config = cell.config;
    if (platoons - 1 < config.extra_platoons.size())
        config.extra_platoons.resize(platoons - 1);
    std::erase_if(config.corridor, [&](const pc::CorridorEvent& event) {
        return event.platoon >= platoons;
    });
    return config;
}

struct ScaleResult {
    double events = 0.0;     ///< Scheduler events executed, summed over seeds.
    double messages = 0.0;   ///< Frames sent on the shared channel.
    double delivered = 0.0;  ///< Per-receiver deliveries.
    pc::MetricMap mean;      ///< Primary-platoon metrics, seed-averaged.
};

pc::MetricMap run_scale_once(pc::ScenarioConfig config, pc::AttackKind kind,
                             bool with_attack) {
    const platoon::obs::ScopedTimer timer("bench_scale.run_once");
    pc::Scenario scenario(config);
    std::unique_ptr<platoon::security::Attack> attack;
    if (with_attack) {
        attack = pb::make_attack(kind);
        attack->attach(scenario);
    }
    scenario.run_until(kDuration);
    pc::MetricMap m = scenario.summarize().as_map();
    m["scale.events"] = static_cast<double>(scenario.scheduler().executed());
    m["scale.messages"] = static_cast<double>(scenario.network().stats().sent);
    m["scale.delivered"] =
        static_cast<double>(scenario.network().stats().delivered);
    return m;
}

/// Runs one tier's replications on the worker pool and folds in seed order
/// (bit-identical at any job count). Returns totals plus seed-mean metrics.
ScaleResult run_tier(const ps::CompiledCell& cell, const Tier& tier) {
    pc::ScenarioConfig config = tier_config(cell, tier.platoons);
    const std::uint64_t base_seed = config.seed;
    std::vector<std::function<pc::MetricMap()>> tasks;
    tasks.reserve(tier.seeds);
    for (std::size_t k = 0; k < tier.seeds; ++k) {
        config.seed = base_seed + k;
        tasks.emplace_back([config, kind = cell.attack,
                            with_attack = cell.with_attack] {
            return run_scale_once(config, kind, with_attack);
        });
    }
    const std::vector<pc::MetricMap> per_seed =
        pc::run_grid(std::move(tasks), pb::jobs());

    ScaleResult result;
    for (const pc::MetricMap& m : per_seed) {
        result.events += pb::metric(m, "scale.events");
        result.messages += pb::metric(m, "scale.messages");
        result.delivered += pb::metric(m, "scale.delivered");
        for (const auto& [name, value] : m) result.mean[name] += value;
    }
    for (auto& [name, value] : result.mean)
        value /= static_cast<double>(per_seed.size());
    return result;
}

void run_and_print() {
    const auto compiled = pb::load_scenario("scale_corridor");
    // Cell order per the description's axes: attacked [false, true].
    const ps::CompiledCell& clean = compiled.cells[0];
    const ps::CompiledCell& jammed = compiled.cells[1];

    pc::print_banner(
        std::cout,
        "Scale sweep -- corridor tiers of 1/4/16/64 platoons (16 vehicles "
        "each, one shared channel), 30 s horizon");
    pc::Table table({"platoons", "vehicles", "seeds", "events", "messages",
                     "delivered", "pdr", "spacing_rms_m", "cacc_avail"});

    double tier64_wall_s = 0.0;
    for (const Tier& tier : kTiers) {
        const auto wall_start = std::chrono::steady_clock::now();
        ScaleResult result;
        {
            const platoon::obs::ScopedTimer timer(tier.timer);
            result = run_tier(clean, tier);
        }
        const double wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_start)
                .count();
        if (tier.platoons == 64) tier64_wall_s = wall_s;

        const TierCounters counters = tier_counters(tier.platoons);
        counters.events->add(static_cast<std::uint64_t>(result.events));
        counters.messages->add(static_cast<std::uint64_t>(result.messages));

        table.add_row(
            {std::to_string(tier.platoons),
             std::to_string(tier.platoons * 16),
             std::to_string(tier.seeds),
             pc::Table::num(result.events, 0),
             pc::Table::num(result.messages, 0),
             pc::Table::num(result.delivered, 0),
             pc::Table::num(pb::metric(result.mean, "pdr"), 3),
             pc::Table::num(pb::metric(result.mean, "spacing_rms_m"), 3),
             pc::Table::num(pb::metric(result.mean, "cacc_availability"), 3)});

        // Wall rates are machine-dependent: stderr only.
        const double sim_s = kDuration * static_cast<double>(tier.seeds);
        std::cerr << "bench_scale: tier " << tier.platoons << " platoons: "
                  << static_cast<std::uint64_t>(result.events / wall_s)
                  << " events/s, "
                  << static_cast<std::uint64_t>(result.messages / wall_s)
                  << " messages/s, realtime x"
                  << (wall_s > 0.0 ? sim_s / wall_s : 0.0) << "\n";
    }
    table.print(std::cout);

    // One jammed row at the top tier: the jammer pseudo-node raises the
    // interference floor corridor-wide, which stresses the SINR loop of the
    // spatial-index delivery path under maximum node count.
    pc::print_banner(std::cout,
                     "Scale sweep -- 64-platoon tier under continuous "
                     "jamming (jammer pseudo-node near the primary platoon)");
    pc::Table jam_table(
        {"cell", "events", "messages", "delivered", "pdr", "cacc_avail"});
    {
        const platoon::obs::ScopedTimer timer(kJammedTier.timer);
        const ScaleResult result = run_tier(jammed, kJammedTier);
        jam_table.add_row(
            {"64 platoons + jamming", pc::Table::num(result.events, 0),
             pc::Table::num(result.messages, 0),
             pc::Table::num(result.delivered, 0),
             pc::Table::num(pb::metric(result.mean, "pdr"), 3),
             pc::Table::num(pb::metric(result.mean, "cacc_availability"), 3)});
    }
    jam_table.print(std::cout);

    // The acceptance gate: a 1024-vehicle corridor must simulate faster
    // than real time. Advisory by default (laptops under load throttle);
    // the scale-regression CI job exports PLATOON_SCALE_REQUIRE_REALTIME=1.
    const bool realtime = tier64_wall_s < kDuration;
    std::cerr << "bench_scale: 64-platoon tier " << tier64_wall_s
              << " s wall for " << kDuration << " s sim -- "
              << (realtime ? "faster" : "SLOWER") << " than real time\n";
    if (const char* env = std::getenv("PLATOON_SCALE_REQUIRE_REALTIME");
        env != nullptr && env[0] == '1' && !realtime) {
        std::cerr << "bench_scale: FAIL: PLATOON_SCALE_REQUIRE_REALTIME is "
                     "set and the top tier missed real time\n";
        std::exit(3);
    }
}

void BM_ScaleTier(benchmark::State& state) {
    // Loaded lazily: the benchmark phase runs after write_bench_json, so
    // nothing here can leak into the counter artifact.
    static const auto compiled = pb::load_scenario("scale_corridor");
    const auto platoons = static_cast<std::size_t>(state.range(0));
    const pc::ScenarioConfig config =
        tier_config(compiled.cells[0], platoons);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            run_scale_once(config, compiled.cells[0].attack, false));
    }
    state.SetLabel(std::to_string(platoons) + " platoons");
}
BENCHMARK(BM_ScaleTier)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
    pb::obs_init();
    pb::print_jobs_banner("bench_scale");
    run_and_print();
    pb::write_bench_json("bench_scale",
                         "Highway-scale corridor tier sweep (scale_corridor)",
                         42);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
