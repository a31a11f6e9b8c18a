// perfbench: runs one benchmark workload of platoonsec on the calling
// thread and prints one JSON document of raw evidence -- timings, the
// program's outputs the checks need, and (traced runs) the obs counter and
// timer tables. It judges nothing: run.py computes every metric and every
// correctness check from this document, so the checks stay apart from the
// code under test.
//
//   perfbench --root DIR --workload corridor|signed-corridor|table3-sweep
//             --seed N --seconds S --trace 0|1
//
// Work per run is fixed by (workload, --seconds), never by the wall clock:
// the corridors run ticks_for(seconds) ticks of 100 ms simulated time, the
// sweep runs the whole table3_mitigations description once, whatever
// --seconds says. So a faster build does the same work in less time and
// two builds are compared on identical inputs.
//
// Spans: the benchmark wraps its calls into scen, core and eval in
// obs::ScopedTimer scopes with literal names (bench.*). A literal outlives
// the timer's scope stack; a c_str() of a temporary does not.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/taxonomy.hpp"
#include "eval/harness.hpp"
#include "obs/counters.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/timer.hpp"
#include "scen/registry.hpp"
#include "scen/schema.hpp"

namespace pc = platoon::core;
namespace pe = platoon::eval;
namespace po = platoon::obs;
namespace ps = platoon::scen;

using po::Json;

namespace {

constexpr double kTickS = 0.1;  ///< One CAM beacon period of simulated time.
/// Ticks of the tick-by-tick run that the one-shot reference run repeats.
constexpr std::size_t kReferenceTicks = 20;
/// Description compiles per sweep run (its set-up is the compile only);
/// setup_s is their median.
constexpr std::size_t kCompileSamples = 101;

struct Args {
    std::string root = ".";
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
};

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::string hex64(std::uint64_t value) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/// Exact bit pattern of a double, so run.py can test bit-identity.
std::string bits(double value) {
    std::uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof raw);
    return hex64(raw);
}

Json int_json(std::uint64_t v) {
    return Json::integer(static_cast<std::int64_t>(v));
}

/// obs::Json dumps a non-finite double as a bare `nan`/`inf`, which is not
/// JSON; those go out as null (the bit patterns keep the exact value).
Json num_json(double v) { return std::isfinite(v) ? Json::number(v) : Json(); }

Json doubles_json(const std::vector<double>& values) {
    Json out = Json::array();
    for (const double v : values) out.as_array().push_back(num_json(v));
    return out;
}

ps::Compiled compile_description(const Args& args, const char* name) {
    const po::ScopedTimer span("bench.scen.compile");
    std::string error;
    auto compiled =
        ps::compile_file(args.root + "/scenarios/" + name + ".json", &error);
    if (!compiled) throw std::runtime_error(error);
    return std::move(*compiled);
}

// --- corridors -------------------------------------------------------------

struct CorridorSpec {
    const char* name;
    std::size_t platoons;  ///< Tier of the 64-platoon scale_corridor.
    bool signed_frames;    ///< Table III secret-and-public-keys applied.
    double ticks_per_second;  ///< Work per --seconds; see ticks_for().
    std::size_t setup_samples;  ///< World builds per run (setup_s: median).
};

// Calibrated so a run at --seconds 30 measures 15-30 s on a 4-vCPU Xeon
// VM (gcc 12, Release). At least 200 ticks, so op_ms_p90 has twenty
// samples beyond it.
constexpr CorridorSpec kCorridor{"corridor", 64, false, 7.0, 31};
constexpr CorridorSpec kSignedCorridor{"signed-corridor", 4, true, 20.0,
                                       11};

std::size_t ticks_for(const CorridorSpec& spec, double seconds) {
    const auto ticks =
        static_cast<std::size_t>(spec.ticks_per_second * seconds + 0.5);
    return std::max<std::size_t>(ticks, 200);
}

pc::ScenarioConfig corridor_config(const ps::Compiled& compiled,
                                   const CorridorSpec& spec,
                                   std::uint64_t seed) {
    // Cell 0 of scale_corridor is the clean (unattacked) corridor.
    pc::ScenarioConfig config = compiled.cells.at(0).config;
    config.seed = seed;
    if (spec.platoons - 1 < config.extra_platoons.size())
        config.extra_platoons.resize(spec.platoons - 1);
    std::erase_if(config.corridor, [&](const pc::CorridorEvent& event) {
        return event.platoon >= spec.platoons;
    });
    if (spec.signed_frames)
        ps::apply_defense(config, pc::DefenseKind::kSecretPublicKeys);
    return config;
}

/// One set-up: compile the description and build the world. The corridor
/// cells carry no attack, so there is nothing to attach.
struct Built {
    std::unique_ptr<pc::Scenario> scenario;
    double setup_s = 0.0;
};

Built build_world(const Args& args, const CorridorSpec& spec) {
    const double t0 = now_s();
    const ps::Compiled compiled = compile_description(args, "scale_corridor");
    const pc::ScenarioConfig config =
        corridor_config(compiled, spec, args.seed);
    Built built;
    {
        const po::ScopedTimer span("bench.core.build");
        built.scenario = std::make_unique<pc::Scenario>(config);
    }
    built.setup_s = now_s() - t0;
    return built;
}

std::size_t registered_radios(pc::Scenario& scenario) {
    std::size_t radios = 0;
    for (std::size_t i = 0; i < scenario.vehicle_count(); ++i)
        radios += scenario.network().is_registered(scenario.vehicle(i).id());
    for (const auto* rsu : scenario.rsus())
        radios += scenario.network().is_registered(rsu->id());
    return radios;
}

/// FNV-1a over every vehicle's position and speed bits: two worlds with
/// the same fingerprint are in the same physical state.
std::string state_fingerprint(pc::Scenario& scenario) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](double value) {
        for (const char c : bits(value)) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    };
    for (std::size_t i = 0; i < scenario.vehicle_count(); ++i) {
        mix(scenario.vehicle(i).dynamics().position());
        mix(scenario.vehicle(i).dynamics().speed());
    }
    return hex64(h);
}

/// Everything the checks read off a world at one simulated time.
Json world_evidence(pc::Scenario& scenario) {
    const pc::MetricsSummary summary = scenario.summarize();
    const auto& st = scenario.network().stats();
    Json out = Json::object();
    out.set("sim_time_s", Json::number(scenario.scheduler().now()));
    out.set("executed", int_json(scenario.scheduler().executed()));
    out.set("radios", int_json(registered_radios(scenario)));
    Json stats = Json::object();
    stats.set("sent", int_json(st.sent));
    stats.set("delivered", int_json(st.delivered));
    stats.set("dropped.per", int_json(st.dropped_per));
    stats.set("dropped.mac", int_json(st.dropped_mac));
    stats.set("dropped.half_duplex", int_json(st.dropped_half_duplex));
    stats.set("dropped.range", int_json(st.dropped_range));
    stats.set("dropped.fault", int_json(st.dropped_fault));
    out.set("network", std::move(stats));

    Json summary_json = Json::object();
    Json summary_bits = Json::object();
    for (const auto& [name, value] : summary.as_map()) {
        summary_json.set(name, num_json(value));
        summary_bits.set(name, Json::string(bits(value)));
    }
    out.set("summary", std::move(summary_json));
    out.set("summary_bits", std::move(summary_bits));
    out.set("fingerprint", Json::string(state_fingerprint(scenario)));

    // Receive-side outcomes of the primary platoon, summed here rather than
    // read from the summary, so the check does not trust the program's own
    // aggregation.
    using Counters = platoon::security::SecurityCounters;
    constexpr std::pair<const char*, std::uint64_t Counters::*> kOutcomes[] = {
        {"accepted", &Counters::accepted},
        {"bad_tag", &Counters::rejected_bad_tag},
        {"replay", &Counters::rejected_replay},
        {"stale", &Counters::rejected_stale},
        {"cert", &Counters::rejected_cert},
        {"revoked", &Counters::rejected_revoked},
        {"unprotected", &Counters::rejected_unprotected},
        {"no_key", &Counters::rejected_no_key},
    };
    Json rejected = Json::object();
    for (const auto& [key, field] : kOutcomes) {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < scenario.platoon_size(0); ++i)
            total += scenario.corridor_vehicle(0, i).counters().*field;
        rejected.set(key, int_json(total));
    }
    out.set("primary_rx", std::move(rejected));
    return out;
}

struct CorridorPass {
    double setup_s = 0.0;
    double run_s = 0.0;
    double summarize_s = 0.0;
    std::vector<double> tick_s;
    Json at_reference;  ///< World evidence after kReferenceTicks ticks.
    Json at_end;        ///< World evidence after the last tick.
};

/// The measured workload: build, step tick by tick, summarize.
CorridorPass corridor_pass(const Args& args, const CorridorSpec& spec,
                           std::size_t ticks) {
    CorridorPass pass;
    Built built = build_world(args, spec);
    pass.setup_s = built.setup_s;
    pc::Scenario& scenario = *built.scenario;
    pass.tick_s.reserve(ticks);
    for (std::size_t k = 1; k <= ticks; ++k) {
        const double t0 = now_s();
        scenario.run_until(static_cast<double>(k) * kTickS);
        pass.tick_s.push_back(now_s() - t0);
        if (k == kReferenceTicks) pass.at_reference = world_evidence(scenario);
    }
    for (const double t : pass.tick_s) pass.run_s += t;
    const double t0 = now_s();
    {
        const po::ScopedTimer span("bench.core.summarize");
        (void)scenario.summarize();
    }
    pass.summarize_s = now_s() - t0;
    pass.at_end = world_evidence(scenario);
    return pass;
}

Json pass_json(const CorridorPass& pass, std::size_t ticks) {
    Json out = Json::object();
    out.set("ticks", int_json(ticks));
    out.set("sim_s", Json::number(static_cast<double>(ticks) * kTickS));
    out.set("setup_s", Json::number(pass.setup_s));
    out.set("run_s", Json::number(pass.run_s));
    out.set("summarize_s", Json::number(pass.summarize_s));
    out.set("wall_s",
            Json::number(pass.setup_s + pass.run_s + pass.summarize_s));
    out.set("tick_wall_s", doubles_json(pass.tick_s));
    out.set("at_reference", pass.at_reference);
    out.set("at_end", pass.at_end);
    return out;
}

Json run_corridor(const Args& args, const CorridorSpec& spec, Json& doc) {
    const std::size_t ticks = ticks_for(spec, args.seconds);
    std::vector<double> setup_samples;

    // Reference: a fresh world run to the same simulated time in ONE
    // run_until call, with obs counting, so the checks can test that tick
    // stepping changes nothing and that counters match their twins.
    {
        Built ref = build_world(args, spec);
        setup_samples.push_back(ref.setup_s);
        po::reset_counters();
        po::set_enabled(true);
        ref.scenario->run_until(static_cast<double>(kReferenceTicks) *
                                kTickS);
        po::set_enabled(false);
        Json reference = world_evidence(*ref.scenario);
        Json counters = Json::object();
        for (const auto& [name, value] : po::counter_snapshot())
            counters.set(name, int_json(value));
        reference.set("counters", std::move(counters));
        doc.set("reference", std::move(reference));
        po::reset_counters();
        po::reset_timers();
    }
    // Set-ups are sampled before and after the measured pass, so that
    // their median does not hang on the host's speed at one instant.
    while (setup_samples.size() < spec.setup_samples / 2)
        setup_samples.push_back(build_world(args, spec).setup_s);
    const CorridorPass measured = corridor_pass(args, spec, ticks);
    setup_samples.push_back(measured.setup_s);
    while (setup_samples.size() < spec.setup_samples)
        setup_samples.push_back(build_world(args, spec).setup_s);
    doc.set("setup_samples_s", doubles_json(setup_samples));
    doc.set("attempted", int_json(ticks));
    doc.set("failed", int_json(0));
    Json out = pass_json(measured, ticks);

    if (args.trace) {
        po::reset_counters();
        po::reset_timers();
        po::set_enabled(true);
        const CorridorPass traced = corridor_pass(args, spec, ticks);
        po::set_enabled(false);
        doc.set("traced", pass_json(traced, ticks));
    }
    return out;
}

// --- Table III sweep --------------------------------------------------------

struct SweepPass {
    double setup_s = 0.0;
    double run_s = 0.0;
    std::vector<double> replication_s;
    std::size_t failed = 0;
    Json cells = Json::array();
};

/// The table3_mitigations description at its own seed count, every
/// (cell, seed) replication run through eval on this thread, in order.
SweepPass sweep_pass(const Args& args) {
    SweepPass pass;
    const double t0 = now_s();
    const ps::Compiled compiled =
        compile_description(args, "table3_mitigations");
    pass.setup_s = now_s() - t0;
    const auto& tax = pc::Taxonomy::instance();
    for (const ps::CompiledCell& cell : compiled.cells) {
        const pe::Headline headline = pe::headline_for(cell.attack);
        Json cell_json = Json::object();
        cell_json.set("attack", Json::string(pc::to_string(cell.attack)));
        cell_json.set("defense",
                      Json::string(ps::defense_name(cell.defense)));
        cell_json.set("attacked", Json::boolean(cell.with_attack));
        cell_json.set("headline", Json::string(headline.metric));
        cell_json.set("higher_is_worse",
                      Json::boolean(headline.higher_is_worse));
        cell_json.set("paper_mitigates",
                      Json::boolean(cell.defense != ps::kNoDefense &&
                                    tax.mitigates(cell.defense, cell.attack)));
        Json values = Json::array();
        Json value_bits = Json::array();
        for (std::size_t k = 0; k < cell.seeds; ++k) {
            pe::EvalCell one{cell.config, cell.attack, cell.with_attack, 1};
            one.config.seed = args.seed + k;
            const double r0 = now_s();
            try {
                const po::ScopedTimer span("bench.eval.replication");
                // jobs=1: run_eval_grid runs inline on this thread; it adds
                // the harness's own config normalization and eval.score.
                const pc::MetricMap m = pe::run_eval_grid({one}, 1).front();
                const double v = pe::metric(m, headline.metric);
                values.as_array().push_back(num_json(v));
                value_bits.as_array().push_back(Json::string(bits(v)));
            } catch (const std::exception& e) {
                ++pass.failed;
                values.as_array().push_back(Json());
                value_bits.as_array().push_back(Json::string(e.what()));
            }
            pass.replication_s.push_back(now_s() - r0);
        }
        cell_json.set("values", std::move(values));
        cell_json.set("value_bits", std::move(value_bits));
        pass.cells.as_array().push_back(std::move(cell_json));
    }
    for (const double t : pass.replication_s) pass.run_s += t;
    return pass;
}

Json sweep_json(const SweepPass& pass) {
    Json out = Json::object();
    out.set("setup_s", Json::number(pass.setup_s));
    out.set("run_s", Json::number(pass.run_s));
    out.set("wall_s", Json::number(pass.setup_s + pass.run_s));
    out.set("sim_s",
            Json::number(static_cast<double>(pass.replication_s.size()) *
                         pe::kEvalDuration));
    out.set("replication_wall_s", doubles_json(pass.replication_s));
    out.set("cells", pass.cells);
    return out;
}

Json run_sweep(const Args& args, Json& doc) {
    std::vector<double> setup_samples;
    for (std::size_t k = 0; k + 1 < kCompileSamples; ++k) {
        const double t0 = now_s();
        (void)compile_description(args, "table3_mitigations");
        setup_samples.push_back(now_s() - t0);
    }
    const SweepPass measured = sweep_pass(args);
    setup_samples.push_back(measured.setup_s);
    doc.set("setup_samples_s", doubles_json(setup_samples));
    doc.set("attempted", int_json(measured.replication_s.size()));
    doc.set("failed", int_json(measured.failed));
    Json out = sweep_json(measured);
    if (args.trace) {
        po::reset_counters();
        po::reset_timers();
        po::set_enabled(true);
        const SweepPass traced = sweep_pass(args);
        po::set_enabled(false);
        doc.set("traced", sweep_json(traced));
    }
    return out;
}

// --- main ------------------------------------------------------------------

std::optional<Args> parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--root") {
            args.root = value;
        } else if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::stoull(value);
        } else if (key == "--seconds") {
            args.seconds = std::stod(value);
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0.0))
        return std::nullopt;
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    std::optional<Args> args;
    try {
        args = parse_args(argc, argv);
    } catch (const std::exception&) {
        args.reset();
    }
    if (!args) {
        std::cerr << "usage: perfbench --root DIR --workload NAME --seed N "
                     "--seconds S --trace 0|1\n";
        return 2;
    }
    po::set_enabled(false);
    Json doc = Json::object();
    doc.set("workload", Json::string(args->workload));
    doc.set("seed", int_json(args->seed));
    try {
        Json measured;
        if (args->workload == kCorridor.name) {
            measured = run_corridor(*args, kCorridor, doc);
        } else if (args->workload == kSignedCorridor.name) {
            measured = run_corridor(*args, kSignedCorridor, doc);
        } else if (args->workload == "table3-sweep") {
            measured = run_sweep(*args, doc);
        } else {
            std::cerr << "perfbench: unknown workload " << args->workload
                      << "\n";
            return 2;
        }
        doc.set("measured", std::move(measured));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    doc.set("peak_rss_kb", int_json(peak_rss_kb()));
    if (args->trace) {
        // The program's own export, unedited: run.py decodes it as strict
        // UTF-8 JSON and derives every per-layer number from it.
        doc.set("obs", po::snapshot_json(po::make_manifest(
                           "perfbench", args->workload, args->seed, 1)));
    }
    std::cout << doc.dump(0) << "\n";
    return 0;
}
