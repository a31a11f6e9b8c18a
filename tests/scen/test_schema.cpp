// Scenario-compiler schema tests: the committed descriptions compile to
// exactly the grids the table benches pin, composition follows the
// documented order, and every validator produces one actionable diagnostic
// with a JSON path (the DSL's error surface is part of its interface).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "eval/harness.hpp"
#include "obs/json.hpp"
#include "scen/schema.hpp"
#include "security/stealth/profile.hpp"

namespace pc = platoon::core;
namespace ps = platoon::scen;
using platoon::obs::Json;

namespace {

std::optional<ps::Compiled> compile_text(const std::string& text,
                                         std::string* error) {
    const std::optional<Json> doc = Json::parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    if (!doc) return std::nullopt;
    return ps::compile(*doc, error);
}

/// Compiles a description expected to fail; returns the diagnostic.
std::string compile_error(const std::string& text) {
    std::string error;
    const auto compiled = compile_text(text, &error);
    EXPECT_FALSE(compiled.has_value()) << text;
    return error;
}

/// Appends `name=value` lines; doubles as their exact bit patterns so a
/// last-ulp difference shows.
struct FieldDump {
    std::string text;

    void add(const char* name, double v) {
        text += name;
        text += '=';
        text += std::to_string(std::bit_cast<std::uint64_t>(v));
        text += '\n';
    }
    void add(const char* name, std::uint64_t v) {
        text += name;
        text += '=';
        text += std::to_string(v);
        text += '\n';
    }
    void add(const char* name, const std::string& v) {
        text += name;
        text += '=';
        text += v;
        text += '\n';
    }
};

#define DUMP(dump, expr) (dump).add(#expr, expr)
#define DUMP_U(dump, expr) \
    (dump).add(#expr, static_cast<std::uint64_t>(expr))

/// Every field of a compiled cell, nested parameter blocks included.
void dump_cell(FieldDump& d, const ps::CompiledCell& cell) {
    DUMP_U(d, cell.attack);
    DUMP_U(d, cell.with_attack);
    DUMP_U(d, cell.defense);
    DUMP(d, cell.fault);
    DUMP_U(d, cell.seeds);
    DUMP_U(d, cell.grid);
    const pc::ScenarioConfig& c = cell.config;
    DUMP_U(d, c.seed);
    DUMP_U(d, c.platoon_size);
    DUMP_U(d, c.controller);
    DUMP(d, c.initial_speed_mps);
    DUMP(d, c.initial_gap_m);
    DUMP(d, c.leader_start_m);
    const auto& s = c.security;
    DUMP_U(d, s.auth_mode);
    DUMP_U(d, s.key_establishment);
    DUMP_U(d, s.encrypt_payloads);
    DUMP(d, s.freshness_window_s);
    DUMP_U(d, s.check_replay);
    DUMP(d, s.pseudonym_rotation_s);
    DUMP_U(d, s.vpd_ada);
    DUMP_U(d, s.trust_management);
    DUMP_U(d, s.hybrid_comms);
    DUMP_U(d, s.secondary_band);
    DUMP_U(d, s.require_dual_channel_maneuvers);
    DUMP_U(d, s.sensor_fusion);
    DUMP_U(d, s.firewall);
    DUMP_U(d, s.antivirus);
    DUMP_U(d, s.report_misbehavior);
    DUMP_U(d, s.require_signed_infrastructure);
    DUMP(d, s.join_rate_limit_s);
    const auto& n = c.network;
    DUMP(d, n.channel.tx_power_dbm);
    DUMP(d, n.channel.ref_loss_db);
    DUMP(d, n.channel.path_loss_exponent);
    DUMP(d, n.channel.noise_floor_dbm);
    DUMP(d, n.channel.fading_stddev_db);
    DUMP(d, n.channel.coherence_time_s);
    DUMP(d, n.channel.carrier_sense_dbm);
    DUMP(d, n.channel.capture_threshold_db);
    DUMP(d, n.channel.per_slope_db);
    DUMP(d, n.channel.data_rate_bps);
    DUMP(d, n.channel.preamble_s);
    DUMP(d, n.vlc_range_m);
    DUMP(d, n.vlc_loss_prob);
    DUMP(d, n.vlc_latency_s);
    DUMP(d, n.slot_time_s);
    DUMP_U(d, n.cw_min);
    DUMP(d, n.aifs_s);
    DUMP_U(d, n.max_mac_attempts);
    DUMP(d, n.max_range_m);
    DUMP_U(d, n.brute_force_delivery);
    DUMP(d, n.spatial_rebuild_period_s);
    DUMP(d, n.max_node_speed_mps);
    DUMP(d, n.spatial_slack_margin_m);
    DUMP_U(d, c.admission.max_members);
    DUMP_U(d, c.admission.max_pending);
    DUMP(d, c.admission.pending_timeout_s);
    DUMP(d, c.admission.per_id_min_interval_s);
    for (const pc::SpeedStep& step : c.speed_profile) {
        DUMP(d, step.at);
        DUMP(d, step.speed_mps);
    }
    DUMP(d, c.metrics.desired_gap_m);
    DUMP(d, c.metrics.collision_gap_m);
    DUMP(d, c.metrics.warmup_s);
    DUMP(d, c.metrics.sample_period_s);
    for (const auto& b : c.faults.burst_loss) {
        DUMP(d, b.start_s);
        DUMP(d, b.end_s);
        DUMP(d, b.mean_good_s);
        DUMP(d, b.mean_bad_s);
        DUMP(d, b.loss_good);
        DUMP(d, b.loss_bad);
        DUMP_U(d, b.band);
    }
    for (const auto& k : c.faults.crashes) {
        DUMP_U(d, k.vehicle_index);
        DUMP(d, k.at_s);
        DUMP(d, k.down_s);
    }
    for (const auto& o : c.faults.sensor_dropouts) {
        DUMP_U(d, o.vehicle_index);
        DUMP(d, o.start_s);
        DUMP(d, o.duration_s);
    }
    for (const auto& r : c.faults.clock_drifts) {
        DUMP_U(d, r.vehicle_index);
        DUMP(d, r.start_s);
        DUMP(d, r.offset_s);
        DUMP(d, r.drift_s_per_s);
    }
    DUMP_U(d, c.rsu_count);
    DUMP(d, c.rsu_spacing_m);
    DUMP_U(d, c.rsus_require_signatures);
    DUMP_U(d, c.share_verify_verdicts);
    DUMP(d, c.control_period_s);
    DUMP(d, c.beacon_period_s);
    for (const pc::PlatoonSpec& p : c.extra_platoons) {
        DUMP_U(d, p.size);
        DUMP(d, p.start_offset_m);
        DUMP_U(d, p.lane);
        DUMP(d, p.speed_delta_mps);
    }
    for (const pc::CorridorEvent& e : c.corridor) {
        DUMP_U(d, e.kind);
        DUMP(d, e.at);
        DUMP_U(d, e.platoon);
        DUMP_U(d, e.index);
    }
}

/// The description, the stealth block and every cell, in order.
std::string dump_compiled(const ps::Compiled& compiled) {
    FieldDump d;
    DUMP(d, compiled.description.name);
    DUMP(d, compiled.description.title);
    DUMP(d, compiled.description.profile);
    DUMP_U(d, compiled.description.seed);
    DUMP_U(d, compiled.description.grid_count);
    if (compiled.stealth) {
        const ps::StealthOverrides& s = *compiled.stealth;
        for (const std::string& name : s.injections) DUMP(d, name);
        DUMP_U(d, s.victim_index);
        DUMP(d, s.start_s);
        DUMP(d, s.horizon_s);
        DUMP(d, s.amplitude_min);
        DUMP(d, s.amplitude_max);
        DUMP_U(d, s.amplitude_steps);
        DUMP(d, s.ramp_min);
        DUMP(d, s.ramp_max);
        DUMP_U(d, s.ramp_steps);
        DUMP(d, s.duty_min);
        DUMP(d, s.duty_max);
        DUMP_U(d, s.duty_steps);
        DUMP(d, s.duty_period_s);
        DUMP(d, s.onset_max_s);
        DUMP_U(d, s.cem_iterations);
        DUMP_U(d, s.cem_population);
        DUMP_U(d, s.cem_elites);
        DUMP_U(d, s.seeds);
    }
    for (const ps::CompiledCell& cell : compiled.cells) dump_cell(d, cell);
    return d.text;
}

#undef DUMP
#undef DUMP_U

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

const char* kMinimal = R"({
  "name": "t",
  "grids": [{"axes": {"attacks": ["replay"]}}]
})";

}  // namespace

TEST(ScenSchema, MinimalDescriptionCompilesToOneAttackedReplayCell) {
    std::string error;
    const auto compiled = compile_text(kMinimal, &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_EQ(compiled->cells.size(), 1u);
    const ps::CompiledCell& cell = compiled->cells[0];
    EXPECT_EQ(cell.attack, pc::AttackKind::kReplay);
    EXPECT_TRUE(cell.with_attack);  // attacked defaults to [true]
    EXPECT_EQ(cell.defense, ps::kNoDefense);
    EXPECT_EQ(cell.fault, "none");
    EXPECT_EQ(cell.seeds, 1u);  // seeds default to 1
    EXPECT_EQ(compiled->description.seed, 42u);  // seed defaults to 42
}

TEST(ScenSchema, CommittedTable2DescriptionMatchesHandBuiltGrid) {
    // The exact grid bench_table2_threats used to hand-build: per attack in
    // catalogue order a clean cell then an attacked cell, 3 seeds each.
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/table2_threats.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    const auto n_attacks = static_cast<std::size_t>(pc::AttackKind::kCount_);
    ASSERT_EQ(compiled->cells.size(), 2 * n_attacks);
    for (std::size_t k = 0; k < n_attacks; ++k) {
        const ps::CompiledCell& clean = compiled->cells[2 * k];
        const ps::CompiledCell& attacked = compiled->cells[2 * k + 1];
        EXPECT_EQ(clean.attack, static_cast<pc::AttackKind>(k));
        EXPECT_FALSE(clean.with_attack);
        EXPECT_EQ(attacked.attack, static_cast<pc::AttackKind>(k));
        EXPECT_TRUE(attacked.with_attack);
        EXPECT_EQ(clean.seeds, 3u);
        // Identical composition to the eval harness's base profile.
        EXPECT_EQ(clean.config.seed, platoon::eval::eval_config().seed);
        EXPECT_EQ(clean.config.platoon_size,
                  platoon::eval::eval_config().platoon_size);
    }
}

TEST(ScenSchema, CommittedTable3DescriptionMatchesHandBuiltGrid) {
    // Baseline pairs first, then the defense x attack block in enum order
    // at index 2*n_attacks + d*n_attacks + a -- the indices the printed
    // matrix reads.
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/table3_mitigations.json",
        &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    const auto n_attacks = static_cast<std::size_t>(pc::AttackKind::kCount_);
    const auto n_defenses =
        static_cast<std::size_t>(pc::DefenseKind::kCount_);
    ASSERT_EQ(compiled->cells.size(),
              2 * n_attacks + n_defenses * n_attacks);
    for (std::size_t d = 0; d < n_defenses; ++d) {
        for (std::size_t a = 0; a < n_attacks; ++a) {
            const ps::CompiledCell& cell =
                compiled->cells[2 * n_attacks + d * n_attacks + a];
            EXPECT_EQ(cell.defense, static_cast<pc::DefenseKind>(d));
            EXPECT_EQ(cell.attack, static_cast<pc::AttackKind>(a));
            EXPECT_TRUE(cell.with_attack);
            // The defense axis actually changed the config the same way
            // eval::apply_defense does.
            pc::ScenarioConfig expected = platoon::eval::eval_config();
            platoon::eval::apply_defense(expected,
                                         static_cast<pc::DefenseKind>(d));
            EXPECT_EQ(cell.config.security.auth_mode,
                      expected.security.auth_mode);
            EXPECT_EQ(cell.config.rsu_count, expected.rsu_count);
            EXPECT_EQ(cell.config.security.hybrid_comms,
                      expected.security.hybrid_comms);
        }
    }
}

TEST(ScenSchema, CommittedTableFaultsDescriptionCarriesFaultPlans) {
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/table_faults.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_EQ(compiled->cells.size(), 9u);
    // cells[1] is the burst-loss fault cell beside the jamming attack.
    const ps::CompiledCell& burst = compiled->cells[1];
    EXPECT_EQ(burst.fault, "burst-loss");
    EXPECT_FALSE(burst.with_attack);
    ASSERT_EQ(burst.config.faults.burst_loss.size(), 1u);
    EXPECT_DOUBLE_EQ(burst.config.faults.burst_loss[0].loss_bad, 0.95);
    // The clock-drift cell is normalized to a signed deployment via its
    // grid override (composition order: overrides before fault preset).
    const ps::CompiledCell& drift = compiled->cells[7];
    EXPECT_EQ(drift.fault, "clock-drift");
    EXPECT_EQ(drift.config.security.auth_mode,
              platoon::crypto::AuthMode::kSignature);
    ASSERT_EQ(drift.config.faults.clock_drifts.size(), 1u);
}

TEST(ScenSchema, EnumerationOrderIsDefensesFaultsAttacksAttacked) {
    std::string error;
    const auto compiled = compile_text(R"({
      "name": "order",
      "fault_presets": {
        "crash": {"crashes": [{"vehicle_index": 1, "at_s": 25.0}]}
      },
      "grids": [{
        "axes": {
          "attacks": ["replay", "jamming"],
          "attacked": [false, true],
          "defenses": ["none", "roadside-units"],
          "faults": ["none", "crash"]
        }
      }]
    })",
                                       &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_EQ(compiled->cells.size(), 16u);  // 2 * 2 * 2 * 2
    // Innermost axis: attacked flips fastest.
    EXPECT_FALSE(compiled->cells[0].with_attack);
    EXPECT_TRUE(compiled->cells[1].with_attack);
    // Then attacks.
    EXPECT_EQ(compiled->cells[0].attack, pc::AttackKind::kReplay);
    EXPECT_EQ(compiled->cells[2].attack, pc::AttackKind::kJamming);
    // Then faults.
    EXPECT_EQ(compiled->cells[0].fault, "none");
    EXPECT_EQ(compiled->cells[4].fault, "crash");
    // Outermost: defenses.
    EXPECT_EQ(compiled->cells[0].defense, ps::kNoDefense);
    EXPECT_EQ(compiled->cells[8].defense,
              pc::DefenseKind::kRoadsideUnits);
}

TEST(ScenSchema, FindCellAddressesByMeaning) {
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/table_faults.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    const ps::CompiledCell* cell =
        ps::find_cell(compiled->cells, pc::AttackKind::kJamming,
                      /*with_attack=*/false, ps::kNoDefense, "burst-loss");
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->coverage_key(), "jamming|none|burst-loss");
    EXPECT_EQ(ps::find_cell(compiled->cells, pc::AttackKind::kMalware,
                            /*with_attack=*/true),
              nullptr);
}

TEST(ScenSchema, UnknownTopLevelKeyIsRejectedWithSuggestion) {
    const std::string error = compile_error(R"({
      "name": "t",
      "grid": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("unknown key 'grid'"), std::string::npos) << error;
    EXPECT_NE(error.find("did you mean 'grids'?"), std::string::npos)
        << error;
}

TEST(ScenSchema, UnknownAttackNameSuggestsNearMiss) {
    const std::string error = compile_error(R"({
      "name": "t",
      "grids": [{"axes": {"attacks": ["replai"]}}]
    })");
    EXPECT_NE(error.find("grids[0].axes.attacks[0]"), std::string::npos)
        << error;
    EXPECT_NE(error.find("did you mean 'replay'?"), std::string::npos)
        << error;
}

TEST(ScenSchema, OutOfRangePlatoonSizeNamesPathAndBounds) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"platoon_size": 1},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.platoon_size"), std::string::npos)
        << error;
    EXPECT_NE(error.find("out of range [2, 64]"), std::string::npos)
        << error;
}

TEST(ScenSchema, OutOfRangeDoubleIsNotPrintedAsItsBound) {
    // Default ostream precision printed 10.0000001 as "10" and 1000000.5
    // as "1e+06", so the message read as if the bound itself were
    // rejected.
    EXPECT_EQ(compile_error(R"({
      "name": "t",
      "overrides": {"security": {"freshness_window_s": 10.0000001}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })"),
              "overrides.security.freshness_window_s: value 10.0000001 out "
              "of range [0.001, 10]");
    EXPECT_EQ(compile_error(R"({
      "name": "t",
      "fault_presets": {"b": {"burst_loss": [{"start_s": 1000000.5}]}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })"),
              "fault_presets.b.burst_loss[0].start_s: value 1000000.5 out of "
              "range [0, 1e+06]");
}

TEST(ScenSchema, EncryptWithoutAuthenticationIsIncompatible) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"security": {"encrypt_payloads": true}},
      "grids": [{"axes": {"attacks": ["eavesdropping"]}}]
    })");
    EXPECT_NE(error.find("incompatible combination"), std::string::npos)
        << error;
    EXPECT_NE(error.find("encrypt_payloads"), std::string::npos) << error;
}

TEST(ScenSchema, ClockDriftWithoutTimestampChecksIsIncompatible) {
    const std::string error = compile_error(R"({
      "name": "t",
      "fault_presets": {
        "drift": {"clock_drifts": [{"vehicle_index": 2, "offset_s": 0.3}]}
      },
      "grids": [{"axes": {"attacks": ["replay"], "faults": ["drift"]}}]
    })");
    EXPECT_NE(error.find("clock drift"), std::string::npos) << error;
    EXPECT_NE(error.find("auth_mode"), std::string::npos) << error;
}

TEST(ScenSchema, FaultVehicleIndexOutsidePlatoonIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"platoon_size": 4},
      "fault_presets": {
        "crash": {"crashes": [{"vehicle_index": 9, "at_s": 25.0}]}
      },
      "grids": [{"axes": {"attacks": ["replay"], "faults": ["crash"]}}]
    })");
    EXPECT_NE(error.find("vehicle_index 9"), std::string::npos) << error;
    EXPECT_NE(error.find("platoon_size 4"), std::string::npos) << error;
}

TEST(ScenSchema, DuplicateAxisEntryIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "grids": [{"axes": {"attacks": ["replay", "replay"]}}]
    })");
    EXPECT_NE(error.find("duplicate axis entry"), std::string::npos)
        << error;
}

TEST(ScenSchema, AllExpandsToFullCatalogueAndDuplicatesWithAllAreCaught) {
    std::string error;
    const auto compiled = compile_text(R"({
      "name": "t",
      "grids": [{"axes": {"attacks": ["all"]}}]
    })",
                                       &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    EXPECT_EQ(compiled->cells.size(),
              static_cast<std::size_t>(pc::AttackKind::kCount_));
    const std::string dup = compile_error(R"({
      "name": "t",
      "grids": [{"axes": {"attacks": ["all", "replay"]}}]
    })");
    EXPECT_NE(dup.find("duplicate axis entry"), std::string::npos) << dup;
}

TEST(ScenSchema, ReservedFaultPresetNameNoneIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "fault_presets": {"none": {"crashes": [{"vehicle_index": 1}]}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("'none' is reserved"), std::string::npos) << error;
}

TEST(ScenSchema, UnknownProfileListsKnownOnes) {
    const std::string error = compile_error(R"({
      "name": "t",
      "profile": "detektion",
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("unknown profile 'detektion'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("did you mean 'detection'?"), std::string::npos)
        << error;
}

TEST(ScenSchema, MissingGridsIsRequired) {
    const std::string error = compile_error(R"({"name": "t"})");
    EXPECT_NE(error.find("grids"), std::string::npos) << error;
    EXPECT_NE(error.find("required"), std::string::npos) << error;
}

TEST(ScenSchema, UnreadableFilePrefixesPathInError) {
    std::string error;
    const auto compiled =
        ps::compile_file("/nonexistent/missing.json", &error);
    EXPECT_FALSE(compiled.has_value());
    EXPECT_NE(error.find("/nonexistent/missing.json"), std::string::npos)
        << error;
}

// --- overrides.stealth (the Table VI stealth-frontier block) ---------------

TEST(ScenSchema, CommittedStealthFrontierDescriptionCarriesTheSearchBox) {
    std::string error;
    const auto compiled = ps::compile_file(
        std::string(PLATOON_SCENARIO_DIR) + "/stealth_frontier.json", &error);
    ASSERT_TRUE(compiled.has_value()) << error;
    ASSERT_TRUE(compiled->stealth.has_value());
    const ps::StealthOverrides& s = *compiled->stealth;
    ASSERT_EQ(s.injections.size(), 3u);
    EXPECT_EQ(s.injections[0], "sensor-spoof");
    EXPECT_EQ(s.injections[1], "gps-spoof");
    EXPECT_EQ(s.injections[2], "fake-maneuver");
    EXPECT_EQ(s.victim_index, 3u);
    EXPECT_DOUBLE_EQ(s.start_s, 20.0);
    EXPECT_DOUBLE_EQ(s.horizon_s, 70.0);
    EXPECT_DOUBLE_EQ(s.amplitude_min, 0.5);
    EXPECT_DOUBLE_EQ(s.amplitude_max, 5.0);
    EXPECT_EQ(s.amplitude_steps, 4u);
    EXPECT_EQ(s.ramp_steps, 2u);
    EXPECT_EQ(s.duty_steps, 3u);
    EXPECT_DOUBLE_EQ(s.duty_period_s, 8.0);
    EXPECT_DOUBLE_EQ(s.onset_max_s, 2.0);
    EXPECT_EQ(s.cem_iterations, 2u);
    EXPECT_EQ(s.cem_population, 12u);
    EXPECT_EQ(s.cem_elites, 4u);
    EXPECT_EQ(s.seeds, 1u);
    // The bench uses the description's single compiled cell as its base
    // config; the victim index must address a real platoon member there.
    ASSERT_EQ(compiled->cells.size(), 1u);
    EXPECT_LT(s.victim_index, compiled->cells[0].config.platoon_size);
}

TEST(ScenSchema, StealthVocabularyMatchesTheSecurityLayer) {
    // scen cannot include security (layering), so it hardcodes a mirror of
    // the injection vocabulary; this cross-check pins the two lists equal
    // so adding an InjectionKind without teaching the schema fails loudly.
    EXPECT_EQ(ps::stealth_injection_names(),
              platoon::security::stealth::injection_names());
}

TEST(ScenSchema, StealthWithoutInjectionsIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"victim_index": 3}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.stealth"), std::string::npos) << error;
    EXPECT_NE(error.find("injections"), std::string::npos) << error;
}

TEST(ScenSchema, UnknownStealthKeyIsRejectedWithPath) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"], "ampltude":
        {"min": 1.0}}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.stealth"), std::string::npos) << error;
    EXPECT_NE(error.find("ampltude"), std::string::npos) << error;
}

TEST(ScenSchema, UnknownInjectionNameSuggestsNearMiss) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps_spoof"]}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("gps_spoof"), std::string::npos) << error;
    EXPECT_NE(error.find("gps-spoof"), std::string::npos) << error;
}

TEST(ScenSchema, StealthInsideGridOverridesIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "grids": [{
        "axes": {"attacks": ["replay"]},
        "overrides": {"stealth": {"injections": ["gps-spoof"]}}
      }]
    })");
    EXPECT_NE(error.find("top-level"), std::string::npos) << error;
}

TEST(ScenSchema, StealthAxisMaxBelowMinIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "amplitude": {"min": 3.0, "max": 1.0}}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.stealth.amplitude"), std::string::npos)
        << error;
    EXPECT_NE(error.find("max must be >= min"), std::string::npos) << error;
}

TEST(ScenSchema, StealthHorizonMustExceedStart) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "start_s": 50.0, "horizon_s": 40.0}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("horizon_s"), std::string::npos) << error;
}

TEST(ScenSchema, StealthVictimOutsidePlatoonIsRejected) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "victim_index": 60}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("overrides.stealth.victim_index"), std::string::npos)
        << error;
}

TEST(ScenSchema, StealthCemElitesCannotExceedPopulation) {
    const std::string error = compile_error(R"({
      "name": "t",
      "overrides": {"stealth": {"injections": ["gps-spoof"],
        "cem": {"population": 4, "elites": 8}}},
      "grids": [{"axes": {"attacks": ["replay"]}}]
    })");
    EXPECT_NE(error.find("elites"), std::string::npos) << error;
}

// --- golden corpora --------------------------------------------------------

TEST(ScenSchema, CommittedDescriptionsCompileToRecordedCells) {
    // FNV-1a of dump_compiled() for every committed description, recorded
    // from the hand-written compiler that preceded the table-driven one: a
    // change to any field of any cell, the cell order, the seeds or the
    // stealth block changes the digest.
    const struct {
        const char* file;
        std::size_t cells;
        std::uint64_t digest;
    } kRecorded[] = {
        {"example_replay.json", 3, 0xd2c0fc1a91f1a213ull},
        {"fuzz_space.json", 270, 0x9b53b18691ba68fdull},
        {"scale_corridor.json", 2, 0x0ed98f235e7c4fd1ull},
        {"stealth_frontier.json", 1, 0x34e3ff48a02f58dbull},
        {"table2_threats.json", 18, 0x43826c9f47d4b8f7ull},
        {"table3_mitigations.json", 63, 0xfbb8f0fccdd8a311ull},
        {"table_faults.json", 9, 0xde68bb5e2ba57b45ull},
    };
    for (const auto& recorded : kRecorded) {
        std::string error;
        const auto compiled = ps::compile_file(
            std::string(PLATOON_SCENARIO_DIR) + "/" + recorded.file, &error);
        ASSERT_TRUE(compiled.has_value()) << error;
        EXPECT_EQ(compiled->cells.size(), recorded.cells) << recorded.file;
        EXPECT_EQ(fnv1a(dump_compiled(*compiled)), recorded.digest)
            << recorded.file;
    }
}

TEST(ScenSchema, DiagnosticCorpusMatchesRecordedBytes) {
    // tests/scen/schema_diagnostics.json: one minimal document per failure
    // of every key of every block, with the exact first diagnostic.
    std::ifstream in(PLATOON_SCHEMA_CORPUS, std::ios::binary);
    ASSERT_TRUE(in) << PLATOON_SCHEMA_CORPUS;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::optional<Json> corpus = Json::parse(buffer.str());
    ASSERT_TRUE(corpus.has_value());
    const Json::Array& cases = corpus->at("cases").as_array();
    ASSERT_GT(cases.size(), 300u);
    std::set<std::string> names;
    for (const Json& entry : cases) {
        const std::string& name = entry.at("case").as_string();
        EXPECT_TRUE(names.insert(name).second) << "duplicate case " << name;
        std::string error;
        const auto compiled = ps::compile(entry.at("doc"), &error);
        const std::string& expected = entry.at("error").as_string();
        if (expected.empty()) {
            EXPECT_TRUE(compiled.has_value()) << name << ": " << error;
        } else {
            EXPECT_FALSE(compiled.has_value()) << name;
            EXPECT_EQ(error, expected) << name;
        }
    }
}
