#include "scen/schema.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>
#include <variant>

namespace platoon::scen {

namespace {

using Json = obs::Json;

/// Joins registry names for an "expected one of ..." error tail.
std::string join_names(const std::vector<std::string>& names) {
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0) out += ", ";
        out += names[i];
    }
    return out;
}

/// Carries the first diagnostic; later checks become no-ops once set.
struct Diag {
    std::string message;
    bool failed = false;
    /// Where an `overrides.stealth` block goes: the description's slot
    /// while the top-level overrides are applied, nullptr inside a grid.
    std::optional<StealthOverrides>* stealth = nullptr;

    /// Records the diagnostic unless one is already set; returns false so
    /// a parser can `return diag.fail(...)`.
    bool fail(const std::string& path, const std::string& what) {
        if (!failed) message = path + ": " + what;
        failed = true;
        return false;
    }
};

void fail_unknown_name(const std::string& path, const char* noun,
                       const std::string& name,
                       const std::vector<std::string>& known, Diag& diag) {
    diag.fail(path, std::string("unknown ") + noun + " '" + name + "'" +
                        suggest(name, known) +
                        "; expected one of: " + join_names(known));
}

bool want_bool(const Json& v, const std::string& path, Diag& diag,
               bool* out) {
    if (v.type() != Json::Type::kBool)
        return diag.fail(path, "expected true/false");
    *out = v.as_bool();
    return true;
}

bool want_int(const Json& v, const std::string& path, std::int64_t lo,
              std::int64_t hi, Diag& diag, std::int64_t* out) {
    if (!v.is_int()) return diag.fail(path, "expected an integer");
    const std::int64_t value = v.as_int();
    if (value < lo || value > hi)
        return diag.fail(path, "value " + std::to_string(value) +
                                   " out of range [" + std::to_string(lo) +
                                   ", " + std::to_string(hi) + "]");
    *out = value;
    return true;
}

/// Shortest round-trip spelling (as obs::Json writes doubles), so a value
/// just past a bound never prints as the bound itself.
std::string shortest(double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

bool want_double(const Json& v, const std::string& path, double lo,
                 double hi, Diag& diag, double* out) {
    if (!v.is_number()) return diag.fail(path, "expected a number");
    const double value = v.as_double();
    if (value < lo || value > hi)
        return diag.fail(path, "value " + shortest(value) +
                                   " out of range [" + shortest(lo) + ", " +
                                   shortest(hi) + "]");
    *out = value;
    return true;
}

bool want_string(const Json& v, const std::string& path, Diag& diag,
                 std::string* out) {
    if (!v.is_string()) return diag.fail(path, "expected a string");
    *out = v.as_string();
    return true;
}

// -----------------------------------------------------------------------
// Field tables and the walker.
//
// Each JSON object of the schema is one table of Field rows: the key, the
// member it fills, its range and whether it is required. The member's type
// selects the kind: bool, integer, double, string, registry name (an enum
// with a Vocabulary), raw JSON kept for a later walk, or a nested Handler.
// A row without a key is a cross-field Check that runs at its position in
// the table.

using CorridorKind = core::CorridorEvent::Kind;

template <typename E>
struct Vocabulary {
    const char* noun;
    std::optional<E> (*lookup)(std::string_view);
    std::vector<std::string> (*names)();
};

/// Indexed by CorridorKind.
constexpr const char* kCorridorEvents[] = {"merge", "split", "cut-in",
                                           "rsu-handoff"};
static_assert(std::size(kCorridorEvents) ==
              1 + std::size_t(CorridorKind::kRsuHandoff));

Vocabulary<crypto::AuthMode> vocabulary(crypto::AuthMode) {
    return {"auth mode", auth_mode_from_name, auth_mode_names};
}
Vocabulary<control::ControllerType> vocabulary(control::ControllerType) {
    return {"controller", controller_from_name, controller_names};
}
Vocabulary<CorridorKind> vocabulary(CorridorKind) {
    return {"corridor event",
            [](std::string_view name) -> std::optional<CorridorKind> {
                for (std::size_t i = 0; i < std::size(kCorridorEvents); ++i)
                    if (name == kCorridorEvents[i])
                        return static_cast<CorridorKind>(i);
                return std::nullopt;
            },
            [] {
                return std::vector<std::string>(std::begin(kCorridorEvents),
                                                std::end(kCorridorEvents));
            }};
}

enum class Presence {
    kOptional,
    kRequired,
    kAlways,  ///< The handler also runs when absent; it owns the message.
};

/// Document order follows the document's sorted keys (obs::Json objects
/// are std::maps); table order follows the rows. Each block keeps the
/// order it has always been checked in, so its first diagnostic is stable.
enum class Order { kTable, kDocument };

template <typename T>
using Handler = void (*)(const Json& value, const std::string& path,
                         T& target, Diag& diag);

/// Cross-field rule: the violation message, or nullptr.
template <typename T>
using Check = const char* (*)(const T& target);

template <typename T>
struct Field {
    const char* key;
    std::variant<bool T::*, double T::*, std::string T::*, std::size_t T::*,
                 std::uint8_t T::*, std::int64_t T::*, crypto::AuthMode T::*,
                 control::ControllerType T::*, CorridorKind T::*,
                 const Json* T::*, Handler<T>, Check<T>>
        target;
    double lo = 0.0;
    double hi = 0.0;
    std::int64_t int_lo = 0;
    std::int64_t int_hi = 0;
    Presence presence = Presence::kOptional;

    /// bool, string, name, raw JSON and handler rows.
    template <typename M>
    constexpr Field(const char* k, M member, Presence p = Presence::kOptional)
        : key(k), target(member), presence(p) {}
    constexpr Field(const char* k, double T::*member, double min, double max,
                    Presence p = Presence::kOptional)
        : key(k), target(member), lo(min), hi(max), presence(p) {}
    template <typename I>
        requires std::is_integral_v<I>
    constexpr Field(const char* k, I T::*member, std::int64_t min,
                    std::int64_t max, Presence p = Presence::kOptional)
        : key(k), target(member), int_lo(min), int_hi(max), presence(p) {}
    constexpr explicit Field(Check<T> check) : key(nullptr), target(check) {}
};

template <typename T, std::size_t N>
const Field<T>* find_field(const Field<T> (&table)[N],
                           const std::string& key) {
    for (const Field<T>& field : table)
        if (field.key != nullptr && key == field.key) return &field;
    return nullptr;
}

/// Rejects document keys outside the table (typo guard for the whole DSL).
template <typename T, std::size_t N>
void check_keys(const Json& object, const std::string& path,
                const Field<T> (&table)[N], Diag& diag) {
    for (const auto& [key, value] : object.as_object()) {
        (void)value;
        if (find_field(table, key) != nullptr) continue;
        std::vector<std::string> candidates;
        for (const Field<T>& field : table)
            if (field.key != nullptr) candidates.emplace_back(field.key);
        std::sort(candidates.begin(), candidates.end());
        diag.fail(path, "unknown key '" + key + "'" +
                            suggest(key, candidates) +
                            "; expected one of: " + join_names(candidates));
        return;
    }
}

template <typename T>
void apply_field(const Field<T>& field, const Json& value,
                 const std::string& path, T& target, Diag& diag) {
    std::visit(
        [&](auto member) {
            using M = decltype(member);
            if constexpr (std::is_same_v<M, Handler<T>>) {
                member(value, path, target, diag);
            } else if constexpr (!std::is_same_v<M, Check<T>>) {
                auto& slot = target.*member;
                using V = std::remove_reference_t<decltype(slot)>;
                if constexpr (std::is_same_v<V, bool>) {
                    want_bool(value, path, diag, &slot);
                } else if constexpr (std::is_same_v<V, double>) {
                    want_double(value, path, field.lo, field.hi, diag, &slot);
                } else if constexpr (std::is_same_v<V, std::string>) {
                    want_string(value, path, diag, &slot);
                } else if constexpr (std::is_same_v<V, const Json*>) {
                    slot = &value;
                } else if constexpr (std::is_enum_v<V>) {
                    std::string name;
                    if (!want_string(value, path, diag, &name)) return;
                    const Vocabulary<V> vocab = vocabulary(V{});
                    if (const auto found = vocab.lookup(name))
                        slot = *found;
                    else
                        fail_unknown_name(path, vocab.noun, name,
                                          vocab.names(), diag);
                } else {
                    std::int64_t n = 0;
                    if (want_int(value, path, field.int_lo, field.int_hi,
                                 diag, &n))
                        slot = static_cast<V>(n);
                }
            }
        },
        field.target);
}

/// Walks one JSON object through its table into `target`; false once a
/// diagnostic is set.
template <typename T, std::size_t N>
bool walk(const Json& object, const std::string& path,
          const Field<T> (&table)[N], T& target, Diag& diag, Order order,
          const char* not_object = "expected an object") {
    if (!object.is_object()) return diag.fail(path, not_object);
    check_keys(object, path, table, diag);
    // Top-level keys have bare paths ("seed"); nested ones are dotted.
    const std::string prefix = path == "$" ? "" : path + ".";
    if (order == Order::kDocument) {
        for (const auto& [key, value] : object.as_object()) {
            if (diag.failed) return false;
            apply_field(*find_field(table, key), value, prefix + key, target,
                        diag);
        }
        return !diag.failed;
    }
    for (const Field<T>& field : table) {
        if (diag.failed) return false;
        if (const auto* check = std::get_if<Check<T>>(&field.target)) {
            if (const char* why = (*check)(target)) diag.fail(path, why);
            continue;
        }
        const Json& value = object.at(field.key);
        if (!value.is_null() || field.presence == Presence::kAlways)
            apply_field(field, value, prefix + field.key, target, diag);
        else if (field.presence == Presence::kRequired)
            diag.fail(path, std::string("missing required key '") +
                                field.key + "'");
    }
    return !diag.failed;
}

/// Walks an array of objects into `out`, replacing its contents.
template <typename T, std::size_t N>
void walk_items(const Json& array, const std::string& path,
                const Field<T> (&table)[N], std::vector<T>& out, Diag& diag,
                const char* not_array, bool allow_empty) {
    if (!array.is_array() || (!allow_empty && array.as_array().empty())) {
        diag.fail(path, not_array);
        return;
    }
    const Json::Array& items = array.as_array();
    out.clear();
    for (std::size_t i = 0; i < items.size() && !diag.failed; ++i) {
        walk(items[i], path + "[" + std::to_string(i) + "]", table,
             out.emplace_back(), diag, Order::kTable);
    }
}

/// Parses a non-empty array axis item by item. A repeated value (after
/// "all" expansion) is an error: it would silently duplicate table rows.
template <typename T, typename Item>
std::vector<T> parse_axis(const Json& axis, const std::string& path,
                          const char* not_array, Item item, Diag& diag) {
    std::vector<T> out;
    if (!axis.is_array() || axis.as_array().empty()) {
        diag.fail(path, not_array);
        return out;
    }
    const Json::Array& items = axis.as_array();
    for (std::size_t i = 0; i < items.size() && !diag.failed; ++i)
        item(items[i], path + "[" + std::to_string(i) + "]", out);
    for (std::size_t i = 0; i < out.size() && !diag.failed; ++i)
        for (std::size_t j = i + 1; j < out.size(); ++j)
            if (out[i] == out[j])
                diag.fail(path, "duplicate axis entry (a repeated value "
                                "would silently duplicate table rows)");
    return out;
}

/// An axis of `known` names; "all" expands to `all`.
template <typename T, typename Lookup>
std::vector<T> parse_name_axis(const Json& axis, const std::string& path,
                               const std::vector<std::string>& known,
                               Lookup lookup, const std::vector<T>& all,
                               Diag& diag) {
    const auto item = [&](const Json& v, const std::string& at,
                          std::vector<T>& out) {
        std::string name;
        if (!want_string(v, at, diag, &name)) return;
        if (name == "all")
            out.insert(out.end(), all.begin(), all.end());
        else if (const std::optional<T> value = lookup(name))
            out.push_back(*value);
        else
            fail_unknown_name(at, "name", name, known, diag);
    };
    return parse_axis<T>(axis, path, "expected a non-empty array of names",
                         item, diag);
}

/// A name axis over plain strings.
std::vector<std::string> parse_string_axis(
    const Json& axis, const std::string& path,
    const std::vector<std::string>& known,
    const std::vector<std::string>& all, Diag& diag) {
    const auto lookup = [&](const std::string& name) {
        return std::find(known.begin(), known.end(), name) != known.end()
                   ? std::optional<std::string>(name)
                   : std::nullopt;
    };
    return parse_name_axis<std::string>(axis, path, known, lookup, all, diag);
}

// Rows several blocks share: same key, same range, same member name.
template <typename T>
constexpr Field<T> start_s_row() { return {"start_s", &T::start_s, 0.0, 1e6}; }
template <typename T>
constexpr Field<T> at_s_row(double T::*member, Presence p) {
    return {"at_s", member, 0.0, 1e6, p};
}
template <typename T>
constexpr Field<T> vehicle_index_row() {
    return {"vehicle_index", &T::vehicle_index, 0, 63, Presence::kRequired};
}
template <typename T>
constexpr Field<T> seeds_row(std::int64_t max) {
    return {"seeds", &T::seeds, 1, max};
}
template <typename T>
constexpr Field<T> overrides_row() { return {"overrides", &T::overrides}; }

// -----------------------------------------------------------------------
// Fault presets.

using Burst = fault::BurstLossParams;
using Crash = fault::NodeCrashParams;
using Dropout = fault::SensorDropoutParams;
using Drift = fault::ClockDriftParams;

const Field<Burst> kBurstLoss[] = {
    start_s_row<Burst>(),
    {"end_s", &Burst::end_s, 0.0, 1e18},
    {"mean_good_s", &Burst::mean_good_s, 1e-3, 1e6},
    {"mean_bad_s", &Burst::mean_bad_s, 1e-3, 1e6},
    {"loss_good", &Burst::loss_good, 0.0, 1.0},
    {"loss_bad", &Burst::loss_bad, 0.0, 1.0},
    Field<Burst>([](const Burst& p) -> const char* {
        return p.end_s <= p.start_s ? "end_s must be greater than start_s"
                                    : nullptr;
    }),
};

const Field<Crash> kCrash[] = {
    vehicle_index_row<Crash>(),
    at_s_row(&Crash::at_s, Presence::kOptional),
    {"down_s", &Crash::down_s, 1e-3, 1e6},
};

const Field<Dropout> kSensorDropout[] = {
    vehicle_index_row<Dropout>(),
    start_s_row<Dropout>(),
    {"duration_s", &Dropout::duration_s, 1e-3, 1e6},
};

const Field<Drift> kClockDrift[] = {
    vehicle_index_row<Drift>(),
    start_s_row<Drift>(),
    {"offset_s", &Drift::offset_s, -60.0, 60.0},
    {"drift_s_per_s", &Drift::drift_s_per_s, -1.0, 1.0},
};

template <auto Member, const auto& Table>
void fault_items(const Json& value, const std::string& path,
                 fault::FaultPlan& plan, Diag& diag) {
    walk_items(value, path, Table, plan.*Member, diag, "expected an array",
               /*allow_empty=*/true);
}

const Field<fault::FaultPlan> kFaultPlan[] = {
    {"burst_loss", fault_items<&fault::FaultPlan::burst_loss, kBurstLoss>},
    {"crashes", fault_items<&fault::FaultPlan::crashes, kCrash>},
    {"sensor_dropouts",
     fault_items<&fault::FaultPlan::sensor_dropouts, kSensorDropout>},
    {"clock_drifts",
     fault_items<&fault::FaultPlan::clock_drifts, kClockDrift>},
};

// -----------------------------------------------------------------------
// Stealth-frontier block (`overrides.stealth`, top-level only).

using Stealth = StealthOverrides;

/// One {"min", "max", "steps"} axis of the search box.
struct SearchAxis {
    double min = 0.0;
    double max = 0.0;
    std::size_t steps = 0;
};

template <double Stealth::*Min, double Stealth::*Max,
          std::size_t Stealth::*Steps, double Lo, double Hi>
void parse_search_axis(const Json& value, const std::string& path,
                       Stealth& stealth, Diag& diag) {
    const Field<SearchAxis> fields[] = {
        {"min", &SearchAxis::min, Lo, Hi},
        {"max", &SearchAxis::max, Lo, Hi},
        Field<SearchAxis>([](const SearchAxis& a) -> const char* {
            return a.max < a.min ? "max must be >= min" : nullptr;
        }),
        {"steps", &SearchAxis::steps, 1, 32},
    };
    SearchAxis axis{stealth.*Min, stealth.*Max, stealth.*Steps};
    walk(value, path, fields, axis, diag, Order::kTable,
         "expected an object {\"min\", \"max\", \"steps\"}");
    stealth.*Min = axis.min;
    stealth.*Max = axis.max;
    stealth.*Steps = axis.steps;
}

const Field<Stealth> kCem[] = {
    {"iterations", &Stealth::cem_iterations, 0, 32},
    {"population", &Stealth::cem_population, 2, 256},
    {"elites", &Stealth::cem_elites, 2, 256},
    Field<Stealth>([](const Stealth& s) -> const char* {
        return s.cem_elites > s.cem_population
                   ? "elites must not exceed population (the CEM refits on "
                     "the elite subset of each sampled population)"
                   : nullptr;
    }),
};

const Field<Stealth> kStealth[] = {
    {"injections",
     [](const Json& v, const std::string& at, Stealth& stealth, Diag& diag) {
         const std::vector<std::string> known = stealth_injection_names();
         stealth.injections = parse_string_axis(v, at, known, known, diag);
     },
     Presence::kRequired},
    {"victim_index", &Stealth::victim_index, 1, 63},
    start_s_row<Stealth>(),
    {"horizon_s", &Stealth::horizon_s, 1.0, 1e6},
    Field<Stealth>([](const Stealth& s) -> const char* {
        return s.horizon_s <= s.start_s
                   ? "horizon_s must be greater than start_s (the injection "
                     "window must fit inside the replication)"
                   : nullptr;
    }),
    {"amplitude",
     parse_search_axis<&Stealth::amplitude_min, &Stealth::amplitude_max,
                       &Stealth::amplitude_steps, 0.0, 100.0>},
    {"ramp", parse_search_axis<&Stealth::ramp_min, &Stealth::ramp_max,
                               &Stealth::ramp_steps, 0.0, 100.0>},
    {"duty", parse_search_axis<&Stealth::duty_min, &Stealth::duty_max,
                               &Stealth::duty_steps, 0.01, 1.0>},
    {"duty_period_s", &Stealth::duty_period_s, 0.1, 600.0},
    {"onset_max_s", &Stealth::onset_max_s, 0.0, 60.0},
    {"cem",
     [](const Json& v, const std::string& at, Stealth& stealth, Diag& diag) {
         walk(v, at, kCem, stealth, diag, Order::kTable);
     }},
    seeds_row<Stealth>(64),
};

// -----------------------------------------------------------------------
// Config overrides.

using Policy = security::SecurityPolicy;
using Config = core::ScenarioConfig;

const Field<Policy> kSecurity[] = {
    {"auth_mode", &Policy::auth_mode},
    {"encrypt_payloads", &Policy::encrypt_payloads},
    {"freshness_window_s", &Policy::freshness_window_s, 1e-3, 10.0},
    {"check_replay", &Policy::check_replay},
    {"pseudonym_rotation_s", &Policy::pseudonym_rotation_s, 0.0, 1e6},
    {"vpd_ada", &Policy::vpd_ada},
    {"trust_management", &Policy::trust_management},
    {"hybrid_comms", &Policy::hybrid_comms},
    {"sensor_fusion", &Policy::sensor_fusion},
    {"firewall", &Policy::firewall},
    {"antivirus", &Policy::antivirus},
    {"report_misbehavior", &Policy::report_misbehavior},
    {"join_rate_limit_s", &Policy::join_rate_limit_s, 0.0, 60.0},
};

// Corridor topology: extra platoons sharing the channel plus scripted
// traffic events between them (core::PlatoonSpec / core::CorridorEvent).

const Field<core::PlatoonSpec> kPlatoon[] = {
    {"size", &core::PlatoonSpec::size, 2, 99},
    {"start_offset_m", &core::PlatoonSpec::start_offset_m, -1e6, 1e6},
    {"lane", &core::PlatoonSpec::lane, 0, 7},
    {"speed_delta_mps", &core::PlatoonSpec::speed_delta_mps, -20.0, 20.0},
};

const Field<core::CorridorEvent> kCorridorEvent[] = {
    {"event", &core::CorridorEvent::kind, Presence::kRequired},
    at_s_row(&core::CorridorEvent::at, Presence::kRequired),
    {"platoon", &core::CorridorEvent::platoon, 0, 63},
    {"index", &core::CorridorEvent::index, 0, 98},
};

const Field<Config> kOverrides[] = {
    {"platoon_size", &Config::platoon_size, 2, 64},
    {"controller", &Config::controller},
    {"initial_speed_mps", &Config::initial_speed_mps, 1.0, 60.0},
    {"initial_gap_m", &Config::initial_gap_m, 0.5, 100.0},
    {"rsu_count", &Config::rsu_count, 0, 32},
    {"control_period_s", &Config::control_period_s, 1e-3, 1.0},
    {"beacon_period_s", &Config::beacon_period_s, 1e-3, 10.0},
    {"share_verify_verdicts", &Config::share_verify_verdicts},
    {"security",
     [](const Json& v, const std::string& at, Config& config, Diag& diag) {
         walk(v, at, kSecurity, config.security, diag, Order::kDocument);
     }},
    {"platoons",
     [](const Json& v, const std::string& at, Config& config, Diag& diag) {
         // corridor_node() packs platoon*100 + index below the attacker id
         // range (9001+); 63 platoons of 99 tops out at node 8399.
         if (v.is_array() && v.as_array().size() > 63)
             diag.fail(at, "at most 63 extra platoons fit the node-id space");
         else
             walk_items(v, at, kPlatoon, config.extra_platoons, diag,
                        "expected a non-empty array of platoon objects",
                        /*allow_empty=*/false);
     }},
    {"corridor",
     [](const Json& v, const std::string& at, Config& config, Diag& diag) {
         walk_items(v, at, kCorridorEvent, config.corridor, diag,
                    "expected a non-empty array of event objects",
                    /*allow_empty=*/false);
     }},
    {"stealth",
     [](const Json& v, const std::string& at, Config&, Diag& diag) {
         if (diag.stealth == nullptr)
             diag.fail(at, "stealth is only valid in the top-level overrides "
                           "block (the frontier search runs once per "
                           "description, not once per grid)");
         else
             walk(v, at, kStealth, diag.stealth->emplace(), diag,
                  Order::kTable);
     }},
};

// -----------------------------------------------------------------------
// Document, grids and axes.

using Presets = std::map<std::string, fault::FaultPlan>;

/// The top-level keys; `overrides` and `grids` are walked per grid.
struct Document {
    std::string name;
    std::string title;
    std::string profile = "eval";
    std::int64_t seed = 42;
    std::size_t seeds = 1;
    Presets presets;
    const Json* overrides = nullptr;
    const Json* grids = nullptr;
};

void parse_presets(const Json& v, const std::string& at, Document& doc,
                   Diag& diag) {
    if (!v.is_object()) {
        diag.fail(at, "expected an object");
        return;
    }
    for (const auto& [name, plan_doc] : v.as_object()) {
        const std::string plan_at = at + "." + name;
        fault::FaultPlan& plan = doc.presets[name];
        if (name == "none")
            diag.fail(at, "'none' is reserved for the fault-free slot");
        else if (walk(plan_doc, plan_at, kFaultPlan, plan, diag,
                      Order::kDocument) &&
                 plan.empty())
            diag.fail(plan_at, "fault preset defines no fault at all");
        if (diag.failed) return;
    }
}

const Field<Document> kDocument[] = {
    {"name",
     [](const Json& v, const std::string& at, Document& doc, Diag& diag) {
         if (!v.is_string() || v.as_string().empty())
             diag.fail(at, "required non-empty string");
         else
             doc.name = v.as_string();
     },
     Presence::kAlways},
    {"title", &Document::title},
    {"profile",
     [](const Json& v, const std::string& at, Document& doc, Diag& diag) {
         if (want_string(v, at, diag, &doc.profile) &&
             !base_profile(doc.profile, /*seed=*/0))
             fail_unknown_name(at, "profile", doc.profile, profile_names(),
                               diag);
     }},
    {"seed", &Document::seed, 0, std::numeric_limits<std::int64_t>::max()},
    seeds_row<Document>(1000),
    {"fault_presets", parse_presets},
    {"grids",
     [](const Json& v, const std::string& at, Document& doc, Diag& diag) {
         if (!v.is_array() || v.as_array().empty())
             diag.fail(at, "required non-empty array");
         else
             doc.grids = &v;
     },
     Presence::kAlways},
    overrides_row<Document>(),
};

struct Grid {
    std::vector<core::AttackKind> attacks;
    std::vector<bool> attacked{true};
    std::vector<core::DefenseKind> defenses{kNoDefense};
    std::vector<std::string> faults{"none"};
    std::size_t seeds = 1;
    const Json* overrides = nullptr;
    const Presets* presets = nullptr;
};

const Field<Grid> kAxes[] = {
    {"attacks",
     [](const Json& v, const std::string& at, Grid& grid, Diag& diag) {
         if (v.is_null())
             diag.fail(at, "required (use [\"all\"] for the full Table II "
                           "catalogue)");
         else
             grid.attacks = parse_name_axis(v, at, attack_names(),
                                            attack_from_name, all_attacks(),
                                            diag);
     },
     Presence::kAlways},
    {"attacked",
     [](const Json& v, const std::string& at, Grid& grid, Diag& diag) {
         const auto item = [&](const Json& flag, const std::string& flag_at,
                               std::vector<bool>& out) {
             bool b = false;
             if (want_bool(flag, flag_at, diag, &b)) out.push_back(b);
         };
         grid.attacked = parse_axis<bool>(
             v, at, "expected a non-empty array of booleans", item, diag);
     }},
    {"defenses",
     [](const Json& v, const std::string& at, Grid& grid, Diag& diag) {
         grid.defenses = parse_name_axis(v, at, defense_names(),
                                         defense_from_name, all_defenses(),
                                         diag);
     }},
    {"faults",
     [](const Json& v, const std::string& at, Grid& grid, Diag& diag) {
         // "all" = every declared preset (not "none").
         std::vector<std::string> known{"none"};
         for (const auto& entry : *grid.presets) known.push_back(entry.first);
         grid.faults = parse_string_axis(
             v, at, known, {known.begin() + 1, known.end()}, diag);
     }},
};

const Field<Grid> kGrid[] = {
    {"axes",
     [](const Json& v, const std::string& at, Grid& grid, Diag& diag) {
         walk(v, at, kAxes, grid, diag, Order::kTable, "required object");
     },
     Presence::kAlways},
    seeds_row<Grid>(1000),
    overrides_row<Grid>(),
};

// -----------------------------------------------------------------------
// Per-cell semantic checks: combinations that parse but cannot mean what
// the author intended.

bool check_cell(const CompiledCell& cell, const fault::FaultPlan& plan,
                const std::string& path, Diag& diag) {
    const Config& config = cell.config;
    if (config.security.encrypt_payloads &&
        config.security.auth_mode == crypto::AuthMode::kNone)
        return diag.fail(
            path,
            "incompatible combination: security.encrypt_payloads with "
            "auth_mode 'none' (encrypt-only -- a jammer or replayer passes "
            "unauthenticated); set security.auth_mode or use the "
            "'secret-and-public-keys' defense");
    if (!plan.clock_drifts.empty() &&
        config.security.auth_mode == crypto::AuthMode::kNone)
        return diag.fail(
            path, "incompatible combination: fault '" + cell.fault +
                      "' injects clock drift, but auth_mode 'none' never "
                      "checks timestamps, so the fault is a no-op; add "
                      "overrides.security.auth_mode (e.g. \"signature\")");
    const auto check_index = [&](std::size_t index, const char* kind) {
        if (index >= config.platoon_size)
            diag.fail(path, "fault '" + cell.fault + "': " + kind +
                                " vehicle_index " + std::to_string(index) +
                                " out of range for platoon_size " +
                                std::to_string(config.platoon_size));
    };
    for (const auto& c : plan.crashes) check_index(c.vehicle_index, "crash");
    for (const auto& d : plan.sensor_dropouts)
        check_index(d.vehicle_index, "sensor-dropout");
    for (const auto& d : plan.clock_drifts)
        check_index(d.vehicle_index, "clock-drift");
    if (diag.failed) return false;

    // Corridor events must point at platoons/vehicles/RSUs that exist once
    // every override has been merged.
    const std::size_t platoon_count = 1 + config.extra_platoons.size();
    for (std::size_t i = 0; i < config.corridor.size(); ++i) {
        const core::CorridorEvent& event = config.corridor[i];
        const std::string at = path + " corridor[" + std::to_string(i) + "]";
        if (event.platoon >= platoon_count)
            return diag.fail(at, "platoon " + std::to_string(event.platoon) +
                                     " out of range: the corridor has " +
                                     std::to_string(platoon_count) +
                                     " platoon(s) (0 = primary; add "
                                     "'platoons' overrides for more)");
        if (event.kind == CorridorKind::kMerge && event.platoon == 0)
            return diag.fail(at, "the primary platoon cannot merge into "
                                 "itself; pick an extra platoon (1..)");
        if (event.kind == CorridorKind::kSplit ||
            event.kind == CorridorKind::kCutIn) {
            const std::size_t size =
                event.platoon == 0
                    ? config.platoon_size
                    : config.extra_platoons[event.platoon - 1].size;
            if (event.index >= size)
                return diag.fail(at, "index " + std::to_string(event.index) +
                                         " out of range for platoon " +
                                         std::to_string(event.platoon) +
                                         " of size " + std::to_string(size));
        }
        if (event.kind == CorridorKind::kRsuHandoff &&
            event.index >= config.rsu_count)
            return diag.fail(at, "rsu-handoff to RSU " +
                                     std::to_string(event.index) +
                                     " but rsu_count is " +
                                     std::to_string(config.rsu_count) +
                                     "; raise overrides.rsu_count");
    }
    return true;
}

/// Appends grid `g`'s cells in the order the table benches pin:
/// defenses -> faults -> attacks -> attacked.
void append_cells(const Grid& grid, const Config& config,
                  const Presets& presets, std::size_t g,
                  const std::string& path, std::vector<CompiledCell>& cells,
                  Diag& diag) {
    const fault::FaultPlan no_faults{};
    for (const core::DefenseKind defense : grid.defenses) {
        for (const std::string& fault_name : grid.faults) {
            const bool none = fault_name == "none";
            const fault::FaultPlan& plan =
                none ? no_faults : presets.at(fault_name);
            for (const core::AttackKind attack : grid.attacks) {
                for (const bool with_attack : grid.attacked) {
                    CompiledCell cell{config,     attack,     with_attack,
                                      defense,    fault_name, grid.seeds, g};
                    scen::apply_defense(cell.config, defense);
                    if (!none) cell.config.faults = plan;
                    if (!check_cell(cell, plan, path, diag)) return;
                    cells.push_back(std::move(cell));
                }
            }
        }
    }
}

}  // namespace

std::vector<std::string> stealth_injection_names() {
    // Mirrors security::stealth::injection_names() (scen sits below
    // security in the layering DAG, so the list cannot be included); the
    // scen test suite pins the two lists equal.
    return {"gps-spoof", "sensor-spoof", "fake-maneuver"};
}

std::string coverage_key(core::AttackKind attack, core::DefenseKind defense,
                         std::string_view fault) {
    std::string key = core::to_string(attack);
    key += '|';
    key += defense_name(defense);
    key += '|';
    key += fault;
    return key;
}

std::string CompiledCell::coverage_key() const {
    return scen::coverage_key(attack, defense, fault);
}

std::optional<Compiled> compile(const obs::Json& doc, std::string* error) {
    Diag diag;
    Compiled out;
    Document top;
    walk(doc, "$", kDocument, top, diag, Order::kTable,
         "expected a top-level object");

    // The base profile plus the top-level overrides, built when the first
    // grid's axes have parsed; each grid copies it once and adds its own
    // overrides, and each cell copies the grid's config.
    std::optional<Config> base;
    const std::size_t grid_count =
        top.grids != nullptr ? top.grids->as_array().size() : 0;
    for (std::size_t g = 0; g < grid_count && !diag.failed; ++g) {
        const std::string gp = "grids[" + std::to_string(g) + "]";
        Grid grid;
        grid.seeds = top.seeds;
        grid.presets = &top.presets;
        if (!walk(top.grids->as_array()[g], gp, kGrid, grid, diag,
                  Order::kTable))
            break;
        if (!base) {
            base = base_profile(top.profile,
                                static_cast<std::uint64_t>(top.seed));
            diag.stealth = &out.stealth;
            if (top.overrides != nullptr)
                walk(*top.overrides, "overrides", kOverrides, *base, diag,
                     Order::kDocument);
            diag.stealth = nullptr;
        }
        Config config = *base;
        if (grid.overrides != nullptr && !diag.failed)
            walk(*grid.overrides, gp + ".overrides", kOverrides, config, diag,
                 Order::kDocument);
        if (!diag.failed)
            append_cells(grid, config, top.presets, g, gp, out.cells, diag);
    }

    // The stealth block names a victim by platoon index; every compiled
    // cell must actually contain that member once overrides merge.
    if (!diag.failed && out.stealth.has_value()) {
        for (const CompiledCell& cell : out.cells) {
            if (out.stealth->victim_index < cell.config.platoon_size)
                continue;
            diag.fail("overrides.stealth.victim_index",
                      "victim_index " +
                          std::to_string(out.stealth->victim_index) +
                          " out of range for platoon_size " +
                          std::to_string(cell.config.platoon_size));
            break;
        }
    }

    if (diag.failed) {
        if (error != nullptr) *error = diag.message;
        return std::nullopt;
    }
    out.description = {top.name, top.title, top.profile,
                       static_cast<std::uint64_t>(top.seed), grid_count};
    return out;
}

std::optional<Compiled> compile_file(const std::string& path,
                                     std::string* error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) *error = path + ": cannot open file";
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::optional<obs::Json> doc = obs::Json::parse(buffer.str());
    if (!doc) {
        if (error != nullptr)
            *error = path + ": not valid JSON (truncated input, a bad "
                            "escape, a duplicate key, or nesting beyond the "
                            "parser's depth limit)";
        return std::nullopt;
    }
    std::string inner;
    std::optional<Compiled> compiled = compile(*doc, &inner);
    if (!compiled && error != nullptr) *error = path + ": " + inner;
    return compiled;
}

const CompiledCell* find_cell(const std::vector<CompiledCell>& cells,
                              core::AttackKind attack, bool with_attack,
                              core::DefenseKind defense,
                              std::string_view fault) {
    for (const CompiledCell& cell : cells) {
        if (cell.attack == attack && cell.with_attack == with_attack &&
            cell.defense == defense && cell.fault == fault)
            return &cell;
    }
    return nullptr;
}

}  // namespace platoon::scen
