// Scenario: builds and runs one complete simulated world -- scheduler,
// network, trusted authority, RSUs, a platoon of PlatoonVehicles with the
// configured controller and security policy, leader speed profile, and the
// metrics sampler. Attacks attach to a built Scenario (they are external
// actors), defenses are switched on through the SecurityPolicy.
#pragma once

#include <memory>
#include <vector>

#include "core/metrics.hpp"
#include "core/vehicle.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "rsu/rsu.hpp"
#include "rsu/trusted_authority.hpp"
#include "sim/scheduler.hpp"

namespace platoon::core {

struct SpeedStep {
    sim::SimTime at;
    double speed_mps;
};

/// One additional platoon sharing the corridor and the channel. The primary
/// platoon is described by the top-level ScenarioConfig fields; extra
/// platoon `p` (1-based) gets platoon id 1+p and node ids 2000 + p*100 + i,
/// so up to 100 vehicles per platoon never collide with the primary platoon
/// (100+i), joiners (300), RSUs (1000+i) or attackers (9001+).
struct PlatoonSpec {
    std::size_t size = 8;
    /// Leader start relative to the primary leader (negative = behind).
    double start_offset_m = -500.0;
    std::uint8_t lane = 0;
    /// Added to the primary initial/desired speed (and to every speed
    /// profile step this platoon's leader follows).
    double speed_delta_mps = 0.0;
};

/// Scripted corridor traffic event, applied at an absolute sim time. Events
/// model the *outcome* of a maneuver where no on-wire protocol exists
/// (merge, cut-in, handoff); splits go through the real kSplitRequest
/// maneuver so the survey's maneuver attack surface stays exercised.
struct CorridorEvent {
    enum class Kind {
        kMerge,      ///< Platoon `platoon` merges into the primary platoon.
        kSplit,      ///< Leader of `platoon` splits it at vehicle `index`.
        kCutIn,      ///< Vehicle `index` of `platoon` cuts into the primary lane.
        kRsuHandoff  ///< Platoon `platoon` re-homes reports to RSU `index`.
    };
    Kind kind = Kind::kMerge;
    sim::SimTime at = 10.0;
    std::size_t platoon = 1;  ///< 0 = primary, 1.. = extra_platoons entry.
    std::size_t index = 0;    ///< Vehicle slot (kSplit/kCutIn), RSU slot (kRsuHandoff).
};

struct ScenarioConfig {
    std::uint64_t seed = 42;
    std::size_t platoon_size = 8;
    control::ControllerType controller = control::ControllerType::kCaccPath;
    double initial_speed_mps = 25.0;
    double initial_gap_m = 5.0;
    double leader_start_m = 2000.0;
    security::SecurityPolicy security;
    net::Network::Params network;
    control::AdmissionControl::Params admission;
    /// Leader speed profile (a braking/re-acceleration disturbance excites
    /// string-stability problems; defaults below).
    std::vector<SpeedStep> speed_profile = {
        {0.0, 25.0}, {40.0, 20.0}, {60.0, 25.0}};
    MetricsParams metrics;
    /// Benign faults (burst loss, node crash, sensor dropout, clock drift)
    /// injected at build time as first-class scenario components. Empty by
    /// default: a fault-free scenario constructs no injector and consumes
    /// no randomness, so adding this field changes nothing downstream.
    fault::FaultPlan faults;
    std::size_t rsu_count = 0;
    double rsu_spacing_m = 1000.0;
    bool rsus_require_signatures = false;
    /// Share receiver-independent verification facts (signature / cert /
    /// group-MAC validity) across all receivers through one bounded
    /// deterministic VerdictCache. Affects cost and the crypto.verify.*
    /// counter split only -- verdicts are bit-identical either way (the
    /// differential fast-path suite pins this). Off = every receiver
    /// verifies independently.
    bool share_verify_verdicts = true;
    sim::SimTime control_period_s = 0.01;
    sim::SimTime beacon_period_s = 0.1;
    /// Extra platoons sharing the corridor (empty = classic single-platoon
    /// scenario, bit-identical to the pre-multi-platoon codebase) and the
    /// scripted traffic events between them.
    std::vector<PlatoonSpec> extra_platoons;
    std::vector<CorridorEvent> corridor;
};

class Scenario {
public:
    explicit Scenario(ScenarioConfig config);
    ~Scenario();
    Scenario(const Scenario&) = delete;
    Scenario& operator=(const Scenario&) = delete;

    /// Advances the simulation to absolute time `until` (seconds).
    void run_until(sim::SimTime until);

    /// --- access -----------------------------------------------------------
    [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
    [[nodiscard]] net::Network& network() { return *network_; }
    [[nodiscard]] rsu::TrustedAuthority& authority() { return *authority_; }
    [[nodiscard]] const ScenarioConfig& config() const { return config_; }
    [[nodiscard]] PlatoonMetrics& metrics() { return metrics_; }
    /// Fault injector, or nullptr when the config's FaultPlan is empty.
    [[nodiscard]] fault::Injector* faults() { return fault_injector_.get(); }
    [[nodiscard]] std::uint64_t seed() const { return config_.seed; }

    [[nodiscard]] std::size_t vehicle_count() const { return vehicles_.size(); }
    [[nodiscard]] PlatoonVehicle& vehicle(std::size_t index);
    [[nodiscard]] PlatoonVehicle* find(sim::NodeId id);
    [[nodiscard]] PlatoonVehicle& leader() { return vehicle(0); }
    [[nodiscard]] PlatoonVehicle& tail();
    [[nodiscard]] std::vector<rsu::RsuNode*> rsus();

    /// Node id of platoon slot `index` (0 = leader).
    [[nodiscard]] static sim::NodeId platoon_node(std::size_t index) {
        return sim::NodeId{100u + static_cast<std::uint32_t>(index)};
    }
    [[nodiscard]] std::uint32_t platoon_id() const { return 1; }

    /// --- corridor topology --------------------------------------------------
    /// Platoon 0 is the primary platoon; 1.. index config().extra_platoons.
    [[nodiscard]] std::size_t platoon_count() const {
        return 1 + config_.extra_platoons.size();
    }
    [[nodiscard]] std::size_t platoon_size(std::size_t platoon) const;
    /// Node id of slot `index` in corridor platoon `platoon`.
    [[nodiscard]] static sim::NodeId corridor_node(std::size_t platoon,
                                                   std::size_t index) {
        if (platoon == 0) return platoon_node(index);
        return sim::NodeId{2000u + static_cast<std::uint32_t>(platoon) * 100u +
                           static_cast<std::uint32_t>(index)};
    }
    [[nodiscard]] PlatoonVehicle& corridor_vehicle(std::size_t platoon,
                                                   std::size_t index);

    /// Adds an extra vehicle (joiner, attacker platform, ...) and starts it.
    /// Security material is provisioned per the vehicle's own policy.
    PlatoonVehicle& add_vehicle(VehicleConfig config);

    /// Enrolls `id` with the TA and returns its credentials (used to model
    /// credential theft: the attacker is handed a copy).
    rsu::TrustedAuthority::Enrollment enroll(sim::NodeId id);

    /// The shared platoon group key (empty unless group-MAC/encryption on).
    [[nodiscard]] const crypto::Bytes& group_key() const { return group_key_; }

    /// Summarizes the run so far.
    [[nodiscard]] MetricsSummary summarize() const {
        return metrics_.summarize(network_->stats());
    }

private:
    void provision(PlatoonVehicle& vehicle, const security::SecurityPolicy& policy);
    void install_radar_resolver(PlatoonVehicle& vehicle);
    void establish_pairwise_keys();
    void build_extra_platoons();
    void apply_corridor_event(const CorridorEvent& event);
    /// Per-lane sorted radar snapshot (multi-platoon scenarios only): the
    /// brute target scan is O(vehicles) per 100 Hz control step, O(n^2)
    /// corridor-wide. The snapshot refreshes every kRadarCachePeriod of sim
    /// time; candidate selection re-checks exact fresh positions inside a
    /// slack-widened window, so only target *association* latency is
    /// bounded by the period, never the measured gap.
    struct RadarCacheEntry {
        double rear_m = 0.0;  ///< Stale rear-bumper position at build time.
        PlatoonVehicle* vehicle = nullptr;
    };
    struct RadarCache {
        sim::SimTime built_at = -1e18;
        std::vector<std::vector<RadarCacheEntry>> lanes;  // indexed by lane
    };
    const phys::VehicleDynamics* resolve_radar_target_indexed(
        const PlatoonVehicle& self);

    ScenarioConfig config_;
    sim::Scheduler scheduler_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<rsu::TrustedAuthority> authority_;
    /// Shared verification-fact cache; null when share_verify_verdicts is
    /// off. Declared before vehicles_/rsus_ so it outlives every
    /// MessageProtection holding a pointer to it.
    std::unique_ptr<crypto::VerdictCache> verdict_cache_;
    std::vector<std::unique_ptr<PlatoonVehicle>> vehicles_;
    std::vector<std::unique_ptr<rsu::RsuNode>> rsus_;
    /// Declared after network_ and vehicles_: its destructor uninstalls the
    /// network fault hook, so it must die first.
    std::unique_ptr<fault::Injector> fault_injector_;
    PlatoonMetrics metrics_;
    crypto::Bytes group_key_;
    sim::RandomStream scenario_rng_;
    /// (first vehicles_ index, size) per corridor platoon; entry 0 is the
    /// primary platoon. Single-entry when extra_platoons is empty.
    std::vector<std::pair<std::size_t, std::size_t>> platoon_spans_;
    RadarCache radar_cache_;
};

}  // namespace platoon::core
