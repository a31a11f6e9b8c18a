// Benign-fault models: the non-malicious degradation any deployed platoon
// must ride out (paper Section IV distinguishes malicious disruption from
// ordinary channel and node faults; Section VI-B asks for an executable
// suite that can tell the two apart).
//
// A FaultPlan is a first-class scenario component (core::ScenarioConfig
// carries one): every fault schedule is derived from the scenario master
// seed through named sim::RandomStream instances, so a faulted run is
// bit-identical at any PLATOON_JOBS count and adding a fault never perturbs
// the draws of existing consumers.
#pragma once

#include <cstddef>
#include <vector>

#include "net/channel.hpp"
#include "base/types.hpp"

namespace platoon::fault {

/// Time-correlated burst packet loss: a Gilbert-Elliott two-state channel
/// (Good/Bad with exponential sojourn times) layered onto net::Network
/// delivery. Models rain fade, underpasses and dense-interference episodes
/// -- the benign twin of the jamming attack.
struct BurstLossParams {
    sim::SimTime start_s = 0.0;
    sim::SimTime end_s = 1e18;       ///< Fault window (absolute sim time).
    double mean_good_s = 2.0;        ///< Mean sojourn in the Good state.
    double mean_bad_s = 0.3;         ///< Mean sojourn in the Bad state.
    double loss_good = 0.0;          ///< Per-delivery drop prob. when Good.
    double loss_bad = 0.9;           ///< Per-delivery drop prob. when Bad.
    net::Band band = net::Band::kDsrc;
};

/// Node crash/silence: the comms stack of one platoon member goes down for a
/// recovery window (ECU reboot, antenna fault). The vehicle keeps driving --
/// its CACC degrades through the normal fallback ladder -- and is never
/// marked compromised(): silence is a fault, not an attack.
struct NodeCrashParams {
    std::size_t vehicle_index = 0;   ///< Platoon slot (0 = leader).
    sim::SimTime at_s = 0.0;         ///< Crash instant.
    double down_s = 10.0;            ///< Silence duration before recovery.
};

/// Sensor dropout: GPS and radar reads are suspended, so the CACC input and
/// the vehicle's own beacons go stale (the position claim freezes while the
/// vehicle moves on). Honest staleness looks exactly like a crude position
/// lie to plausibility gates -- the false-alarm surface Table V measures.
struct SensorDropoutParams {
    std::size_t vehicle_index = 0;
    sim::SimTime start_s = 0.0;
    double duration_s = 5.0;
};

/// Per-node clock drift on beacon timestamps: from `start_s` the node stamps
/// its envelopes with t + offset_s + drift_s_per_s * (t - start_s). Under a
/// signed policy the receivers' freshness window rejects honest-but-late
/// beacons once the skew exceeds it (the benign twin of a replay attack).
struct ClockDriftParams {
    std::size_t vehicle_index = 0;
    sim::SimTime start_s = 0.0;
    double offset_s = 0.0;           ///< Initial step offset.
    double drift_s_per_s = 0.0;      ///< Skew rate (seconds per second).
};

struct FaultPlan {
    std::vector<BurstLossParams> burst_loss;
    std::vector<NodeCrashParams> crashes;
    std::vector<SensorDropoutParams> sensor_dropouts;
    std::vector<ClockDriftParams> clock_drifts;

    [[nodiscard]] bool empty() const {
        return burst_loss.empty() && crashes.empty() &&
               sensor_dropouts.empty() && clock_drifts.empty();
    }
};

}  // namespace platoon::fault
