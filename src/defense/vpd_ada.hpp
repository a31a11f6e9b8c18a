// VPD-ADA: Vehicle Platooning Disruption Attack Detection Algorithm.
//
// Implements the control-algorithm defense of Bermad et al. [10] as cited by
// the paper (Section VI-A.3): each vehicle periodically cross-checks the
// positional information claimed in beacons against its own independent
// sensing (radar/LiDAR gap to the predecessor). A sustained discrepancy
// means the beacon stream is lying (replay, Sybil ghost, FDI insider, GPS
// spoofed neighbour); the mitigation is to quarantine beacon data and fall
// back to radar-only ACC, bounding the attack's effect on the platoon.
#pragma once

#include <cstdint>
#include <optional>

#include "base/types.hpp"

namespace platoon::security {

class VpdAdaDetector {
public:
    struct Params {
        /// |radar gap - beacon-claimed gap| beyond this is a strike.
        double gap_threshold_m = 4.0;
        /// |radar closing speed - beacon-claimed closing| beyond this is a
        /// strike (catches replayed dynamics whose position still matches).
        double speed_threshold_mps = 1.5;
        /// Consecutive strikes before declaring an attack.
        int strikes_to_detect = 4;
        /// How long beacons stay quarantined after a detection.
        sim::SimTime quarantine_s = 3.0;
    };

    VpdAdaDetector();
    explicit VpdAdaDetector(Params params) : params_(params) {}

    /// One detector tick (call at control or beacon rate). Either
    /// measurement may be missing (radar blinded, no beacon yet): missing
    /// data yields no strike but also no recovery credit.
    /// Returns true when this tick *triggered* a new detection.
    bool update(sim::SimTime now, std::optional<double> radar_gap_m,
                std::optional<double> beacon_gap_m,
                std::optional<double> radar_closing_mps = std::nullopt,
                std::optional<double> beacon_closing_mps = std::nullopt);

    /// Whether beacon data should currently be distrusted.
    [[nodiscard]] bool quarantined(sim::SimTime now) const;

    [[nodiscard]] std::uint64_t detections() const { return detections_; }
    [[nodiscard]] sim::SimTime first_detection() const {
        return first_detection_;
    }
    [[nodiscard]] int strikes() const { return strikes_; }
    [[nodiscard]] const Params& params() const { return params_; }

private:
    Params params_;
    int strikes_ = 0;
    std::uint64_t detections_ = 0;
    sim::SimTime quarantine_until_ = -1.0;
    sim::SimTime first_detection_ = -1.0;
};

}  // namespace platoon::security
