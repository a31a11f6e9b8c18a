// On-board systems security (paper Section VI-A.5): sensor fusion against
// GPS/radar spoofing, and firewall/antivirus hardening against malware.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/random.hpp"
#include "base/types.hpp"

namespace platoon::security {

/// Cross-checks GPS against dead reckoning (odometry-integrated position).
//
// The spoof signature the paper describes (Section V-G) is a *walk-off*: the
// attacker locks onto the receiver and slowly drags the reported position
// away. Dead reckoning drifts slowly and smoothly; a walking GPS offset
// shows up as a growing innovation between the GPS fix and the propagated
// estimate. When the innovation exceeds a gate, the fusion flags the GPS and
// serves dead-reckoned positions instead (bounded drift beats unbounded
// spoof).
class GpsFusion {
public:
    struct Params {
        double innovation_gate_m = 8.0;   ///< |gps - dead reckoning| limit.
        double drift_rate_m_per_s = 0.3;  ///< Assumed odometry drift growth.
        /// Time constant for anchoring dead reckoning to trusted GPS; slow,
        /// so the estimate stays independent enough to expose a walk-off.
        sim::SimTime anchor_tau_s = 20.0;
        sim::SimTime distrust_hold_s = 10.0;
    };

    GpsFusion();
    explicit GpsFusion(Params params) : params_(params) {}

    struct Output {
        double position_m;   ///< Fused (trusted) position.
        bool gps_trusted;
        bool spoof_detected; ///< True on the tick the alarm raises.
    };

    /// One fusion tick: `gps_position` is the (possibly spoofed) fix,
    /// `odo_speed` the wheel-odometry speed, `dt` the time since last tick.
    Output update(sim::SimTime now, double gps_position_m, double odo_speed_mps,
                  double dt);

    [[nodiscard]] std::uint64_t detections() const { return detections_; }
    [[nodiscard]] sim::SimTime first_detection() const {
        return first_detection_;
    }

private:
    Params params_;
    bool initialised_ = false;
    double estimate_m_ = 0.0;       ///< Dead-reckoned position.
    double drift_budget_m_ = 0.0;   ///< Allowed DR error since last anchor.
    sim::SimTime distrust_until_ = -1.0;
    std::uint64_t detections_ = 0;
    sim::SimTime first_detection_ = -1.0;
};

/// Cross-checks radar against (authenticated) beacon-claimed gaps: the dual
/// of VPD-ADA, used when the *radar* is the spoofed sensor.
class RadarFusion {
public:
    struct Params {
        /// |EWMA of (radar - beacon gap)| beyond this benches the radar.
        /// GPS noise puts ~2.1 m sigma on a single claimed-gap sample; the
        /// EWMA averages it to ~0.5 m, so 2.0 m is a ~4-sigma gate that
        /// still catches a constant 2.5 m phantom offset within ~1 s.
        double ewma_threshold_m = 2.0;
        double ewma_alpha = 0.12;  ///< Per beacon (10 Hz).
        sim::SimTime distrust_hold_s = 5.0;
    };

    RadarFusion();
    explicit RadarFusion(Params params) : params_(params) {}

    /// Returns true when radar should be distrusted at `now`. While the
    /// discrepancy persists, the distrust persists (no expiry mid-attack).
    bool update(sim::SimTime now, std::optional<double> radar_gap_m,
                std::optional<double> beacon_gap_m);
    [[nodiscard]] bool distrusted(sim::SimTime now) const {
        return now < distrust_until_;
    }
    [[nodiscard]] std::uint64_t detections() const { return detections_; }
    [[nodiscard]] double discrepancy_ewma() const { return ewma_; }

private:
    Params params_;
    double ewma_ = 0.0;
    sim::SimTime distrust_until_ = -1.0;
    std::uint64_t detections_ = 0;
};

/// Firewall + antivirus model gating malware infection attempts
/// (paper Section V-H / VI-A.5).
class OnboardHardening {
public:
    struct Params {
        bool firewall = false;
        bool antivirus = false;
        /// Probability the firewall blocks a wireless/media infection vector.
        double firewall_block_prob = 0.85;
        /// Mean time for the antivirus to detect & clean an infection.
        double antivirus_mean_clean_s = 8.0;
    };

    OnboardHardening();
    explicit OnboardHardening(Params params) : params_(params) {}

    enum class Vector : std::uint8_t { kObdPort, kMediaFile, kWireless };

    /// An infection attempt arrives over `vector`; returns true when the
    /// malware takes hold. Physical OBD access bypasses the firewall.
    bool attempt_infection(Vector vector, sim::RandomStream& rng);

    /// If infected and antivirus is on, returns the cleaning delay to
    /// schedule; nullopt when no cleanup will happen.
    [[nodiscard]] std::optional<double> cleanup_delay(sim::RandomStream& rng) const;

    [[nodiscard]] bool infected() const { return infected_; }
    void set_cleaned() { infected_ = false; }
    [[nodiscard]] std::uint64_t attempts() const { return attempts_; }
    [[nodiscard]] std::uint64_t blocked() const { return blocked_; }

private:
    Params params_;
    bool infected_ = false;
    std::uint64_t attempts_ = 0;
    std::uint64_t blocked_ = 0;
};

}  // namespace platoon::security
