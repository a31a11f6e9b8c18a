// Longitudinal controllers for platooning, following Plexe's catalogue:
//
//  - SpeedController: leader cruise control tracking a desired speed.
//  - AccController: constant time-gap Adaptive Cruise Control (radar only;
//    the degraded/fallback mode and the non-cooperative baseline).
//  - PathCaccController: the PATH/Rajamani constant-spacing CACC that Plexe
//    ships as its default -- consumes predecessor AND leader beacons.
//  - PloegCaccController: Ploeg et al.'s time-gap CACC with acceleration
//    feedforward from the predecessor beacon.
//
// Controllers are pure: they map ControlInputs to a commanded acceleration.
// What data reaches them (radar vs beacons, fresh vs stale vs forged) is the
// attack surface this repository studies, so the inputs carry explicit
// freshness and availability.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "base/types.hpp"

namespace platoon::control {

/// Data a vehicle knows about another platoon vehicle (from its beacons).
struct PeerState {
    double position_m = 0.0;   ///< Front-bumper position (claimed).
    double speed_mps = 0.0;
    double accel_mps2 = 0.0;
    double length_m = 4.0;
    sim::SimTime received_at = -1.0;  ///< When the beacon arrived.

    [[nodiscard]] double age(sim::SimTime now) const {
        return now - received_at;
    }
};

struct ControlInputs {
    sim::SimTime now = 0.0;
    double own_position_m = 0.0;  ///< From GPS (spoofable!).
    double own_speed_mps = 0.0;
    double own_accel_mps2 = 0.0;
    double desired_speed_mps = 25.0;           ///< Leader target.
    std::optional<double> radar_gap_m;         ///< Bumper-to-bumper.
    std::optional<double> radar_closing_mps;   ///< Positive = approaching.
    std::optional<PeerState> predecessor;      ///< From beacons.
    std::optional<PeerState> leader;           ///< From beacons.
};

class LongitudinalController {
public:
    virtual ~LongitudinalController() = default;

    /// Commanded acceleration (m/s^2), clamped by the vehicle afterwards.
    virtual double compute(const ControlInputs& in, double dt) = 0;

    /// Human-readable controller name (for traces / reports).
    [[nodiscard]] virtual std::string name() const = 0;

    /// Resets internal state (used when switching controllers).
    virtual void reset() {}
};

/// Leader cruise control: proportional speed tracking.
class SpeedController final : public LongitudinalController {
public:
    explicit SpeedController(double gain = 0.8) : gain_(gain) {}
    double compute(const ControlInputs& in, double dt) override;
    [[nodiscard]] std::string name() const override { return "speed"; }

private:
    double gain_;
};

struct AccParams {
    double time_gap_s = 1.2;
    double lambda = 0.1;
    double min_gap_m = 2.0;
    double free_flow_gain = 0.8;  ///< Speed tracking when no target ahead.
};

/// Constant time-gap ACC (Rajamani ch. 6): u = -(1/h)(edot + lambda e).
class AccController final : public LongitudinalController {
public:
    explicit AccController(AccParams params = {}) : params_(params) {}
    double compute(const ControlInputs& in, double dt) override;
    [[nodiscard]] std::string name() const override { return "acc"; }
    [[nodiscard]] const AccParams& params() const { return params_; }

private:
    AccParams params_;
};

struct PathCaccParams {
    double spacing_m = 5.0;   ///< Constant bumper-to-bumper gap.
    double c1 = 0.5;          ///< Leader weighting.
    double xi = 1.0;          ///< Damping.
    double omega_n = 0.2;     ///< Bandwidth (rad/s).
};

/// PATH constant-spacing CACC (Plexe default). Needs predecessor gap (radar
/// preferred, beacon fallback), predecessor speed/accel and leader
/// speed/accel from beacons.
class PathCaccController final : public LongitudinalController {
public:
    explicit PathCaccController(PathCaccParams params = {})
        : params_(params) {}
    double compute(const ControlInputs& in, double dt) override;
    [[nodiscard]] std::string name() const override { return "cacc-path"; }
    [[nodiscard]] const PathCaccParams& params() const { return params_; }
    /// Runtime spacing override (gap-open maneuvers and attacks change it).
    void set_spacing(double spacing_m) { params_.spacing_m = spacing_m; }
    [[nodiscard]] double spacing() const { return params_.spacing_m; }

private:
    PathCaccParams params_;
};

struct PloegParams {
    /// Must exceed ~2x the vehicle actuation lag for string stability
    /// (Ploeg et al. 2011); trucks here have tau = 0.5 s. kd is raised
    /// above Ploeg's 0.7 because beacons carry *realised* (lagged)
    /// acceleration rather than the commanded value the original protocol
    /// feeds forward; the extra damping restores the stability margin.
    double time_gap_s = 1.1;
    double standstill_m = 2.0;
    double kp = 0.2;
    double kd = 1.2;
};

/// Ploeg et al. CACC: time-gap policy with feedforward of the predecessor's
/// acceleration through a first-order filter (internal controller state).
class PloegCaccController final : public LongitudinalController {
public:
    explicit PloegCaccController(PloegParams params = {}) : params_(params) {}
    double compute(const ControlInputs& in, double dt) override;
    [[nodiscard]] std::string name() const override { return "cacc-ploeg"; }
    void reset() override { u_state_ = 0.0; }

private:
    PloegParams params_;
    double u_state_ = 0.0;
};

enum class ControllerType { kSpeed, kAcc, kCaccPath, kCaccPloeg };

[[nodiscard]] const char* to_string(ControllerType t);
[[nodiscard]] std::unique_ptr<LongitudinalController> make_controller(
    ControllerType type);

}  // namespace platoon::control
