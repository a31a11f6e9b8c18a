// Longitudinal vehicle dynamics, Plexe-style.
//
// The model is the standard platooning abstraction (Rajamani; used by Plexe):
// a point mass on a straight lane whose realised acceleration `a` tracks the
// commanded acceleration `u` through a first-order actuation lag with time
// constant tau:
//
//     x' = v,   v' = a,   a' = (u - a) / tau
//
// integrated with forward Euler at a fixed small step (default 10 ms, the
// Plexe default). Acceleration and speed are clamped to physical limits.
#pragma once

#include <string>

#include "base/types.hpp"

namespace platoon::phys {

struct VehicleParams {
    double length_m = 4.0;          ///< Vehicle body length.
    double max_accel_mps2 = 2.5;    ///< Engine limit.
    double max_decel_mps2 = 6.0;    ///< Braking limit (positive number).
    double max_speed_mps = 44.0;    ///< ~160 km/h.
    double actuation_lag_s = 0.5;   ///< First-order engine lag tau.
    double mass_kg = 1500.0;
};

/// Truck preset used by the platooning scenarios (the paper's motivating
/// use-case is truck platooning [1]).
[[nodiscard]] VehicleParams truck_params();

struct VehicleState {
    double position_m = 0.0;  ///< Front-bumper position along the lane.
    double speed_mps = 0.0;
    double accel_mps2 = 0.0;  ///< Realised acceleration.
};

class VehicleDynamics {
public:
    explicit VehicleDynamics(VehicleParams params, VehicleState initial = {});

    /// Sets the commanded acceleration (clamped to limits on application).
    void set_command(double u_mps2) { command_mps2_ = u_mps2; }
    [[nodiscard]] double command() const { return command_mps2_; }

    /// Advances the dynamics by dt seconds (dt > 0).
    void step(double dt);

    [[nodiscard]] const VehicleState& state() const { return state_; }
    [[nodiscard]] const VehicleParams& params() const { return params_; }
    [[nodiscard]] double position() const { return state_.position_m; }
    [[nodiscard]] double speed() const { return state_.speed_mps; }
    [[nodiscard]] double accel() const { return state_.accel_mps2; }
    [[nodiscard]] double length() const { return params_.length_m; }

    /// Teleports the vehicle (used for scenario setup only).
    void reset(VehicleState s) { state_ = s; }

private:
    VehicleParams params_;
    VehicleState state_;
    double command_mps2_ = 0.0;
};

}  // namespace platoon::phys
