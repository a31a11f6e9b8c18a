#include "phys/vehicle_dynamics.hpp"

#include <algorithm>

#include "base/assert.hpp"

namespace platoon::phys {

VehicleParams truck_params() {
    VehicleParams p;
    p.length_m = 12.0;
    p.max_accel_mps2 = 1.5;
    p.max_decel_mps2 = 5.0;
    p.max_speed_mps = 30.0;  // ~108 km/h
    p.actuation_lag_s = 0.5;
    p.mass_kg = 20000.0;
    return p;
}

VehicleDynamics::VehicleDynamics(VehicleParams params, VehicleState initial)
    : params_(params), state_(initial) {
    PLATOON_EXPECTS(params_.actuation_lag_s > 0.0);
    PLATOON_EXPECTS(params_.max_accel_mps2 > 0.0);
    PLATOON_EXPECTS(params_.max_decel_mps2 > 0.0);
    PLATOON_EXPECTS(params_.max_speed_mps > 0.0);
}

void VehicleDynamics::step(double dt) {
    PLATOON_EXPECTS(dt > 0.0);
    const double u = std::clamp(command_mps2_, -params_.max_decel_mps2,
                                params_.max_accel_mps2);
    // First-order lag toward the commanded acceleration.
    const double alpha = dt / params_.actuation_lag_s;
    state_.accel_mps2 += std::clamp(alpha, 0.0, 1.0) * (u - state_.accel_mps2);
    state_.accel_mps2 = std::clamp(state_.accel_mps2, -params_.max_decel_mps2,
                                   params_.max_accel_mps2);

    state_.position_m += state_.speed_mps * dt;
    state_.speed_mps += state_.accel_mps2 * dt;
    if (state_.speed_mps < 0.0) {
        // Vehicles do not reverse: clamp and kill deceleration.
        state_.speed_mps = 0.0;
        if (state_.accel_mps2 < 0.0) state_.accel_mps2 = 0.0;
    }
    if (state_.speed_mps > params_.max_speed_mps) {
        state_.speed_mps = params_.max_speed_mps;
        if (state_.accel_mps2 > 0.0) state_.accel_mps2 = 0.0;
    }
}

}  // namespace platoon::phys
