#include "control/controller.hpp"

#include <algorithm>
#include <cmath>

#include "base/assert.hpp"

namespace platoon::control {

double SpeedController::compute(const ControlInputs& in, double /*dt*/) {
    return gain_ * (in.desired_speed_mps - in.own_speed_mps);
}

double AccController::compute(const ControlInputs& in, double /*dt*/) {
    // Gap source preference: radar; beacon-derived as fallback.
    std::optional<double> gap = in.radar_gap_m;
    std::optional<double> closing = in.radar_closing_mps;
    if (!gap && in.predecessor) {
        gap = in.predecessor->position_m - in.predecessor->length_m -
              in.own_position_m;
        closing = in.own_speed_mps - in.predecessor->speed_mps;
    }
    if (!gap) {
        // Free flow: behave like cruise control.
        return params_.free_flow_gain *
               (in.desired_speed_mps - in.own_speed_mps);
    }
    // Spacing error: e = -(gap) + min_gap + h*v  (positive = too close).
    const double e =
        params_.min_gap_m + params_.time_gap_s * in.own_speed_mps - *gap;
    const double edot = closing.value_or(0.0);
    const double u = -(edot + params_.lambda * e) / params_.time_gap_s;
    // Never accelerate past what cruise control would command (standard
    // ACC arbitration: the more conservative of gap and speed control).
    const double cruise =
        params_.free_flow_gain * (in.desired_speed_mps - in.own_speed_mps);
    return std::min(u, cruise);
}

double PathCaccController::compute(const ControlInputs& in, double /*dt*/) {
    if (!in.predecessor || !in.leader) {
        // CACC cannot run without cooperation data; the caller's degradation
        // policy should not reach this branch, but fail safe (coast).
        return 0.0;
    }
    const PeerState& pred = *in.predecessor;
    const PeerState& lead = *in.leader;

    // Gap: radar when available, else beacon positions.
    const double gap = in.radar_gap_m
                           ? *in.radar_gap_m
                           : pred.position_m - pred.length_m -
                                 in.own_position_m;

    const double xi = params_.xi;
    const double wn = params_.omega_n;
    const double c1 = params_.c1;
    const double root = std::sqrt(std::max(0.0, xi * xi - 1.0));
    const double alpha1 = 1.0 - c1;
    const double alpha2 = c1;
    const double alpha3 = -(2.0 * xi - c1 * (xi + root)) * wn;
    const double alpha4 = -(xi + root) * wn * c1;
    const double alpha5 = -wn * wn;

    // e = desired_spacing - gap  (positive = too close).
    const double e = params_.spacing_m - gap;
    // Gap-closing mode (Plexe's FAKED_CACC): the linear constant-spacing
    // law is a small-perturbation tracker; far behind the slot it would
    // close a large deficit at ~omega_n^2 pace. Catch up by speed instead.
    if (-e > 10.0) {
        const double target_speed =
            pred.speed_mps + std::min(5.0, -e * 0.08);
        return 0.8 * (target_speed - in.own_speed_mps);
    }
    const double edot = in.radar_closing_mps
                            ? *in.radar_closing_mps
                            : in.own_speed_mps - pred.speed_mps;

    return alpha1 * pred.accel_mps2 + alpha2 * lead.accel_mps2 +
           alpha3 * edot + alpha4 * (in.own_speed_mps - lead.speed_mps) +
           alpha5 * e;
}

double PloegCaccController::compute(const ControlInputs& in, double dt) {
    if (!in.predecessor) return 0.0;
    const PeerState& pred = *in.predecessor;
    const double gap = in.radar_gap_m
                           ? *in.radar_gap_m
                           : pred.position_m - pred.length_m -
                                 in.own_position_m;

    // Spacing error (positive = too far): e = gap - (r + h*v).
    const double e =
        gap - (params_.standstill_m + params_.time_gap_s * in.own_speed_mps);
    const double edot = (pred.speed_mps - in.own_speed_mps) -
                        params_.time_gap_s * in.own_accel_mps2;

    // u' = (-u + kp*e + kd*edot + u_{i-1}) / h  (first-order feedforward).
    const double du = (-u_state_ + params_.kp * e + params_.kd * edot +
                       pred.accel_mps2) /
                      params_.time_gap_s;
    u_state_ += du * dt;
    u_state_ = std::clamp(u_state_, -8.0, 4.0);
    return u_state_;
}

const char* to_string(ControllerType t) {
    switch (t) {
        case ControllerType::kSpeed: return "speed";
        case ControllerType::kAcc: return "acc";
        case ControllerType::kCaccPath: return "cacc-path";
        case ControllerType::kCaccPloeg: return "cacc-ploeg";
    }
    return "?";
}

std::unique_ptr<LongitudinalController> make_controller(ControllerType type) {
    switch (type) {
        case ControllerType::kSpeed: return std::make_unique<SpeedController>();
        case ControllerType::kAcc: return std::make_unique<AccController>();
        case ControllerType::kCaccPath:
            return std::make_unique<PathCaccController>();
        case ControllerType::kCaccPloeg:
            return std::make_unique<PloegCaccController>();
    }
    PLATOON_ASSERT(false);
    return nullptr;
}

}  // namespace platoon::control
