#include "control/fallback.hpp"

#include "base/assert.hpp"

namespace platoon::control {

const char* to_string(ControlMode m) {
    switch (m) {
        case ControlMode::kCacc: return "cacc";
        case ControlMode::kAccFallback: return "acc-fallback";
        case ControlMode::kCoast: return "coast";
        case ControlMode::kLeader: return "leader";
    }
    return "?";
}

ControllerStack::ControllerStack(
    std::unique_ptr<LongitudinalController> cacc, FallbackPolicy policy)
    : cacc_(std::move(cacc)), policy_(policy) {
    PLATOON_EXPECTS(cacc_ != nullptr);
}

double ControllerStack::compute(const ControlInputs& in, double dt) {
    const bool beacons_fresh =
        !quarantine_ && in.predecessor &&
        in.predecessor->age(in.now) <= policy_.beacon_timeout_s && in.leader &&
        in.leader->age(in.now) <= policy_.beacon_timeout_s;

    ControlMode next;
    if (beacons_fresh) {
        next = ControlMode::kCacc;
    } else if (in.radar_gap_m.has_value()) {
        next = ControlMode::kAccFallback;
    } else {
        next = ControlMode::kCoast;
    }
    if (next != mode_) {
        mode_ = next;
        if (mode_ == ControlMode::kCacc) cacc_->reset();
    }
    mode_time_[static_cast<int>(mode_)] += dt;

    switch (mode_) {
        case ControlMode::kCacc:
            return cacc_->compute(in, dt);
        case ControlMode::kAccFallback: {
            // Strip cooperative data so ACC runs on radar alone.
            ControlInputs radar_only = in;
            radar_only.predecessor.reset();
            radar_only.leader.reset();
            return acc_.compute(radar_only, dt);
        }
        case ControlMode::kCoast:
            return policy_.coast_decel_mps2;
        case ControlMode::kLeader:
            break;
    }
    PLATOON_ASSERT(false);
    return 0.0;
}

double ControllerStack::time_in_mode(ControlMode m) const {
    return mode_time_[static_cast<int>(m)];
}

double ControllerStack::cacc_availability() const {
    const double total = mode_time_[0] + mode_time_[1] + mode_time_[2];
    return total <= 0.0 ? 1.0 : mode_time_[0] / total;
}

}  // namespace platoon::control
