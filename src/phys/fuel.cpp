#include "phys/fuel.hpp"

#include <algorithm>
#include <cmath>

#include "base/assert.hpp"

namespace platoon::phys {

double drag_fraction(double gap_m) {
    PLATOON_EXPECTS(gap_m >= 0.0);
    // 1 - 0.5 * exp(-gap/12): 0.52 at 1 m, 0.67 at 5 m, 0.86 at 25 m, -> 1.
    return 1.0 - 0.5 * std::exp(-gap_m / 12.0);
}

double FuelModel::rate_mlps(double v_mps, double a_mps2,
                            double drag_frac) const {
    PLATOON_EXPECTS(v_mps >= 0.0);
    PLATOON_EXPECTS(drag_frac >= 0.0 && drag_frac <= 1.0);
    const double aero = params_.drag_coeff * drag_frac * v_mps * v_mps * v_mps;
    const double rolling = params_.rolling_coeff * v_mps;
    // Only positive tractive power burns extra fuel; braking does not refund.
    const double tractive =
        params_.accel_coeff * std::max(0.0, a_mps2) * v_mps;
    return params_.idle_rate_mlps + aero + rolling + tractive;
}

void FuelModel::accumulate(double v_mps, double a_mps2, double drag_frac,
                           double dt) {
    PLATOON_EXPECTS(dt > 0.0);
    total_ml_ += rate_mlps(v_mps, a_mps2, drag_frac) * dt;
    distance_m_ += v_mps * dt;
}

double FuelModel::litres_per_100km() const {
    if (distance_m_ <= 0.0) return 0.0;
    const double litres = total_ml_ / 1000.0;
    return litres / (distance_m_ / 100000.0);
}

}  // namespace platoon::phys
