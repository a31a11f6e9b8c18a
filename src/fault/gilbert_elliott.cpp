#include "fault/gilbert_elliott.hpp"

#include "base/assert.hpp"

namespace platoon::fault {

GilbertElliott::GilbertElliott(BurstLossParams params,
                               std::uint64_t master_seed,
                               std::string_view stream_name)
    : params_(params), rng_(master_seed, stream_name) {
    PLATOON_EXPECTS(params_.mean_good_s > 0.0);
    PLATOON_EXPECTS(params_.mean_bad_s > 0.0);
    PLATOON_EXPECTS(params_.end_s >= params_.start_s);
    next_transition_ =
        params_.start_s + rng_.exponential(1.0 / params_.mean_good_s);
}

void GilbertElliott::advance_to(sim::SimTime t) {
    while (next_transition_ <= t) {
        bad_ = !bad_;
        const double mean = bad_ ? params_.mean_bad_s : params_.mean_good_s;
        next_transition_ += rng_.exponential(1.0 / mean);
    }
}

bool GilbertElliott::bad_at(sim::SimTime t) {
    if (t < params_.start_s) return false;
    advance_to(t);
    return bad_;
}

bool GilbertElliott::should_drop(sim::SimTime t) {
    if (t < params_.start_s || t > params_.end_s) return false;
    advance_to(t);
    return rng_.chance(bad_ ? params_.loss_bad : params_.loss_good);
}

}  // namespace platoon::fault
