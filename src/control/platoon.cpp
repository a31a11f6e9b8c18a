#include "control/platoon.hpp"

#include <algorithm>

#include "base/assert.hpp"

namespace platoon::control {

const char* to_string(Role r) {
    switch (r) {
        case Role::kLeader: return "leader";
        case Role::kMember: return "member";
        case Role::kJoiner: return "joiner";
        case Role::kFree: return "free";
    }
    return "?";
}

bool Membership::contains(sim::NodeId id) const {
    return std::find(order_.begin(), order_.end(), id) != order_.end();
}

std::optional<std::size_t> Membership::index_of(sim::NodeId id) const {
    const auto it = std::find(order_.begin(), order_.end(), id);
    if (it == order_.end()) return std::nullopt;
    return static_cast<std::size_t>(it - order_.begin());
}

std::optional<sim::NodeId> Membership::predecessor_of(sim::NodeId id) const {
    const auto idx = index_of(id);
    if (!idx || *idx == 0) return std::nullopt;
    return order_[*idx - 1];
}

void Membership::append(sim::NodeId id) {
    PLATOON_EXPECTS(!contains(id));
    order_.push_back(id);
}

void Membership::remove(sim::NodeId id) {
    PLATOON_EXPECTS(id != leader_);
    std::erase(order_, id);
}

AdmissionControl::AdmissionControl() : AdmissionControl(Params{}) {}

AdmissionControl::Decision AdmissionControl::on_join_request(
    sim::NodeId joiner, std::size_t member_count, sim::SimTime now) {
    expire(now);

    if (params_.per_id_min_interval_s > 0.0) {
        const auto it = std::find_if(
            last_request_.begin(), last_request_.end(),
            [joiner](const auto& entry) { return entry.first == joiner; });
        if (it != last_request_.end() &&
            now - it->second < params_.per_id_min_interval_s) {
            return Decision::kDenyRateLimited;
        }
        if (it != last_request_.end()) {
            it->second = now;
        } else {
            last_request_.emplace_back(joiner, now);
        }
    }

    // Already pending? Refresh, accept idempotently.
    for (auto& p : pending_) {
        if (p.joiner == joiner) {
            p.since = now;
            return Decision::kAccept;
        }
    }
    if (member_count + pending_.size() >= params_.max_members)
        return Decision::kDenyFull;
    if (pending_.size() >= params_.max_pending)
        return Decision::kDenyPending;
    pending_.push_back(Pending{joiner, now});
    return Decision::kAccept;
}

void AdmissionControl::on_join_resolved(sim::NodeId joiner) {
    std::erase_if(pending_,
                  [joiner](const Pending& p) { return p.joiner == joiner; });
}

std::size_t AdmissionControl::expire(sim::SimTime now) {
    const std::size_t before = pending_.size();
    std::erase_if(pending_, [&](const Pending& p) {
        return now - p.since > params_.pending_timeout_s;
    });
    return before - pending_.size();
}

JoinerFsm::JoinerFsm() : JoinerFsm(Params{}) {}

bool JoinerFsm::on_request_sent(sim::SimTime now) {
    if (state_ != State::kIdle && state_ != State::kRequested) return false;
    state_ = State::kRequested;
    requested_at_ = now;
    ++attempts_;
    return true;
}

bool JoinerFsm::on_accept(sim::SimTime /*now*/) {
    if (state_ != State::kRequested) return false;
    state_ = State::kApproach;
    return true;
}

bool JoinerFsm::on_deny() {
    if (state_ != State::kRequested) return false;
    state_ = State::kDenied;
    return true;
}

bool JoinerFsm::on_progress(double gap_error_m, double speed_error_mps) {
    if (state_ != State::kApproach) return false;
    if (std::abs(gap_error_m) <= params_.engage_gap_error_m &&
        std::abs(speed_error_mps) <= params_.engage_speed_error_mps) {
        state_ = State::kJoined;
        return true;
    }
    return false;
}

bool JoinerFsm::on_timeout(sim::SimTime now) {
    if (state_ != State::kRequested) return false;
    if (now - requested_at_ < params_.request_timeout_s) return false;
    state_ = State::kIdle;  // caller may retry
    return true;
}

const char* to_string(JoinerFsm::State s) {
    switch (s) {
        case JoinerFsm::State::kIdle: return "idle";
        case JoinerFsm::State::kRequested: return "requested";
        case JoinerFsm::State::kApproach: return "approach";
        case JoinerFsm::State::kJoined: return "joined";
        case JoinerFsm::State::kDenied: return "denied";
    }
    return "?";
}

}  // namespace platoon::control
