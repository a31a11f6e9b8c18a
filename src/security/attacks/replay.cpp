#include "security/attacks/replay.hpp"

#include "base/assert.hpp"

namespace platoon::security {

void ReplayAttack::attach(core::Scenario& scenario) {
    PLATOON_EXPECTS(radio_ == nullptr);
    scenario_ = &scenario;
    target_wire_ = scenario.vehicle(params_.target_index).wire_id();

    // The attacker tails the platoon on the adjacent lane.
    radio_ = std::make_unique<AttackerRadio>(
        scenario, sim::NodeId{9001},
        track_vehicle(scenario, scenario.config().platoon_size - 1, -20.0));

    radio_->start([this](const net::Frame& frame, const net::RxInfo& info) {
        (void)info;
        if (frame.envelope.sender != target_wire_) return;
        if (frame.type == net::MsgType::kKeyMgmt) return;
        if (frame.type == net::MsgType::kManeuver && !params_.replay_maneuvers)
            return;
        if (info.physical_sender == radio_->id()) return;
        buffer_.push_back({frame, scenario_->scheduler().now()});
        ++recorded_;
        if (buffer_.size() > params_.buffer_limit) buffer_.pop_front();
    });

    inject_handle_ = scenario.scheduler().schedule_every(
        params_.window.start_s, 1.0 / params_.replay_rate_hz,
        [this] { replay_one(); });
}

void ReplayAttack::replay_one() {
    const sim::SimTime now = scenario_->scheduler().now();
    if (!params_.window.active_at(now)) {
        scenario_->scheduler().cancel(inject_handle_);
        return;
    }

    // Replay the oldest frame that is at least replay_delay_s old: stale
    // enough to conflict with current truth, fresh enough to look alive.
    while (!buffer_.empty() &&
           now - buffer_.front().heard_at > 3.0 * params_.replay_delay_s) {
        buffer_.pop_front();
    }
    for (const Recorded& rec : buffer_) {
        if (now - rec.heard_at >= params_.replay_delay_s) {
            net::Frame frame = rec.frame;
            frame.truth = oracle_label(kind(), radio_->id());
            radio_->send(std::move(frame));
            ++replayed_;
            return;
        }
    }
}

void ReplayAttack::collect(core::MetricMap& out) const {
    out["attack.frames_recorded"] = static_cast<double>(recorded_);
    out["attack.frames_replayed"] = static_cast<double>(replayed_);
}

}  // namespace platoon::security
