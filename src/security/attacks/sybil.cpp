#include "security/attacks/sybil.hpp"

#include <algorithm>

#include "base/assert.hpp"

namespace platoon::security {

void SybilAttack::attach(core::Scenario& scenario) {
    PLATOON_EXPECTS(radio_ == nullptr);
    scenario_ = &scenario;

    radio_ = std::make_unique<AttackerRadio>(
        scenario, sim::NodeId{9002},
        track_vehicle(scenario, scenario.config().platoon_size / 2, 3.0));
    radio_->start(nullptr);

    beacon_handle_ = scenario.scheduler().schedule_every(
        params_.window.start_s, params_.beacon_period_s,
        [this] { emit_ghost_beacons(); });
    if (params_.send_join_requests) {
        join_handle_ = scenario.scheduler().schedule_every(
            params_.window.start_s, params_.join_request_period_s,
            [this] { emit_join_requests(); });
    }
}

void SybilAttack::emit_ghost_beacons() {
    const sim::SimTime now = scenario_->scheduler().now();
    if (!params_.window.active_at(now)) {
        scenario_->scheduler().cancel(beacon_handle_);
        return;
    }

    const std::size_t platoon_size = scenario_->config().platoon_size;
    for (std::size_t g = 0; g < params_.ghosts; ++g) {
        const std::size_t victim_index = std::min(
            params_.first_victim_index + g, platoon_size - 1);
        const auto& victim = const_cast<core::Scenario*>(scenario_)
                                 ->vehicle(victim_index);

        // The ghost claims to sit just ahead of the victim, braking.
        net::Beacon ghost;
        ghost.sender = 7000u + static_cast<std::uint32_t>(g);
        ghost.platoon_id = scenario_->platoon_id();
        ghost.platoon_index = 1;
        ghost.lane = victim.lane();
        ghost.length_m = 4.0;
        ghost.position_m = victim.dynamics().position() + 7.0;
        ghost.speed_mps =
            std::max(0.0, victim.dynamics().speed() + params_.ghost_speed_delta);
        ghost.accel_mps2 = params_.ghost_brake_mps2;

        net::Frame frame;
        frame.type = net::MsgType::kBeacon;
        frame.envelope = protection_.protect(ghost.sender,
                                             crypto::BytesView(ghost.encode()),
                                             now);
        frame.truth = oracle_label(kind(), radio_->id());
        radio_->send(std::move(frame));
        ++beacons_;
    }
}

void SybilAttack::emit_join_requests() {
    const sim::SimTime now = scenario_->scheduler().now();
    if (!params_.window.active_at(now)) {
        scenario_->scheduler().cancel(join_handle_);
        return;
    }
    for (std::size_t g = 0; g < params_.ghosts; ++g) {
        net::ManeuverMsg msg;
        msg.type = net::ManeuverType::kJoinRequest;
        msg.platoon_id = scenario_->platoon_id();
        msg.sender = 7000u + static_cast<std::uint32_t>(g);
        msg.subject = msg.sender;
        net::Frame frame;
        frame.type = net::MsgType::kManeuver;
        frame.envelope = protection_.protect(msg.sender,
                                             crypto::BytesView(msg.encode()),
                                             now);
        frame.truth = oracle_label(kind(), radio_->id());
        radio_->send(std::move(frame));
        ++join_requests_;
    }
}

void SybilAttack::collect(core::MetricMap& out) const {
    out["attack.ghost_beacons"] = static_cast<double>(beacons_);
    out["attack.ghost_join_requests"] = static_cast<double>(join_requests_);
}

}  // namespace platoon::security
