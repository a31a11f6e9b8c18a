#include "security/attacks/dos.hpp"

#include "base/assert.hpp"

namespace platoon::security {

void DosAttack::attach(core::Scenario& scenario) {
    PLATOON_EXPECTS(radio_ == nullptr);
    scenario_ = &scenario;

    radio_ = std::make_unique<AttackerRadio>(
        scenario, sim::NodeId{9005},
        track_vehicle(scenario, 0, -60.0));
    radio_->start(nullptr);

    inject_handle_ = scenario.scheduler().schedule_every(
        params_.window.start_s, 1.0 / params_.request_rate_hz,
        [this] { flood_one(); });
}

void DosAttack::flood_one() {
    const sim::SimTime now = scenario_->scheduler().now();
    if (!params_.window.active_at(now)) {
        scenario_->scheduler().cancel(inject_handle_);
        return;
    }

    const std::uint32_t fake_id =
        params_.rotate_identities ? next_fake_id_++ : 8000u;
    net::ManeuverMsg msg;
    msg.type = net::ManeuverType::kJoinRequest;
    msg.platoon_id = scenario_->platoon_id();
    msg.sender = fake_id;
    msg.subject = fake_id;

    net::Frame frame;
    frame.type = net::MsgType::kManeuver;
    frame.envelope =
        protection_.protect(fake_id, crypto::BytesView(msg.encode()), now);
    frame.truth = oracle_label(kind(), radio_->id());
    radio_->send(std::move(frame));
    ++requests_;
}

void DosAttack::collect(core::MetricMap& out) const {
    out["attack.join_requests_sent"] = static_cast<double>(requests_);
}

}  // namespace platoon::security
