#include "security/attacks/impersonation.hpp"

#include "base/assert.hpp"

namespace platoon::security {

void ImpersonationAttack::attach(core::Scenario& scenario) {
    PLATOON_EXPECTS(radio_ == nullptr);
    scenario_ = &scenario;

    core::PlatoonVehicle& victim = scenario.vehicle(params_.victim_index);
    victim_wire_ = victim.wire_id();

    // Mirror the victim's protection configuration with the stolen material.
    crypto::MessageProtection::Config config;
    config.mode = victim.policy().auth_mode;
    config.encrypt = victim.policy().encrypt_payloads;
    protection_ = crypto::MessageProtection(config);
    if (config.mode == crypto::AuthMode::kSignature) {
        // Credential theft: enrollment is deterministic, so re-enrolling the
        // victim's id hands the attacker a bit-for-bit copy of its key and
        // certificate (the simulator's stand-in for an extracted HSM key).
        auto stolen = scenario.enroll(victim.id());
        victim_wire_ = stolen.long_term.cert.subject.value;
        protection_.set_credential(std::move(stolen.long_term));
    } else if (config.mode == crypto::AuthMode::kGroupMac ||
               config.encrypt) {
        protection_.set_group_key(scenario.group_key());
    }

    // Outrun the victim's sequence numbers so forgeries pass replay checks
    // (and the victim's own traffic starts looking replayed -- a bonus for
    // the attacker).
    protection_.set_seq_base(1u << 20);

    radio_ = std::make_unique<AttackerRadio>(
        scenario, sim::NodeId{9006},
        track_vehicle(scenario, scenario.config().platoon_size - 1, -40.0));
    radio_->start(nullptr);

    inject_handle_ = scenario.scheduler().schedule_every(
        params_.window.start_s, params_.repeat_period_s, [this] { inject(); });
}

void ImpersonationAttack::inject() {
    const sim::SimTime now = scenario_->scheduler().now();
    if (!params_.window.active_at(now)) {
        scenario_->scheduler().cancel(inject_handle_);
        return;
    }

    if (params_.send_dissolve) {
        net::ManeuverMsg msg;
        msg.type = net::ManeuverType::kDissolve;
        msg.platoon_id = scenario_->platoon_id();
        msg.sender = victim_wire_;
        net::Frame frame;
        frame.type = net::MsgType::kManeuver;
        frame.envelope = protection_.protect(victim_wire_,
                                             crypto::BytesView(msg.encode()),
                                             now);
        frame.truth = oracle_label(kind(), radio_->id());
        radio_->send(std::move(frame));
        ++injected_;
    }
    if (params_.send_beacons) {
        core::PlatoonVehicle& victim =
            scenario_->vehicle(params_.victim_index);
        net::Beacon beacon;
        beacon.sender = victim_wire_;
        beacon.platoon_id = scenario_->platoon_id();
        beacon.platoon_index = params_.victim_index == 0 ? 0 : 1;
        beacon.lane = victim.lane();
        // The attacker transmits from its own location; claiming it under
        // the stolen identity is what RSU impossible-motion monitoring and
        // per-vehicle plausibility checks can catch.
        beacon.position_m =
            scenario_->vehicle(scenario_->config().platoon_size - 1)
                .dynamics()
                .position() -
            40.0;
        beacon.speed_mps = victim.dynamics().speed() - 3.0;
        beacon.accel_mps2 = params_.beacon_accel_lie;
        beacon.length_m = victim.dynamics().length();
        net::Frame frame;
        frame.type = net::MsgType::kBeacon;
        frame.envelope = protection_.protect(
            victim_wire_, crypto::BytesView(beacon.encode()), now);
        frame.truth = oracle_label(kind(), radio_->id());
        radio_->send(std::move(frame));
        ++injected_;
    }
}

void ImpersonationAttack::collect(core::MetricMap& out) const {
    out["attack.impersonated_frames"] = static_cast<double>(injected_);
}

}  // namespace platoon::security
