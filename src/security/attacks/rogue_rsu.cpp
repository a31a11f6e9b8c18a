#include "security/attacks/rogue_rsu.hpp"

#include "base/assert.hpp"

namespace platoon::security {

void RogueRsuAttack::attach(core::Scenario& scenario) {
    PLATOON_EXPECTS(radio_ == nullptr);
    scenario_ = &scenario;

    radio_ = std::make_unique<AttackerRadio>(
        scenario, sim::NodeId{9007},
        [pos = params_.position_m] { return pos; });
    radio_->start(nullptr);

    inject_handle_ = scenario.scheduler().schedule_every(
        params_.window.start_s, params_.broadcast_period_s,
        [this] { broadcast_poison(); });
}

void RogueRsuAttack::broadcast_poison() {
    const sim::SimTime now = scenario_->scheduler().now();
    if (!params_.window.active_at(now)) {
        scenario_->scheduler().cancel(inject_handle_);
        return;
    }

    if (params_.poison_crl) {
        // "Revoke" the first N member credentials. Against an open platoon
        // the serials are guessable (they are small integers issued in
        // enrollment order); against a signed platoon this frame fails
        // verification long before the CRL is parsed.
        net::KeyMgmtMsg msg;
        msg.type = net::KeyMgmtType::kCrlUpdate;
        msg.sender = 9007;
        for (std::uint64_t serial = 1;
             serial <= params_.victims_per_crl * 13; ++serial) {
            crypto::append_u64(msg.blob, serial);
        }
        net::Frame frame;
        frame.type = net::MsgType::kKeyMgmt;
        frame.envelope = protection_.protect(9007,
                                             crypto::BytesView(msg.encode()),
                                             now);
        radio_->send(std::move(frame));
        ++broadcasts_;
    }

    if (params_.offer_bogus_group_key) {
        // Unsolicited "group key" for the platoon tail: a vehicle that
        // installs it can no longer authenticate to its real peers.
        net::KeyMgmtMsg msg;
        msg.type = net::KeyMgmtType::kGroupKeyDistribution;
        msg.sender = 9007;
        msg.receiver = scenario_->tail().wire_id();
        msg.blob = crypto::Bytes(32, 0xEE);
        net::Frame frame;
        frame.type = net::MsgType::kKeyMgmt;
        frame.envelope = protection_.protect(9007,
                                             crypto::BytesView(msg.encode()),
                                             now);
        radio_->send(std::move(frame));
        ++broadcasts_;
    }
}

void RogueRsuAttack::collect(core::MetricMap& out) const {
    out["attack.rogue_broadcasts"] = static_cast<double>(broadcasts_);
}

}  // namespace platoon::security
