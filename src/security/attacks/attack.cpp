#include "security/attacks/attack.hpp"

#include "base/assert.hpp"

namespace platoon::security {

AttackerRadio::AttackerRadio(core::Scenario& scenario, sim::NodeId id,
                             std::function<double()> position)
    : scenario_(&scenario), id_(id), position_(std::move(position)) {
    PLATOON_EXPECTS(id_.valid());
    PLATOON_EXPECTS(position_ != nullptr);
}

AttackerRadio::~AttackerRadio() { stop(); }

void AttackerRadio::start(ReceiveHandler on_receive) {
    PLATOON_EXPECTS(!registered_);
    registered_ = true;
    auto handler = on_receive
                       ? std::move(on_receive)
                       : ReceiveHandler([](const net::Frame&,
                                           const net::RxInfo&) {});
    scenario_->network().register_node(id_, position_, std::move(handler));
}

void AttackerRadio::stop() {
    if (!registered_) return;
    registered_ = false;
    scenario_->network().unregister_node(id_);
}

void AttackerRadio::send(net::Frame frame) {
    PLATOON_EXPECTS(registered_);
    ++frames_sent_;
    scenario_->network().broadcast(id_, std::move(frame));
}

std::function<double()> track_vehicle(core::Scenario& scenario,
                                      std::size_t vehicle_index,
                                      double offset_m) {
    core::PlatoonVehicle* v = &scenario.vehicle(vehicle_index);
    return [v, offset_m] { return v->dynamics().position() + offset_m; };
}

net::GroundTruth oracle_label(core::AttackKind kind, sim::NodeId attacker) {
    net::GroundTruth truth;
    truth.attack = static_cast<std::uint8_t>(kind);
    truth.attacker = attacker.value;
    return truth;
}

}  // namespace platoon::security
