#include "rsu/rsu.hpp"

#include <cmath>

#include "crypto/chacha20.hpp"
#include "base/assert.hpp"
#include "sim/logging.hpp"

namespace platoon::rsu {

RsuNode::RsuNode(sim::NodeId id, Params params, sim::Scheduler& scheduler,
                 net::Network& network, TrustedAuthority& authority)
    : id_(id),
      params_(params),
      scheduler_(scheduler),
      network_(network),
      authority_(authority) {
    crypto::MessageProtection::Config config;
    config.mode = params_.require_signatures ? crypto::AuthMode::kSignature
                                             : crypto::AuthMode::kNone;
    config.check_replay = true;
    protection_ = crypto::MessageProtection(config);
    protection_.set_ca_public_key(authority_.public_key());
    monitor_unprotected_ = !params_.require_signatures;
}

void RsuNode::set_credential(crypto::Credential credential) {
    dh_key_ = credential.key;
    protection_.set_credential(std::move(credential));
    // Sign everything we transmit; vehicles that require authentication
    // would otherwise drop CRL updates and key deliveries.
    protection_.set_mode(crypto::AuthMode::kSignature);
}

void RsuNode::start() {
    PLATOON_EXPECTS(!running_);
    running_ = true;
    network_.register_node(
        id_, [pos = params_.position_m] { return pos; },
        [this](const net::Frame& frame, const net::RxInfo& info) {
            on_frame(frame, info);
        });
    crl_timer_ = scheduler_.schedule_every(
        scheduler_.now() + params_.crl_broadcast_period_s,
        params_.crl_broadcast_period_s, [this] { broadcast_crl(); });
}

void RsuNode::stop() {
    if (!running_) return;
    running_ = false;
    scheduler_.cancel(crl_timer_);
    network_.unregister_node(id_);
}

void RsuNode::on_frame(const net::Frame& frame, const net::RxInfo& info) {
    (void)info;
    // Coverage filter: the radio may reach further than the RSU's service
    // area; outside it the RSU ignores traffic.
    const double sender_pos = network_.is_registered(info.physical_sender)
                                  ? network_.node_position(info.physical_sender)
                                  : params_.position_m;
    if (std::abs(sender_pos - params_.position_m) > params_.coverage_m) return;

    net::Frame copy = frame;
    const crypto::VerifyResult vr =
        protection_.verify_and_open(copy.envelope, scheduler_.now());
    if (params_.require_signatures && vr != crypto::VerifyResult::kOk) return;
    // Beacons flagged as replayed/stale are *evidence*, not noise: when an
    // impersonator out-sequences its victim, the victim's own (now
    // "replayed-looking") beacons are exactly what exposes the shared
    // identity to the impossible-motion monitor.
    const bool monitorable_beacon =
        copy.type == net::MsgType::kBeacon &&
        (vr == crypto::VerifyResult::kReplay ||
         vr == crypto::VerifyResult::kStale);
    const bool acceptable =
        vr == crypto::VerifyResult::kOk ||
        (monitor_unprotected_ && vr == crypto::VerifyResult::kUnprotected) ||
        monitorable_beacon;
    if (!acceptable) {
        // Could not even open (e.g. encrypted without key): monitoring can
        // still use envelope metadata, but payload handling stops here.
        return;
    }
    if (monitorable_beacon && copy.envelope.encrypted) return;

    switch (copy.type) {
        case net::MsgType::kBeacon: {
            const auto beacon = net::Beacon::decode(
                crypto::BytesView(copy.envelope.payload));
            if (beacon) handle_beacon(*beacon, copy.envelope.sender);
            break;
        }
        case net::MsgType::kKeyMgmt: {
            const auto msg = net::KeyMgmtMsg::decode(
                crypto::BytesView(copy.envelope.payload));
            if (!msg) break;
            // Key requests need a certified public key to wrap the reply.
            if (msg->type == net::KeyMgmtType::kKeyRequest) {
                if (copy.envelope.cert &&
                    crypto::verify_certificate(*copy.envelope.cert,
                                               authority_.public_key(),
                                               scheduler_.now()) ==
                        crypto::CertCheck::kOk &&
                    !authority_.crl().is_revoked(copy.envelope.cert->serial)) {
                    send_group_key(msg->sender,
                                   crypto::BytesView(copy.envelope.cert->public_key));
                }
            } else {
                handle_keymgmt(*msg);
            }
            break;
        }
        case net::MsgType::kManeuver:
            break;  // RSUs don't take part in maneuvers.
    }
}

void RsuNode::handle_beacon(const net::Beacon& beacon,
                            std::uint32_t envelope_sender) {
    // Impossible-motion check on the *claimed* identity: one id claiming
    // two positions that would require super-physical speed means two
    // transmitters share the identity (impersonation / Sybil ghost drift).
    const std::uint32_t claimed = envelope_sender;
    const auto it = sightings_.find(claimed);
    const sim::SimTime now = scheduler_.now();
    if (it != sightings_.end()) {
        const double dt = now - it->second.at;
        if (dt > 1e-3) {
            const double implied_speed =
                std::abs(beacon.position_m - it->second.position_m) / dt;
            if (implied_speed > params_.impossible_speed_mps) {
                ++impossible_motion_flags_;
                authority_.report_misbehavior(id_, sim::NodeId{claimed}, now);
            }
        }
    }
    sightings_[claimed] = Sighting{beacon.position_m, now};
}

void RsuNode::handle_keymgmt(const net::KeyMgmtMsg& msg) {
    if (msg.type == net::KeyMgmtType::kMisbehaviorReport) {
        if (msg.blob.size() < 4) return;
        std::size_t off = 0;
        const std::uint32_t subject = crypto::read_u32(
            crypto::BytesView(msg.blob), off);
        ++reports_relayed_;
        authority_.report_misbehavior(sim::NodeId{msg.sender},
                                      sim::NodeId{subject}, scheduler_.now());
    }
}

void RsuNode::broadcast_crl() {
    const auto serials = authority_.crl().serials();
    if (serials.empty()) return;
    net::KeyMgmtMsg msg;
    msg.type = net::KeyMgmtType::kCrlUpdate;
    msg.sender = id_.value;
    for (const std::uint64_t s : serials) crypto::append_u64(msg.blob, s);

    net::Frame frame;
    frame.type = net::MsgType::kKeyMgmt;
    frame.envelope = protection_.protect(id_.value, msg.encode(),
                                         scheduler_.now());
    network_.broadcast(id_, std::move(frame));
}

void RsuNode::send_group_key(std::uint32_t requester,
                             crypto::BytesView requester_pub) {
    if (group_key_.empty()) return;
    // Wrap the group key under the ECDH pairwise secret with the requester.
    const crypto::Bytes shared =
        crypto::dh_shared_key(dh_key_.secret, requester_pub);
    crypto::Bytes nonce(12, 0);
    std::size_t i = 0;
    for (; i < 4; ++i) nonce[i] = static_cast<std::uint8_t>(requester >> (8 * i));
    const crypto::Bytes wrapped = crypto::ChaCha20::crypt(
        crypto::BytesView(shared), crypto::BytesView(nonce),
        crypto::BytesView(group_key_));

    net::KeyMgmtMsg msg;
    msg.type = net::KeyMgmtType::kGroupKeyDistribution;
    msg.sender = id_.value;
    msg.receiver = requester;
    msg.blob = wrapped;

    net::Frame frame;
    frame.type = net::MsgType::kKeyMgmt;
    frame.envelope = protection_.protect(id_.value, msg.encode(),
                                         scheduler_.now());
    network_.broadcast(id_, std::move(frame));
    ++keys_distributed_;
}

}  // namespace platoon::rsu
