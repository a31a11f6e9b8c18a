#include "core/vehicle.hpp"

#include "crypto/chacha20.hpp"
#include "crypto/eddsa.hpp"

#include <algorithm>
#include <cmath>

#include "base/assert.hpp"
#include "sim/logging.hpp"

namespace platoon::core {

namespace {

std::string stream_name(const char* what, sim::NodeId id) {
    return std::string(what) + "." + std::to_string(id.value);
}

}  // namespace

PlatoonVehicle::PlatoonVehicle(VehicleConfig config, sim::Scheduler& scheduler,
                               net::Network& network,
                               std::uint64_t master_seed)
    : config_(config),
      scheduler_(scheduler),
      network_(network),
      rng_(master_seed, stream_name("vehicle", config.id)),
      dynamics_(config.vehicle, config.initial_state),
      gps_(dynamics_, {}, rng_),
      radar_(dynamics_, {}, rng_),
      odometry_(dynamics_, {}, rng_),
      stack_(control::make_controller(config.cacc_type), config.fallback),
      approach_controller_(control::AccParams{
          .time_gap_s = 0.3, .lambda = 0.15, .min_gap_m = 3.0,
          .free_flow_gain = 0.8}),
      role_(config.role),
      platoon_id_(config.platoon_id),
      lane_(config.lane),
      desired_speed_mps_(config.desired_speed_mps),
      admission_(config.admission),
      joiner_(config.joiner),
      hardening_(security::OnboardHardening::Params{
          config.security.firewall, config.security.antivirus, 0.85, 8.0}) {
    PLATOON_EXPECTS(config_.id.valid());
    wire_id_ = config_.id.value;

    crypto::MessageProtection::Config prot;
    prot.mode = config_.security.auth_mode;
    prot.encrypt = config_.security.encrypt_payloads;
    prot.freshness_window_s = config_.security.freshness_window_s;
    prot.check_replay = config_.security.check_replay;
    protection_ = crypto::MessageProtection(prot);

    if (config_.role == control::Role::kLeader) {
        membership_.emplace(platoon_id_, config_.id);
        admission_.set_rate_limit(config_.security.join_rate_limit_s);
    }
    if (config_.leader_hint.valid()) leader_wire_ = config_.leader_hint.value;

    security::HybridComms::Params hybrid_params;
    hybrid_params.require_dual_channel_maneuvers =
        config_.security.require_dual_channel_maneuvers;
    hybrid_ = security::HybridComms(hybrid_params);

    last_own_position_ = config_.initial_state.position_m;
}

std::uint32_t PlatoonVehicle::wire_id() const { return wire_id_; }

void PlatoonVehicle::provision_group_key(crypto::Bytes key) {
    protection_.set_group_key(std::move(key));
}

void PlatoonVehicle::provision_credential(crypto::Credential long_term,
                                          crypto::PseudonymPool pseudonyms) {
    wire_id_ = long_term.cert.subject.value;
    active_credential_ = long_term;
    protection_.set_credential(std::move(long_term));
    pseudonyms_ = std::move(pseudonyms);
}

void PlatoonVehicle::set_ca_public_key(crypto::Bytes ca_pub) {
    protection_.set_ca_public_key(std::move(ca_pub));
}

void PlatoonVehicle::set_pairwise_key(std::uint32_t peer, crypto::Bytes key) {
    protection_.set_pairwise_key(peer, std::move(key));
}

void PlatoonVehicle::set_verdict_cache(crypto::VerdictCache* cache) {
    protection_.set_verdict_cache(cache);
}

void PlatoonVehicle::start() {
    PLATOON_EXPECTS(!running_);
    running_ = true;
    net::Network::NodeTraits traits;
    traits.vlc = true;  // vehicles carry front/rear optical transceivers
    network_.register_node(
        config_.id, [this] { return dynamics_.position(); },
        [this](const net::Frame& frame, const net::RxInfo& info) {
            on_frame(frame, info);
        },
        traits);

    // Stagger the periodic loops per vehicle so events don't all collide on
    // identical timestamps (and so the MAC sees realistic beacon phasing).
    const sim::SimTime control_phase =
        rng_.uniform(0.0, config_.control_period_s);
    const sim::SimTime beacon_phase = rng_.uniform(0.0, config_.beacon_period_s);
    control_timer_ = scheduler_.schedule_every(
        scheduler_.now() + control_phase, config_.control_period_s,
        [this] { control_step(); });
    beacon_timer_ = scheduler_.schedule_every(
        scheduler_.now() + beacon_phase, config_.beacon_period_s,
        [this] { send_beacon(); });

    if (config_.security.pseudonym_rotation_s > 0.0 && !pseudonyms_.empty()) {
        rotate_pseudonym();  // start on a pseudonym, not the long-term id
        pseudonym_timer_ = scheduler_.schedule_every(
            scheduler_.now() + config_.security.pseudonym_rotation_s,
            config_.security.pseudonym_rotation_s,
            [this] { rotate_pseudonym(); });
    }
}

void PlatoonVehicle::stop() {
    if (!running_) return;
    running_ = false;
    scheduler_.cancel(control_timer_);
    scheduler_.cancel(beacon_timer_);
    scheduler_.cancel(pseudonym_timer_);
    network_.unregister_node(config_.id);
}

void PlatoonVehicle::rotate_pseudonym() {
    if (pseudonyms_.empty()) return;
    const crypto::Credential& cred = pseudonyms_.rotate();
    wire_id_ = cred.cert.subject.value;
    active_credential_ = cred;
    protection_.set_credential(cred);
}

void PlatoonVehicle::request_group_key() {
    net::KeyMgmtMsg msg;
    msg.type = net::KeyMgmtType::kKeyRequest;
    msg.sender = wire_id();
    send_typed(net::MsgType::kKeyMgmt, crypto::BytesView(msg.encode()));
}

void PlatoonVehicle::prune_peers(sim::SimTime now) {
    // Sweep gate: erase_if walks the whole peer table -- at corridor scale
    // that is every node in radio range, 100 times per second per vehicle,
    // and it dominated the highway-scale profile. peers_min_received_ is a
    // conservative lower bound on every entry's received_at (beacon
    // refreshes only raise timestamps; the bound only ratchets down), so
    // when no entry can have aged past the 2 s horizon the sweep is
    // provably a no-op and the peer table is bit-identical either way.
    if (peers_min_received_ < now - 2.0) {
        std::erase_if(peers_, [now](const auto& entry) {
            return entry.second.state.age(now) > 2.0;
        });
        peers_min_received_ = std::numeric_limits<double>::infinity();
        for (const auto& [wire, peer] : peers_)
            peers_min_received_ =
                std::min(peers_min_received_, peer.state.received_at);
        rebuild_peer_index();
    }
    if (predecessor_wire_ && !peers_.contains(*predecessor_wire_))
        predecessor_wire_.reset();
    if (leader_wire_ && !peers_.contains(*leader_wire_) &&
        role_ != control::Role::kLeader) {
        // Keep the hint around briefly; CACC freshness checks handle staleness.
    }
}

void PlatoonVehicle::enable_peer_index() {
    peer_index_enabled_ = true;
    rebuild_peer_index();
}

void PlatoonVehicle::rebuild_peer_index() {
    if (!peer_index_enabled_) return;
    platoon_peer_wires_.clear();
    if (platoon_id_ == 0) return;
    for (const auto& [wire, peer] : peers_)
        if (peer.platoon_id == platoon_id_) platoon_peer_wires_.push_back(wire);
}

void PlatoonVehicle::refresh_topology(double own_position, sim::SimTime now) {
    if (role_ == control::Role::kLeader) {
        predecessor_wire_.reset();
        return;
    }
    // Predecessor: nearest same-platoon, same-lane peer claiming a position
    // ahead of us. Position-based derivation keeps working across joins,
    // leaves and pseudonym rotations -- and is exactly the surface Sybil
    // ghost vehicles exploit.
    std::optional<std::uint32_t> best;
    double best_delta = 1e18;
    const auto consider = [&](std::uint32_t wire, const Peer& peer) {
        if (platoon_id_ == 0 || peer.platoon_id != platoon_id_) return;
        if (peer.lane != lane_) return;
        if (peer.state.age(now) > 1.5) return;
        if (config_.security.trust_management && !trust_.trusted(wire))
            return;
        const double delta = peer.state.position_m - own_position;
        if (delta > 0.0 && delta < best_delta) {
            best_delta = delta;
            best = wire;
        }
        // Leader claim: index 0 in our platoon. Sanity: the leader is
        // ahead of every member by definition -- an index-0 claim from
        // behind us is someone abusing the leader's identity or role.
        if (peer.platoon_index == 0 && peer.state.position_m > own_position)
            leader_wire_ = wire;
    };
    if (peer_index_enabled_) {
        // Corridor mode: only same-platoon peers can pass the filters, so
        // scan the maintained index instead of every node in radio range.
        for (const std::uint32_t wire : platoon_peer_wires_) {
            const auto it = peers_.find(wire);
            if (it != peers_.end()) consider(wire, it->second);
        }
    } else {
        for (const auto& [wire, peer] : peers_) consider(wire, peer);
    }
    predecessor_wire_ = best;
}

std::optional<double> PlatoonVehicle::beacon_gap(double own_position) const {
    if (!predecessor_wire_) return std::nullopt;
    const auto it = peers_.find(*predecessor_wire_);
    if (it == peers_.end()) return std::nullopt;
    // Dead-reckon the claim to now: beacons are up to one period old and a
    // platoon moves ~2.5 m per beacon interval, which would otherwise read
    // as a systematic gap error (and trip VPD-ADA on honest traffic).
    const control::PeerState& pred = it->second.state;
    const double age = std::max(0.0, scheduler_.now() - pred.received_at);
    const double predicted =
        pred.position_m + pred.speed_mps * age +
        0.5 * pred.accel_mps2 * age * age;
    return predicted - pred.length_m - own_position;
}

void PlatoonVehicle::control_step() {
    const double dt = config_.control_period_s;
    const sim::SimTime now = scheduler_.now();
    prune_peers(now);

    // --- sensing -----------------------------------------------------------
    // Sensor dropout (benign fault): the sensors return nothing, so the
    // vehicle drives on -- and beacons -- its last fused position while its
    // true position moves on. An honest vehicle that looks like it is lying
    // about where it is, which is the detectors' hardest benign case.
    double own_position = last_own_position_;
    if (!sensor_dropout_) {
        const phys::GpsSensor::Fix fix = gps_.read();
        own_position = fix.position_m;
        if (config_.security.sensor_fusion) {
            const auto fused = gps_fusion_.update(now, fix.position_m,
                                                  odometry_.read_speed(), dt);
            own_position = fused.position_m;
        }
        last_own_position_ = own_position;
    }

    if (radar_target_resolver_)
        radar_.set_target(radar_target_resolver_(*this));
    std::optional<phys::RadarSensor::Measurement> radar_meas;
    if (!sensor_dropout_) radar_meas = radar_.read();
    last_radar_gap_m_.reset();
    last_radar_closing_mps_.reset();
    if (radar_meas) {
        last_radar_gap_m_ = radar_meas->gap_m;
        last_radar_closing_mps_ = radar_meas->closing_mps;
    }

    refresh_topology(own_position, now);

    // --- control inputs ------------------------------------------------------
    control::ControlInputs in;
    in.now = now;
    in.own_position_m = own_position;
    in.own_speed_mps = dynamics_.speed();
    in.own_accel_mps2 = dynamics_.accel();
    in.desired_speed_mps = desired_speed_mps_;

    const bool radar_trusted =
        !config_.security.sensor_fusion || !radar_fusion_.distrusted(now);
    if (radar_meas && radar_trusted) {
        in.radar_gap_m = radar_meas->gap_m;
        in.radar_closing_mps = radar_meas->closing_mps;
    }
    if (predecessor_wire_) {
        const auto it = peers_.find(*predecessor_wire_);
        if (it != peers_.end()) in.predecessor = it->second.state;
    }
    if (leader_wire_) {
        const auto it = peers_.find(*leader_wire_);
        if (it != peers_.end()) in.leader = it->second.state;
    }

    // --- defenses ------------------------------------------------------------
    const auto claimed_gap = beacon_gap(own_position);
    std::optional<double> radar_gap, radar_closing;
    if (radar_meas) {
        radar_gap = radar_meas->gap_m;
        radar_closing = radar_meas->closing_mps;
    }
    // The claimed gap only changes when a beacon arrives (10 Hz); clocking
    // the detectors at the control rate (100 Hz) would turn one noisy
    // beacon into ten "consecutive" strikes. Feed them per fresh beacon.
    const bool fresh_evidence =
        in.predecessor && in.predecessor->received_at != vpd_last_evidence_;
    if (config_.security.vpd_ada) {
        if (fresh_evidence) {
            std::optional<double> claimed_closing =
                in.own_speed_mps - in.predecessor->speed_mps;
            const bool new_detection = vpd_.update(
                now, radar_gap, claimed_gap, radar_closing, claimed_closing);
            if (new_detection && predecessor_wire_) {
                if (config_.security.report_misbehavior)
                    report_misbehavior(*predecessor_wire_);
            }
            // Sustained evidence burns trust per beacon -- but only when
            // THIS beacon is discrepant, and only against the peer that
            // produced it. (Penalising whoever is predecessor while a
            // quarantine lingers would chase honest vehicles after the
            // liar is excluded.)
            if (config_.security.trust_management && predecessor_wire_ &&
                fresh_evidence) {
                // Stricter than the VPD quarantine gate: a penalty is ~30
                // rewards, so its false-positive rate must be far below the
                // ~2-sigma VPD threshold (claimed gaps carry ~2.1 m of GPS
                // noise). 2x the VPD threshold is a >3.5-sigma event.
                const bool gap_strike =
                    radar_gap && claimed_gap &&
                    std::abs(*radar_gap - *claimed_gap) >
                        2.0 * vpd_.params().gap_threshold_m;
                const bool speed_strike =
                    radar_closing && claimed_closing &&
                    std::abs(*radar_closing - *claimed_closing) >
                        vpd_.params().speed_threshold_mps;
                if (gap_strike || speed_strike)
                    trust_.penalize(*predecessor_wire_);
            }
        }
        stack_.quarantine_beacons(vpd_.quarantined(now) || detached_);
    } else {
        stack_.quarantine_beacons(detached_);
    }
    if (config_.security.sensor_fusion && fresh_evidence)
        radar_fusion_.update(now, radar_gap, claimed_gap);
    if (fresh_evidence) vpd_last_evidence_ = in.predecessor->received_at;

    if (spacing_override_ && now > spacing_override_until_) {
        spacing_override_.reset();
        if (auto* path = dynamic_cast<control::PathCaccController*>(
                &stack_.cacc())) {
            path->set_spacing(control::PathCaccParams{}.spacing_m);
        }
        // VPD-ADA family [10]: a gap we opened for an entrance that never
        // happened was a fake maneuver -- stop honouring gap-opens for a
        // while and tell the RSU.
        if (config_.security.vpd_ada &&
            predecessor_wire_ == gap_open_predecessor_) {
            gap_open_ignore_until_ = now + 120.0;
            if (config_.security.report_misbehavior && leader_wire_)
                report_misbehavior(*leader_wire_);
        }
    }
    if (config_.security.hybrid_comms) hybrid_.expire(now);

    // --- command by role -------------------------------------------------------
    double command = 0.0;
    switch (role_) {
        case control::Role::kLeader:
            command = leader_controller_.compute(in, dt);
            break;
        case control::Role::kMember:
            command = stack_.compute(in, dt);
            break;
        case control::Role::kJoiner: {
            if (joiner_.state() == control::JoinerFsm::State::kRequested &&
                joiner_.on_timeout(now)) {
                if (joiner_.attempts() < 5) {
                    request_join(join_platoon_, join_leader_);
                } else {
                    role_ = control::Role::kFree;
                    break;
                }
            }
            if (joiner_.state() == control::JoinerFsm::State::kApproach) {
                const auto it = peers_.find(join_tail_wire_);
                if (it != peers_.end()) {
                    in.predecessor = it->second.state;
                    in.desired_speed_mps =
                        std::min(dynamics_.params().max_speed_mps,
                                 it->second.state.speed_mps + 3.0);
                    const double gap = it->second.state.position_m -
                                       it->second.state.length_m -
                                       own_position;
                    const double target_gap =
                        control::PathCaccParams{}.spacing_m;
                    if (joiner_.on_progress(
                            gap - target_gap,
                            dynamics_.speed() - it->second.state.speed_mps)) {
                        // In position: engage CACC and notify the leader.
                        role_ = control::Role::kMember;
                        platoon_id_ = join_platoon_;
                        rebuild_peer_index();
                        net::ManeuverMsg done;
                        done.type = net::ManeuverType::kJoinComplete;
                        done.platoon_id = join_platoon_;
                        done.sender = wire_id();
                        done.subject = wire_id();
                        send_maneuver(done);
                        break;
                    }
                }
            }
            command = approach_controller_.compute(in, dt);
            break;
        }
        case control::Role::kFree:
            command = approach_controller_.compute(in, dt);
            break;
    }

    // Autonomous emergency braking: radar-based last-resort safety net.
    // PATH CACC is a small-perturbation tracking law; when the physical
    // predecessor brakes away from the leader's speed (split, fallback,
    // attack fallout) the constant-spacing law alone can be too soft.
    // Brake proportionally: enough to null the closing speed half a metre
    // before contact, floored at a firm 2 m/s^2 and capped by the brakes.
    if (radar_meas && radar_trusted && role_ != control::Role::kLeader) {
        const double gap = radar_meas->gap_m;
        const double closing = radar_meas->closing_mps;
        if (closing > 0.05 && (gap / closing < 2.5 || gap < 3.0)) {
            // 1.6x margin: the predecessor is usually still decelerating
            // while we react through the 0.5 s actuation lag.
            const double required =
                1.6 * closing * closing / (2.0 * std::max(0.3, gap - 1.0));
            command = std::min(
                command, -std::min(dynamics_.params().max_decel_mps2,
                                   std::max(2.0, required)));
        } else if (gap < 1.0) {
            command = std::min(command, -dynamics_.params().max_decel_mps2);
        }
    }

    dynamics_.set_command(command);
    dynamics_.step(dt);

    // --- fuel (ground-truth slipstream) -----------------------------------
    double drag = 1.0;
    if (const auto* target = radar_.target()) {
        const double true_gap =
            target->position() - target->length() - dynamics_.position();
        if (true_gap >= 0.0 && true_gap < 120.0)
            drag = phys::drag_fraction(true_gap);
    }
    fuel_.accumulate(dynamics_.speed(), dynamics_.accel(), drag, dt);
}

sim::SimTime PlatoonVehicle::stamped_now() const {
    const sim::SimTime now = scheduler_.now();
    if (!clock_skew_active_) return now;
    return now + clock_skew_offset_s_ +
           clock_skew_rate_ * (now - clock_skew_anchor_);
}

void PlatoonVehicle::send_beacon() {
    if (drop_beacons_ || comms_down_) return;

    net::Beacon beacon;
    beacon.sender = wire_id();
    beacon.platoon_id = detached_ ? 0 : platoon_id_;
    beacon.platoon_index =
        role_ == control::Role::kLeader && !detached_ ? 0 : 1;
    beacon.lane = lane_;
    beacon.position_m = last_own_position_;
    beacon.speed_mps = dynamics_.speed();
    beacon.accel_mps2 = dynamics_.accel();
    beacon.length_m = dynamics_.length();

    if (beacon_mutator_) beacon_mutator_(beacon);

    const crypto::Bytes payload = beacon.encode();
    crypto::Envelope envelope = protection_.protect(
        beacon.sender, crypto::BytesView(payload), stamped_now());

    net::Frame frame;
    frame.type = net::MsgType::kBeacon;
    frame.envelope = envelope;
    frame.band = net::Band::kDsrc;
    frame.truth = beacon_truth_;
    network_.broadcast(config_.id, frame);

    if (config_.security.hybrid_comms) {
        net::Frame secondary;
        secondary.type = net::MsgType::kBeacon;
        secondary.envelope = std::move(envelope);
        secondary.band = config_.security.secondary_band;
        secondary.truth = beacon_truth_;
        network_.broadcast(config_.id, std::move(secondary));
    }
    ++beacons_sent_;
}

void PlatoonVehicle::send_typed(net::MsgType type, crypto::BytesView payload) {
    if (comms_down_) return;
    crypto::Envelope envelope =
        protection_.protect(wire_id(), payload, stamped_now());
    net::Frame frame;
    frame.type = type;
    frame.envelope = envelope;
    frame.band = net::Band::kDsrc;
    network_.broadcast(config_.id, frame);

    if (config_.security.hybrid_comms) {
        net::Frame secondary;
        secondary.type = type;
        secondary.envelope = std::move(envelope);
        secondary.band = config_.security.secondary_band;
        network_.broadcast(config_.id, std::move(secondary));
    }
}

void PlatoonVehicle::adopt_platoon(std::uint32_t platoon_id,
                                   sim::NodeId leader_hint) {
    platoon_id_ = platoon_id;
    rebuild_peer_index();
    config_.leader_hint = leader_hint;
    role_ = control::Role::kMember;
    detached_ = false;
    // Stale wires point into the old platoon; refresh_topology() re-derives
    // both from the next beacons under the new platoon id.
    predecessor_wire_.reset();
    leader_wire_.reset();
}

void PlatoonVehicle::send_maneuver(const net::ManeuverMsg& msg) {
    send_typed(net::MsgType::kManeuver, crypto::BytesView(msg.encode()));
}

void PlatoonVehicle::request_join(std::uint32_t platoon_id,
                                  sim::NodeId leader) {
    role_ = control::Role::kJoiner;
    join_platoon_ = platoon_id;
    join_leader_ = leader;
    net::ManeuverMsg msg;
    msg.type = net::ManeuverType::kJoinRequest;
    msg.platoon_id = platoon_id;
    msg.sender = wire_id();
    msg.subject = wire_id();
    send_maneuver(msg);
    joiner_.on_request_sent(scheduler_.now());
}

void PlatoonVehicle::request_leave() {
    if (role_ != control::Role::kMember) return;
    net::ManeuverMsg msg;
    msg.type = net::ManeuverType::kLeaveRequest;
    msg.platoon_id = platoon_id_;
    msg.sender = wire_id();
    msg.subject = wire_id();
    send_maneuver(msg);
}

void PlatoonVehicle::report_misbehavior(std::uint32_t suspect) {
    net::KeyMgmtMsg report;
    report.type = net::KeyMgmtType::kMisbehaviorReport;
    report.sender = wire_id();
    report.receiver = config_.rsu_hint.valid() ? config_.rsu_hint.value
                                               : sim::NodeId::kInvalidValue;
    crypto::append_u32(report.blob, suspect);
    send_typed(net::MsgType::kKeyMgmt, crypto::BytesView(report.encode()));
}

void PlatoonVehicle::on_frame(const net::Frame& frame,
                              const net::RxInfo& info) {
    if (!running_ || comms_down_) return;  // crashed OBU hears nothing

    if (config_.security.hybrid_comms) {
        const auto action =
            hybrid_.on_receive(frame.envelope.sender, frame.envelope.seq,
                               frame.type, info.band, scheduler_.now());
        if (action != security::HybridComms::Action::kDeliver) return;
    }

    net::Frame copy = frame;
    process_payload(copy, info);
}

void PlatoonVehicle::process_payload(net::Frame& frame,
                                     const net::RxInfo& info) {
    // verify_and_open decrypts in place; relaying (SP-VLC chain) must
    // forward the pristine wire bytes or the tag no longer verifies.
    const crypto::Envelope original_envelope = frame.envelope;
    const crypto::VerifyResult vr =
        protection_.verify_and_open(frame.envelope, scheduler_.now());
    counters_.count(vr);
    // Legacy hole, modelled deliberately (rogue-RSU studies): a deployment
    // that does not insist on signed infrastructure lets unauthenticated
    // key-management frames through the policy gate.
    const bool legacy_infra_hole =
        !config_.security.require_signed_infrastructure &&
        frame.type == net::MsgType::kKeyMgmt &&
        vr == crypto::VerifyResult::kUnprotected;
    if (vr != crypto::VerifyResult::kOk && !legacy_infra_hole) return;

    // Self-echo: hearing "our own" identity from another physical node means
    // the identity is stolen (impersonation, Section V-F). Report it -- the
    // TA revokes the stolen credential and the vehicle re-enrolls.
    // Our own identity from another transmitter is an echo only when the
    // sequence number is one we never issued: SP-VLC relays re-broadcast
    // our past frames verbatim (seq < next_seq), while an impersonator must
    // out-run our counter to beat the receivers' replay guards.
    if (frame.envelope.sender == wire_id() &&
        info.physical_sender != config_.id &&
        frame.envelope.seq >= protection_.next_seq()) {
        ++self_echoes_;
        if (config_.security.report_misbehavior)
            report_misbehavior(frame.envelope.sender);
        // The identity is burned: when we participate in the misbehaviour
        // ecosystem (reporting / re-credentialing), move to a fresh
        // pseudonym so the platoon keeps trusting *us* while the TA
        // revokes the stolen credential. A bare-PKI vehicle has no recourse.
        if (config_.security.report_misbehavior && !pseudonyms_.empty())
            rotate_pseudonym();
        return;
    }
    if (info.physical_sender == config_.id) return;  // own relay echo

    switch (frame.type) {
        case net::MsgType::kBeacon: {
            const auto beacon =
                net::Beacon::decode(crypto::BytesView(frame.envelope.payload));
            if (beacon) {
                // handle_beacon needs the pristine envelope for the SP-VLC
                // relay; hand it the frame with the wire bytes restored (the
                // oracle truth rides along untouched).
                net::Frame relayable = frame;
                relayable.envelope = original_envelope;
                handle_beacon(*beacon, info, relayable);
            } else {
                ++counters_.rejected_malformed;
            }
            break;
        }
        case net::MsgType::kManeuver: {
            const auto msg = net::ManeuverMsg::decode(
                crypto::BytesView(frame.envelope.payload));
            if (msg) {
                if (message_observer_) {
                    MessageObservation obs{frame, info, nullptr, &*msg, true};
                    message_observer_(*this, obs);
                }
                handle_maneuver(*msg);
            } else {
                ++counters_.rejected_malformed;
            }
            break;
        }
        case net::MsgType::kKeyMgmt: {
            const auto msg = net::KeyMgmtMsg::decode(
                crypto::BytesView(frame.envelope.payload));
            if (msg) handle_keymgmt(*msg, frame.envelope);
            break;
        }
    }
}

void PlatoonVehicle::handle_beacon(const net::Beacon& beacon,
                                   const net::RxInfo& info,
                                   const net::Frame& frame) {
    const crypto::Envelope& envelope = frame.envelope;
    ++beacons_received_;
    // Oracle tap: the observer sees every beacon that cleared the crypto
    // gate, with `accepted` recording whether the defense gates below let
    // it influence state. Must stay side-effect free w.r.t. the simulation.
    const auto observe = [&](bool accepted) {
        if (!message_observer_) return;
        MessageObservation obs{frame, info, &beacon, nullptr, accepted};
        message_observer_(*this, obs);
    };
    if (config_.security.trust_management &&
        !trust_.trusted(envelope.sender)) {
        trust_.observe_dropped(envelope.sender);
        observe(false);
        return;  // surgically ignored until it re-earns trust
    }
    Peer& peer = peers_[envelope.sender];
    // A fresh insert carries received_at = -1.0 until the claim below is
    // accepted; track it so the next prune sweep sees it either way.
    peers_min_received_ =
        std::min(peers_min_received_, peer.state.received_at);

    // Plausibility gate (control-algorithm defense family): consecutive
    // claims from one identity must be kinematically consistent. Two
    // transmitters sharing an id (impersonation) or a crudely lying insider
    // interleave inconsistent claims and trip this check.
    if (config_.security.vpd_ada && peer.state.received_at >= 0.0) {
        const double dt = scheduler_.now() - peer.state.received_at;
        if (dt > 1e-3 && dt < 1.0) {
            const double dv = std::abs(beacon.speed_mps - peer.state.speed_mps);
            const double predicted =
                peer.state.position_m + peer.state.speed_mps * dt;
            const double dx = std::abs(beacon.position_m - predicted);
            if (dv > std::max(1.0, 12.0 * dt) || dx > 8.0) {
                ++plausibility_flags_;
                if (config_.security.trust_management)
                    trust_.penalize(envelope.sender);
                if (config_.security.report_misbehavior &&
                    scheduler_.now() - last_report_at_ > 1.0) {
                    last_report_at_ = scheduler_.now();
                    report_misbehavior(envelope.sender);
                }
                observe(false);
                return;  // reject the implausible claim
            }
        }
    }

    observe(true);
    if (config_.security.trust_management) trust_.reward(envelope.sender);
    peer.state.position_m = beacon.position_m;
    peer.state.speed_mps = beacon.speed_mps;
    peer.state.accel_mps2 = beacon.accel_mps2;
    peer.state.length_m = beacon.length_m;
    peer.state.received_at = scheduler_.now();
    peer.platoon_id = beacon.platoon_id;
    peer.platoon_index = beacon.platoon_index;
    peer.lane = beacon.lane;
    if (peer_index_enabled_) {
        const bool want =
            platoon_id_ != 0 && peer.platoon_id == platoon_id_;
        const auto at = std::find(platoon_peer_wires_.begin(),
                                  platoon_peer_wires_.end(), envelope.sender);
        if (want && at == platoon_peer_wires_.end())
            platoon_peer_wires_.push_back(envelope.sender);
        else if (!want && at != platoon_peer_wires_.end())
            platoon_peer_wires_.erase(at);
    }

    // SP-VLC chain relay: leader beacons hop member-to-member over VLC so
    // CACC keeps its leader feed when RF is jammed.
    if (config_.security.hybrid_comms && role_ == control::Role::kMember &&
        beacon.platoon_id == platoon_id_ && beacon.platoon_index == 0) {
        const std::uint64_t relay_key =
            (static_cast<std::uint64_t>(envelope.sender) << 32) ^ envelope.seq;
        if (vlc_forwarded_.insert(relay_key).second) {
            if (vlc_forwarded_.size() > 8192) vlc_forwarded_.clear();
            net::Frame relay;
            relay.type = net::MsgType::kBeacon;
            relay.envelope = envelope;
            relay.band = config_.security.secondary_band;
            relay.truth = frame.truth;  // a relayed forgery stays a forgery
            network_.broadcast(config_.id, std::move(relay));
        }
    }
    (void)info;
}

void PlatoonVehicle::handle_maneuver(const net::ManeuverMsg& msg) {
    if (role_ == control::Role::kLeader) {
        handle_maneuver_as_leader(msg);
    } else {
        handle_maneuver_as_member(msg);
    }
}

void PlatoonVehicle::handle_maneuver_as_leader(const net::ManeuverMsg& msg) {
    if (!membership_) return;
    if (msg.platoon_id != platoon_id_) return;
    const sim::NodeId subject{msg.subject};
    const sim::SimTime now = scheduler_.now();

    switch (msg.type) {
        case net::ManeuverType::kJoinRequest: {
            // Physical-presence check (control-algorithm defense, VPD-ADA
            // family [10]): a joiner must have been beaconing from a
            // plausible position near the platoon. A join-flood of ghost
            // identities never beacons and is dropped before it can occupy
            // an admission slot.
            if (config_.security.vpd_ada) {
                const auto peer = peers_.find(msg.sender);
                if (peer == peers_.end() ||
                    std::abs(peer->second.state.position_m -
                             last_own_position_) > 250.0) {
                    break;
                }
            }
            const auto decision = admission_.on_join_request(
                sim::NodeId{msg.sender}, membership_->size(), now);
            net::ManeuverMsg reply;
            reply.platoon_id = platoon_id_;
            reply.sender = wire_id();
            reply.subject = msg.sender;
            if (decision == control::AdmissionControl::Decision::kAccept) {
                reply.type = net::ManeuverType::kJoinAccept;
                reply.param = static_cast<double>(membership_->tail().value);
            } else {
                reply.type = net::ManeuverType::kJoinDeny;
            }
            send_maneuver(reply);
            break;
        }
        case net::ManeuverType::kJoinComplete: {
            if (!membership_->contains(sim::NodeId{msg.sender}))
                membership_->append(sim::NodeId{msg.sender});
            admission_.on_join_resolved(sim::NodeId{msg.sender});
            break;
        }
        case net::ManeuverType::kLeaveRequest: {
            if (!membership_->contains(sim::NodeId{msg.sender})) break;
            net::ManeuverMsg reply;
            reply.type = net::ManeuverType::kLeaveAccept;
            reply.platoon_id = platoon_id_;
            reply.sender = wire_id();
            reply.subject = msg.sender;
            send_maneuver(reply);
            break;
        }
        case net::ManeuverType::kLeaveComplete: {
            if (membership_->contains(sim::NodeId{msg.sender}) &&
                sim::NodeId{msg.sender} != membership_->leader())
                membership_->remove(sim::NodeId{msg.sender});
            break;
        }
        default:
            break;
    }
    (void)subject;
}

void PlatoonVehicle::handle_maneuver_as_member(const net::ManeuverMsg& msg) {
    const sim::SimTime now = scheduler_.now();

    // Joiner protocol replies are matched by subject, not platoon state.
    if (role_ == control::Role::kJoiner) {
        if (msg.subject == wire_id() &&
            msg.type == net::ManeuverType::kJoinAccept) {
            join_tail_wire_ = static_cast<std::uint32_t>(msg.param);
            joiner_.on_accept(now);
            return;
        }
        if (msg.subject == wire_id() &&
            msg.type == net::ManeuverType::kJoinDeny) {
            joiner_.on_deny();
            role_ = control::Role::kFree;
            return;
        }
        return;
    }

    if (role_ != control::Role::kMember) return;
    if (msg.platoon_id != platoon_id_) return;
    // Commands must come from (what we believe is) the leader. Without
    // authentication this check is trivially satisfied by a forged sender
    // field -- which is precisely the fake-maneuver attack.
    if (!leader_wire_ || msg.sender != *leader_wire_) return;

    switch (msg.type) {
        case net::ManeuverType::kGapOpen: {
            if (msg.subject != wire_id()) break;
            if (config_.security.vpd_ada && now < gap_open_ignore_until_)
                break;  // we were burned by a wasted gap recently
            if (spacing_override_) break;  // one gap at a time: re-assertions
                                           // don't extend the entrance window
            spacing_override_ = std::max(1.0, msg.param);
            spacing_override_until_ = now + 10.0;
            gap_open_predecessor_ = predecessor_wire_;
            if (auto* path = dynamic_cast<control::PathCaccController*>(
                    &stack_.cacc())) {
                path->set_spacing(*spacing_override_);
            }
            break;
        }
        case net::ManeuverType::kSplitRequest: {
            // Everyone at or behind the split subject detaches.
            if (msg.subject == wire_id()) {
                detached_ = true;
            } else if (const auto it = peers_.find(msg.subject);
                       it != peers_.end() &&
                       last_own_position_ <= it->second.state.position_m) {
                detached_ = true;
            }
            break;
        }
        case net::ManeuverType::kDissolve:
            detached_ = true;
            break;
        case net::ManeuverType::kLeaveAccept: {
            if (msg.subject != wire_id()) break;
            // Change lane, leave the platoon, confirm.
            lane_ += 1;
            platoon_id_ = 0;
            rebuild_peer_index();
            role_ = control::Role::kFree;
            detached_ = false;
            net::ManeuverMsg done;
            done.type = net::ManeuverType::kLeaveComplete;
            done.platoon_id = msg.platoon_id;
            done.sender = wire_id();
            done.subject = wire_id();
            send_maneuver(done);
            break;
        }
        default:
            break;
    }
}

void PlatoonVehicle::handle_keymgmt(const net::KeyMgmtMsg& msg,
                                    const crypto::Envelope& envelope) {
    switch (msg.type) {
        case net::KeyMgmtType::kCrlUpdate: {
            std::size_t off = 0;
            const crypto::BytesView blob(msg.blob);
            while (off + 8 <= blob.size()) {
                protection_.crl().revoke(crypto::read_u64(blob, off));
            }
            break;
        }
        case net::KeyMgmtType::kGroupKeyDistribution: {
            if (msg.receiver != wire_id()) break;
            if (!envelope.cert) {
                // Unwrapped key from uncertified "infrastructure": only a
                // misconfigured vehicle installs it (and promptly loses the
                // ability to talk to its real peers if the key is bogus).
                if (!config_.security.require_signed_infrastructure)
                    protection_.set_group_key(msg.blob);
                break;
            }
            if (!active_credential_) break;
            // Unwrap: ChaCha20 under ECDH(self, RSU).
            const crypto::Bytes shared = crypto::dh_shared_key(
                active_credential_->key.secret,
                crypto::BytesView(envelope.cert->public_key));
            crypto::Bytes nonce(12, 0);
            for (std::size_t i = 0; i < 4; ++i)
                nonce[i] = static_cast<std::uint8_t>(wire_id() >> (8 * i));
            const crypto::Bytes key = crypto::ChaCha20::crypt(
                crypto::BytesView(shared), crypto::BytesView(nonce),
                crypto::BytesView(msg.blob));
            protection_.set_group_key(key);
            break;
        }
        default:
            break;
    }
}

}  // namespace platoon::core
