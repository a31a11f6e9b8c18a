// Platoon membership bookkeeping and the maneuver protocol state machines.
//
// The leader owns the authoritative member list; members track their platoon
// id, index and spacing target; joiners run a request/approach/complete FSM
// (the VENTOS-style join-at-tail protocol the paper's "fake maneuver"
// attacks target, Section V-A.3). The classes here are pure protocol logic:
// message I/O and timers are wired up by core::PlatoonVehicle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "base/types.hpp"

namespace platoon::control {

enum class Role : std::uint8_t { kLeader, kMember, kJoiner, kFree };
[[nodiscard]] const char* to_string(Role r);

/// Leader-side membership registry.
class Membership {
public:
    explicit Membership(std::uint32_t platoon_id, sim::NodeId leader)
        : platoon_id_(platoon_id), leader_(leader) {
        order_.push_back(leader);
    }

    [[nodiscard]] std::uint32_t platoon_id() const { return platoon_id_; }
    [[nodiscard]] sim::NodeId leader() const { return leader_; }
    [[nodiscard]] std::size_t size() const { return order_.size(); }
    [[nodiscard]] const std::vector<sim::NodeId>& order() const {
        return order_;
    }
    [[nodiscard]] bool contains(sim::NodeId id) const;
    /// Index in the platoon (0 = leader); nullopt if not a member.
    [[nodiscard]] std::optional<std::size_t> index_of(sim::NodeId id) const;
    [[nodiscard]] std::optional<sim::NodeId> predecessor_of(
        sim::NodeId id) const;
    [[nodiscard]] sim::NodeId tail() const { return order_.back(); }

    void append(sim::NodeId id);
    void remove(sim::NodeId id);

private:
    std::uint32_t platoon_id_;
    sim::NodeId leader_;
    std::vector<sim::NodeId> order_;
};

/// Leader-side admission control for join requests (the DoS target:
/// a bounded pending-join table, paper Section V-D).
class AdmissionControl {
public:
    struct Params {
        std::size_t max_members = 10;
        std::size_t max_pending = 3;
        sim::SimTime pending_timeout_s = 15.0;
        /// Minimum interval between join requests from one id (rate limit;
        /// part of the DoS defense when enabled).
        sim::SimTime per_id_min_interval_s = 0.0;
    };

    AdmissionControl();
    explicit AdmissionControl(Params params) : params_(params) {}

    enum class Decision { kAccept, kDenyFull, kDenyPending, kDenyRateLimited };

    /// Decides on a join request arriving at `now` from `joiner` given the
    /// current member count.
    Decision on_join_request(sim::NodeId joiner, std::size_t member_count,
                             sim::SimTime now);

    /// The joiner completed (or abandoned): frees its pending slot.
    void on_join_resolved(sim::NodeId joiner);

    /// Expires stale pending entries; returns how many were dropped.
    std::size_t expire(sim::SimTime now);

    [[nodiscard]] std::size_t pending() const { return pending_.size(); }
    [[nodiscard]] const Params& params() const { return params_; }
    void set_rate_limit(sim::SimTime min_interval) {
        params_.per_id_min_interval_s = min_interval;
    }

private:
    struct Pending {
        sim::NodeId joiner;
        sim::SimTime since;
    };
    Params params_;
    std::vector<Pending> pending_;
    std::vector<std::pair<sim::NodeId, sim::SimTime>> last_request_;
};

/// Joiner-side FSM for the join-at-tail maneuver.
class JoinerFsm {
public:
    enum class State : std::uint8_t {
        kIdle,
        kRequested,   ///< JoinRequest sent, awaiting accept.
        kApproach,    ///< Accepted: closing on the tail under ACC.
        kJoined,      ///< CACC engaged, leader notified.
        kDenied,
    };

    struct Params {
        sim::SimTime request_timeout_s = 5.0;
        /// Gap error to hand over to CACC; generous, because CACC closes the
        /// remaining distance smoothly while the approach ACC would park at
        /// its own (much wider) equilibrium.
        double engage_gap_error_m = 10.0;
        double engage_speed_error_mps = 2.0;
    };

    JoinerFsm();
    explicit JoinerFsm(Params params) : params_(params) {}

    [[nodiscard]] State state() const { return state_; }
    [[nodiscard]] sim::SimTime requested_at() const { return requested_at_; }
    [[nodiscard]] int attempts() const { return attempts_; }

    /// Events. Each returns true when the event caused a transition.
    bool on_request_sent(sim::SimTime now);
    bool on_accept(sim::SimTime now);
    bool on_deny();
    /// Checks gap/speed error against the engage thresholds.
    bool on_progress(double gap_error_m, double speed_error_mps);
    bool on_timeout(sim::SimTime now);
    void reset() { state_ = State::kIdle; }

private:
    Params params_;
    State state_ = State::kIdle;
    sim::SimTime requested_at_ = -1.0;
    int attempts_ = 0;
};

[[nodiscard]] const char* to_string(JoinerFsm::State s);

}  // namespace platoon::control
