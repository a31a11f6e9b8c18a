// SP-VLC hybrid-communication policy (Ucar et al. [2], paper Section
// VI-A.4): platoon messages travel over both 802.11p and a secondary channel
// (VLC by default, C-V2X optionally).
//
// Receiving rules:
//  - Beacons: accept from either channel (availability first), dropping
//    duplicates by (sender, seq).
//  - Maneuver commands: when dual-channel confirmation is required, a
//    command only takes effect after it has been heard on BOTH channels
//    within a matching window -- a jammer (or a single-channel injector,
//    e.g. an RF-only attacker without a VLC emitter) cannot get a command
//    accepted.
//  - Jam detection: if the RF channel goes silent while the secondary still
//    delivers, the policy flags jamming (used for reporting/fallback).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "net/message.hpp"
#include "base/types.hpp"

namespace platoon::security {

class HybridComms {
public:
    struct Params {
        bool require_dual_channel_maneuvers = true;
        /// SP-VLC [2]: beacons too must arrive on both channels -- unless
        /// the RF channel is assessed as jammed, when VLC-only passes.
        bool require_dual_channel_beacons = true;
        sim::SimTime match_window_s = 0.5;
        /// Sliding window for jam detection.
        sim::SimTime jam_window_s = 1.0;
        /// RF considered jammed when it delivered nothing in jam_window_s
        /// while the secondary delivered at least this many frames.
        std::uint32_t jam_min_secondary = 3;
    };

    enum class Action : std::uint8_t {
        kDeliver,    ///< Pass to the application now.
        kHold,       ///< Waiting for confirmation on the other channel.
        kDuplicate,  ///< Same message already delivered; drop.
    };

    HybridComms();
    explicit HybridComms(Params params) : params_(params) {}

    /// Classifies an arriving frame.
    Action on_receive(std::uint32_t sender, std::uint64_t seq,
                      net::MsgType type, net::Band band, sim::SimTime now);

    /// Expires pending single-channel maneuvers; returns how many were
    /// rejected (heard on one channel only -- the blocked-attack counter).
    std::size_t expire(sim::SimTime now);

    /// Current jamming assessment of the RF (802.11p) channel.
    [[nodiscard]] bool rf_jam_suspected(sim::SimTime now) const;

    [[nodiscard]] std::uint64_t rejected_single_channel() const {
        return rejected_single_channel_;
    }
    [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
    [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

private:
    struct Key {
        std::uint64_t v;
        friend bool operator==(Key, Key) = default;
    };
    struct KeyHash {
        std::size_t operator()(Key k) const {
            return std::hash<std::uint64_t>{}(k.v);
        }
    };
    static Key key(std::uint32_t sender, std::uint64_t seq) {
        return Key{(static_cast<std::uint64_t>(sender) << 40) ^ seq};
    }

    struct PendingEntry {
        sim::SimTime first_seen;
        net::Band first_band;
    };

    Params params_;
    std::unordered_map<Key, PendingEntry, KeyHash> pending_;
    std::unordered_map<Key, sim::SimTime, KeyHash> delivered_keys_;
    std::uint64_t rejected_single_channel_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t delivered_ = 0;
    sim::SimTime last_rf_rx_ = -1.0;
    std::vector<sim::SimTime> recent_secondary_rx_;
};

}  // namespace platoon::security
