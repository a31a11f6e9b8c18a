// Application-level platoon messages and their canonical wire encodings.
//
// Two families matter for the paper's attack surface:
//  - periodic CAM beacons (position / speed / acceleration), the inputs to
//    the CACC controllers, and
//  - maneuver messages (join / leave / split protocol), the inputs to the
//    platoon-management FSMs.
// Both are serialised to bytes before entering the crypto envelope so that
// authentication covers the real payload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/bytes.hpp"
#include "base/types.hpp"

namespace platoon::net {

enum class MsgType : std::uint8_t {
    kBeacon = 1,
    kManeuver = 2,
    kKeyMgmt = 3,
};

/// Simulation-only ground truth riding alongside a message: which attack (if
/// any) forged, tampered with, or replayed it, and which physical node did
/// it. Never serialized into the wire bytes and never read by protocol,
/// defense, or controller code -- it exists so the misbehavior-detection
/// benchmark (src/detect) can score detectors against an oracle. `attack`
/// holds a core::AttackKind value (kept as a raw byte here so net stays
/// below core in the layering).
struct GroundTruth {
    static constexpr std::uint8_t kBenign = 0xFF;
    std::uint8_t attack = kBenign;
    std::uint32_t attacker = sim::NodeId::kInvalidValue;

    [[nodiscard]] bool malicious() const { return attack != kBenign; }
    friend bool operator==(const GroundTruth&, const GroundTruth&) = default;
};

/// Cooperative Awareness Message, broadcast at 10 Hz by every platoon
/// vehicle (the Plexe default).
struct Beacon {
    std::uint32_t sender = sim::NodeId::kInvalidValue;
    std::uint32_t platoon_id = 0;
    std::uint8_t platoon_index = 0;  ///< 0 = leader.
    std::uint8_t lane = 0;           ///< 0 = rightmost lane.
    double position_m = 0.0;         ///< Front bumper along the lane.
    double speed_mps = 0.0;
    double accel_mps2 = 0.0;
    double length_m = 0.0;

    [[nodiscard]] crypto::Bytes encode() const;
    [[nodiscard]] static std::optional<Beacon> decode(crypto::BytesView bytes);
};

enum class ManeuverType : std::uint8_t {
    kJoinRequest = 1,   ///< New vehicle asks the leader to join at the tail.
    kJoinAccept,        ///< Leader grants; param = target slot gap position.
    kJoinDeny,
    kGapOpen,           ///< Leader tells a member to open a gap; param = gap.
    kGapReady,          ///< Member reports the gap is open.
    kJoinComplete,      ///< Joiner is in position and under CACC.
    kLeaveRequest,      ///< Member asks to leave.
    kLeaveAccept,
    kLeaveComplete,
    kSplitRequest,      ///< Split the platoon at `subject`'s position.
    kDissolve,          ///< Emergency: everyone falls back to manual/ACC.
};

[[nodiscard]] const char* to_string(ManeuverType t);

struct ManeuverMsg {
    ManeuverType type = ManeuverType::kJoinRequest;
    std::uint32_t platoon_id = 0;
    std::uint32_t sender = sim::NodeId::kInvalidValue;
    std::uint32_t subject = sim::NodeId::kInvalidValue;  ///< Affected vehicle.
    double param = 0.0;  ///< Meaning depends on type (gap size, slot, ...).

    [[nodiscard]] crypto::Bytes encode() const;
    [[nodiscard]] static std::optional<ManeuverMsg> decode(
        crypto::BytesView bytes);
};

/// Key-management payloads (RSU key distribution, CRL broadcast).
enum class KeyMgmtType : std::uint8_t {
    kGroupKeyDistribution = 1,  ///< Encrypted group key (to one vehicle).
    kCrlUpdate,                 ///< Revoked serials.
    kKeyRequest,
    kMisbehaviorReport,         ///< Vehicle -> RSU: suspected attacker id.
};

struct KeyMgmtMsg {
    KeyMgmtType type = KeyMgmtType::kKeyRequest;
    std::uint32_t sender = sim::NodeId::kInvalidValue;
    std::uint32_t receiver = sim::NodeId::kInvalidValue;
    crypto::Bytes blob;  ///< Wrapped key / CRL serials.

    [[nodiscard]] crypto::Bytes encode() const;
    [[nodiscard]] static std::optional<KeyMgmtMsg> decode(
        crypto::BytesView bytes);
};

}  // namespace platoon::net
