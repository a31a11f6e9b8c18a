// Per-received-message feature extraction: turns the raw message stream one
// receiver observes into the scalar residuals the detector bank and the
// exported dataset consume. Everything here is computed from information the
// receiver legitimately has (its own claims history for the sender, its own
// radar, its own position estimate) -- the oracle ground-truth label rides
// along for scoring but feeds no feature.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "net/message.hpp"
#include "base/types.hpp"

namespace platoon::detect {

/// The feature vector for one received message, as seen by one receiver.
struct Features {
    sim::SimTime t = 0.0;
    std::uint32_t receiver = sim::NodeId::kInvalidValue;  ///< Physical id.
    std::uint32_t sender = sim::NodeId::kInvalidValue;    ///< Claimed (wire).
    net::MsgType type = net::MsgType::kBeacon;
    std::uint64_t seq = 0;
    bool accepted = true;  ///< Did the receiver's defense gates let it in?
    bool sender_is_predecessor = false;

    // Beacon claims (zero for non-beacons).
    double claimed_position_m = 0.0;
    double claimed_speed_mps = 0.0;
    double claimed_accel_mps2 = 0.0;

    /// |claimed position - constant-accel prediction from this sender's
    /// previous claim|. Unset on the first claim of a stream or after a gap
    /// longer than the prediction horizon.
    std::optional<double> innovation_m;
    /// |claimed speed - predicted speed| over the same horizon.
    std::optional<double> speed_jump_mps;
    /// |beacon inter-arrival - nominal period| for this sender's stream.
    std::optional<double> jitter_s;
    /// seq minus the previous seq observed from this wire identity (signed:
    /// a replayed frame regresses, an impersonator out-running the victim's
    /// counter jumps).
    std::optional<double> seq_delta;
    /// |claimed gap to the receiver - radar-measured gap|, only when the
    /// sender is the receiver's predecessor and a radar return exists.
    std::optional<double> radar_residual_m;

    /// Oracle label (never an input to any detector).
    // platoonlint: allow(oracle-isolation) carrier field: rides along for the scorer/exporter, feeds no feature
    net::GroundTruth truth;
};

/// Stateful per-receiver extractor: tracks one claims/arrival/seq stream per
/// wire identity and emits one Features row per observed message.
class FeatureExtractor {
public:
    struct Params {
        double beacon_period_s = 0.1;       ///< Nominal beacon cadence.
        double prediction_horizon_s = 1.0;  ///< Max age of a usable claim.
    };

    /// Everything the harness hands over for one observed message.
    struct Input {
        sim::SimTime now = 0.0;
        std::uint32_t receiver = sim::NodeId::kInvalidValue;
        std::uint32_t sender = sim::NodeId::kInvalidValue;
        net::MsgType type = net::MsgType::kBeacon;
        std::uint64_t seq = 0;
        bool accepted = true;
        bool sender_is_predecessor = false;
        const net::Beacon* beacon = nullptr;           ///< Null: non-beacon.
        std::optional<double> own_position_m;          ///< Receiver estimate.
        std::optional<double> radar_gap_m;             ///< Latest radar read.
        // platoonlint: allow(oracle-isolation) carrier field: the harness stamps the label here, no feature reads it
        net::GroundTruth truth;
    };

    FeatureExtractor() = default;
    explicit FeatureExtractor(Params params) : params_(params) {}

    /// Computes the feature row for one message and advances the stream
    /// state (rejected messages still advance it: the stream is what the
    /// receiver *observed*, not what it believed).
    Features update(const Input& in);

private:
    struct Stream {
        bool has_claim = false;
        double position_m = 0.0;
        double speed_mps = 0.0;
        double accel_mps2 = 0.0;
        sim::SimTime claim_at = 0.0;
        bool has_arrival = false;
        sim::SimTime arrival_at = 0.0;
        bool has_seq = false;
        std::uint64_t seq = 0;
    };

    Params params_;
    std::unordered_map<std::uint32_t, Stream> streams_;
};

}  // namespace platoon::detect
