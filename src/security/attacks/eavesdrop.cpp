#include "security/attacks/eavesdrop.hpp"

#include <algorithm>
#include <cmath>

#include "base/assert.hpp"

namespace platoon::security {

void EavesdropAttack::attach(core::Scenario& scenario) {
    PLATOON_EXPECTS(radio_ == nullptr);
    scenario_ = &scenario;

    std::function<double()> position;
    if (params_.mobile) {
        position = track_vehicle(scenario, scenario.config().platoon_size - 1,
                                 -25.0);
    } else {
        position = [pos = params_.post_position_m] { return pos; };
    }
    radio_ = std::make_unique<AttackerRadio>(scenario, sim::NodeId{9004},
                                             std::move(position));

    radio_->start([this](const net::Frame& frame, const net::RxInfo& info) {
        const sim::SimTime now = scenario_->scheduler().now();
        if (!params_.window.active_at(now)) return;
        ++heard_;
        payload_bytes_captured_ += frame.envelope.payload.size();
        if (frame.type != net::MsgType::kBeacon) return;

        // The eavesdropper has no keys: an encrypted payload is noise (the
        // decode magic will not match).
        const auto beacon =
            net::Beacon::decode(crypto::BytesView(frame.envelope.payload));
        if (!beacon) return;
        ++decoded_;

        Track& track = tracks_[frame.envelope.sender];
        if (track.points == 0) track.first = now;
        track.last = now;
        ++track.points;

        // Ground truth: how well does the claimed position pin the actual
        // physical transmitter? (The simulator knows; a real attacker would
        // be correlating with camera/toll data.)
        if (scenario_->network().is_registered(info.physical_sender)) {
            const double truth =
                scenario_->network().node_position(info.physical_sender);
            abs_error_sum_ += std::abs(truth - beacon->position_m);
            ++error_samples_;
        }
    });
}

double EavesdropAttack::longest_track_s() const {
    double best = 0.0;
    for (const auto& [id, track] : tracks_) {
        if (track.points >= 2) best = std::max(best, track.last - track.first);
    }
    return best;
}

double EavesdropAttack::tracking_error_m() const {
    return error_samples_ == 0
               ? 0.0
               : abs_error_sum_ / static_cast<double>(error_samples_);
}

void EavesdropAttack::collect(core::MetricMap& out) const {
    out["attack.frames_heard"] = static_cast<double>(heard_);
    out["attack.beacons_decoded"] = static_cast<double>(decoded_);
    out["attack.decode_ratio"] =
        heard_ == 0 ? 0.0
                    : static_cast<double>(decoded_) / static_cast<double>(heard_);
    out["attack.bytes_captured"] =
        static_cast<double>(payload_bytes_captured_);
    out["attack.identities_tracked"] = static_cast<double>(tracks_.size());
    out["attack.longest_track_s"] = longest_track_s();
    out["attack.tracking_error_m"] = tracking_error_m();
}

}  // namespace platoon::security
