#include "net/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/assert.hpp"

namespace platoon::net {

const char* to_string(Band band) {
    switch (band) {
        case Band::kDsrc: return "802.11p";
        case Band::kVlc: return "vlc";
        case Band::kCv2x: return "c-v2x";
    }
    return "?";
}

Channel::Channel(ChannelParams params, std::uint64_t master_seed)
    : params_(params),
      fading_rng_(master_seed, "channel.fading"),
      fading_keys_(1024, kEmptySlotKey),
      fading_states_(1024) {
    PLATOON_EXPECTS(params_.coherence_time_s > 0.0);
    PLATOON_EXPECTS(params_.data_rate_bps > 0.0);
}

namespace {

// NodeId values are 32-bit, so the canonical pair packs losslessly into one
// u64 (asserted: a wider id would silently merge fading processes).
std::uint64_t pack_pair(Channel::PairKey key) {
    PLATOON_EXPECTS(key.lo <= 0xFFFFFFFFull && key.hi <= 0xFFFFFFFFull);
    return (key.lo << 32) | key.hi;
}

std::size_t slot_hash(std::uint64_t packed) {
    std::uint64_t h = packed * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
}

}  // namespace

Channel::FadingState& Channel::fading_slot(PairKey key) {
    // Keep the load factor under 1/2 so linear probe runs stay short.
    if ((fading_count_ + 1) * 2 > fading_keys_.size()) grow_fading();
    const std::uint64_t packed = pack_pair(key);
    PLATOON_EXPECTS(packed != kEmptySlotKey);
    const std::size_t mask = fading_keys_.size() - 1;
    std::size_t i = slot_hash(packed) & mask;
    while (fading_keys_[i] != kEmptySlotKey) {
        if (fading_keys_[i] == packed) return fading_states_[i];
        i = (i + 1) & mask;
    }
    fading_keys_[i] = packed;
    FadingState& state = fading_states_[i];
    state.last_t = std::numeric_limits<double>::quiet_NaN();
    ++fading_count_;
    return state;
}

void Channel::grow_fading() {
    std::vector<std::uint64_t> old_keys = std::move(fading_keys_);
    std::vector<FadingState> old_states = std::move(fading_states_);
    fading_keys_.assign(old_keys.size() * 2, kEmptySlotKey);
    fading_states_.assign(old_states.size() * 2, FadingState{});
    const std::size_t mask = fading_keys_.size() - 1;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
        if (old_keys[j] == kEmptySlotKey) continue;
        std::size_t i = slot_hash(old_keys[j]) & mask;
        while (fading_keys_[i] != kEmptySlotKey) i = (i + 1) & mask;
        fading_keys_[i] = old_keys[j];
        fading_states_[i] = old_states[j];
    }
}

double Channel::path_loss_db(double distance_m) const {
    const double d = std::max(distance_m, 1.0);
    return params_.ref_loss_db +
           10.0 * params_.path_loss_exponent * std::log10(d);
}

Channel::PairKey Channel::pair_key(sim::NodeId a, sim::NodeId b) {
    const std::uint64_t lo = std::min(a.value, b.value);
    const std::uint64_t hi = std::max(a.value, b.value);
    return PairKey{lo, hi};
}

double Channel::fading_db(sim::NodeId a, sim::NodeId b, sim::SimTime t) {
    FadingState& state = fading_slot(pair_key(a, b));
    if (std::isnan(state.last_t)) {  // freshly inserted: first draw
        state.value_db = fading_rng_.normal(0.0, params_.fading_stddev_db);
        state.last_t = t;
        return state.value_db;
    }
    const double dt = t - state.last_t;
    if (dt <= 0.0) return state.value_db;  // same instant: reciprocal & stable
    const double rho = std::exp(-dt / params_.coherence_time_s);
    state.value_db = rho * state.value_db +
                     std::sqrt(std::max(0.0, 1.0 - rho * rho)) *
                         fading_rng_.normal(0.0, params_.fading_stddev_db);
    state.last_t = t;
    return state.value_db;
}

double Channel::gain_db(sim::NodeId a, sim::NodeId b, double distance_m,
                        sim::SimTime t) {
    return -path_loss_db(distance_m) + fading_db(a, b, t);
}

double Channel::rx_power_dbm(sim::NodeId from, sim::NodeId to,
                             double distance_m, sim::SimTime t,
                             double tx_power_dbm) {
    return tx_power_dbm + gain_db(from, to, distance_m, t);
}

sim::SimTime Channel::airtime(std::size_t bytes) const {
    return params_.preamble_s +
           static_cast<double>(bytes) * 8.0 / params_.data_rate_bps;
}

double Channel::packet_error_rate(double sinr_db, std::size_t bytes) const {
    // Sigmoid PER centred on the capture threshold; longer frames shift the
    // curve right (more bits to corrupt) by ~1 dB per 4x length over 100 B.
    const double length_shift =
        std::log2(std::max<double>(static_cast<double>(bytes), 32.0) / 100.0) *
        0.5;
    const double x = (sinr_db - params_.capture_threshold_db - length_shift) /
                     params_.per_slope_db;
    return 1.0 / (1.0 + std::exp(x * 2.0));
}

}  // namespace platoon::net
